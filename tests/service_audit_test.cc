// Black-box DP audit suite for the serving stack (ctest label `audit`).
//
// Where tests/dp_auditor_test.cc checks closed-form mechanism
// distributions on a static CsrGraph, this suite audits the REAL privacy
// surface: two live RecommendationService instances on neighboring graphs,
// sampled through the production serve paths (cold, cache-hit frozen
// sampler, post-mutation re-freeze, multi-shard). The ServiceAuditor's ε̂
// is Clopper–Pearson-certified, so the "broken mechanism is flagged"
// assertions are high-probability statements, not flaky point estimates.
//
// Trial counts are sized from the host's core count — not for
// parallelism (the audit loops are sequential) but as a host-class
// proxy: the 1-vCPU CI container runs the floor (well under the 60 s
// audit-label budget), while multi-core developer machines, which are
// also faster per core, buy extra statistical power; a hard cap keeps
// the worst case sub-second either way.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/privacy_accountant.h"
#include "eval/service_auditor.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "gen/neighboring.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"
#include "utility/link_predictors.h"
#include "utility/personalized_pagerank.h"

// Sanitized builds (TSAN/ASan runs in ci/sanitize.sh) pay a ~10x
// slowdown; the heavyweight statistical assertions scale their trial
// counts down there — the sanitizer run certifies memory/race
// cleanliness, the default build certifies statistical power.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PRIVREC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PRIVREC_TEST_SANITIZED 1
#endif
#endif
#ifndef PRIVREC_TEST_SANITIZED
#define PRIVREC_TEST_SANITIZED 0
#endif

namespace privrec {
namespace {

/// Core-count-keyed trial budget (see file comment): ~2500 per side per
/// path resolves e^0.3 likelihood ratios at 99% confidence on the 1-vCPU
/// floor; the cap bounds the sequential loops on many-core boxes.
uint64_t AuditTrialsPerSide() {
  const uint64_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<uint64_t>(7500, 2500 * cores);
}

/// Common neighbors reporting half the true sensitivity: the mechanism's
/// noise scale Δf/ε is halved, i.e. the service actually releases at ~2ε.
/// The most dangerous privacy-bug class in this library — invisible to
/// every accuracy test, caught only by an audit.
class HalvedSensitivityCn : public CommonNeighborsUtility {
 public:
  double SensitivityBound(const CsrGraph& graph) const override {
    return CommonNeighborsUtility::SensitivityBound(graph) / 2.0;
  }
};

ServiceAuditOptions FixtureAuditOptions() {
  ServiceAuditOptions options;
  options.release_epsilon = 0.8;
  options.trials_per_side = AuditTrialsPerSide();
  options.confidence = 0.99;
  options.seed = 20260730;
  options.multi_shard_count = 8;
  return options;
}

/// The fixture pair both audit tests run on: directed audit fixture with
/// arc (2, 4) toggled — one candidate's utility moves by the full Δf = 1,
/// the sharpest contrast a single toggle can produce for directed CN.
NeighboringPair FixturePair() {
  CsrGraph g = MakeDirectedAuditFixture();
  auto pair = MakeEdgeTogglePair(g, /*target=*/0, 2, 4);
  // Fatal (not EXPECT) so a fixture change can never fall through to
  // dereferencing an errored Result below.
  PRIVREC_CHECK_OK(pair.status());
  return *pair;
}

TEST(ServiceAuditorTest, HonestServiceHonorsEpsilonOnAllFourPaths) {
  ServiceAuditOptions options = FixtureAuditOptions();
  ServiceAuditor auditor([] { return std::make_unique<CommonNeighborsUtility>(); },
                         options);
  auto audit = auditor.AuditPair(FixturePair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const char* path : {"cold", "cache_hit", "post_mutation",
                           "multi_shard"}) {
    const PathEpsilonEstimate* estimate = audit->FindPath(path);
    ASSERT_NE(estimate, nullptr) << path;
    EXPECT_EQ(estimate->trials_per_side, options.trials_per_side);
    // The certified bound is ≤ the true realized ε (≈0.51 on this pair)
    // with probability ≥ 0.99 per path, so clearing the configured 0.8 by
    // this much would be a real leak, not sampling noise.
    EXPECT_LE(estimate->epsilon_lower_bound, options.release_epsilon)
        << path << ": certified lower bound exceeds the configured ε";
    // The point estimate carries sampling noise; allow a noise band on
    // top of ε (the certified bound above is the sound assertion).
    EXPECT_LE(estimate->epsilon_hat, options.release_epsilon + 0.3) << path;
  }
  EXPECT_EQ(audit->pairs_checked, 1u);
  EXPECT_EQ(audit->worst_edge_u, 2u);
  EXPECT_EQ(audit->worst_edge_v, 4u);
}

TEST(ServiceAuditorTest, HalvedNoiseScaleIsFlaggedOnEveryPath) {
  ServiceAuditOptions options = FixtureAuditOptions();
  ServiceAuditor auditor([] { return std::make_unique<HalvedSensitivityCn>(); },
                         options);
  auto audit = auditor.AuditPair(FixturePair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    // True worst ratio on this pair is ≈1.11 = 1.4·ε; at ≥2500 trials the
    // certified bound lands ≈0.9, comfortably above ε — a certified
    // violation on every audited serve path.
    EXPECT_GT(estimate.epsilon_lower_bound, options.release_epsilon)
        << estimate.path << ": broken mechanism escaped certification";
    EXPECT_GT(estimate.epsilon_hat, options.release_epsilon) << estimate.path;
    EXPECT_GT(estimate.worst_z, 3.0) << estimate.path;
  }
  EXPECT_GT(audit->max_abs_log_ratio, options.release_epsilon);
}

TEST(ServiceAuditorTest, FixedSeedReproducesIdenticalEstimates) {
  ServiceAuditOptions options = FixtureAuditOptions();
  options.trials_per_side = 400;  // determinism, not power
  ServiceAuditor auditor([] { return std::make_unique<CommonNeighborsUtility>(); },
                         options);
  auto first = auditor.AuditPair(FixturePair(), 0);
  auto second = auditor.AuditPair(FixturePair(), 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->per_path.size(), second->per_path.size());
  for (size_t i = 0; i < first->per_path.size(); ++i) {
    EXPECT_EQ(first->per_path[i].path, second->per_path[i].path);
    EXPECT_DOUBLE_EQ(first->per_path[i].epsilon_hat,
                     second->per_path[i].epsilon_hat);
    EXPECT_DOUBLE_EQ(first->per_path[i].epsilon_lower_bound,
                     second->per_path[i].epsilon_lower_bound);
  }
}

TEST(ServiceAuditorTest, AuditServeChargesNoLifetimeBudget) {
  DynamicGraph graph(MakeDirectedAuditFixture());
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 1.0;  // two real releases, ever
  options.num_shards = 1;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(service.ServeForAudit(0, rng).ok());
  }
  // 500 audit trials later, the user's lifetime budget is untouched and
  // the audit traffic is visible in its own counter, not in `served`.
  EXPECT_DOUBLE_EQ(service.RemainingBudget(0), 1.0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.audit_serves, 500u);
  EXPECT_EQ(stats.served, 0u);
  // The real path still charges: two serves succeed, the third refuses.
  EXPECT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_TRUE(
      IsBudgetExhausted(service.ServeRecommendation(0, rng).status()));
  EXPECT_DOUBLE_EQ(service.RemainingBudget(0), 0.0);
}

TEST(ServiceAuditorTest, AuditEdgeTogglesMergesPairsPerPath) {
  Rng rng(11);
  auto g = ErdosRenyiGnm(10, 18, /*directed=*/false, rng);
  ASSERT_TRUE(g.ok());
  ServiceAuditOptions options;
  options.release_epsilon = 1.0;
  options.trials_per_side = 300;  // smoke coverage, not power
  options.seed = 5;
  ServiceAuditor auditor([] { return std::make_unique<CommonNeighborsUtility>(); },
                         options);
  Rng pair_rng(13);
  auto audit = auditor.AuditEdgeToggles(*g, /*target=*/0, /*max_pairs=*/3,
                                        pair_rng);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(audit->pairs_checked, 3u);
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    EXPECT_EQ(estimate.trials_per_side, 300u);
    EXPECT_GE(audit->max_abs_log_ratio, 0.0);
  }
}

// ---------------------------------------------------------------- property
// Satellite invariant: after ANY interleaving of AddEdge/RemoveEdge and
// budget-charged serves, the empirical ε̂ of the cache-hit path never
// exceeds the ε the accountant charged per release. This is the test that
// catches stale-frozen-sampler leaks: a cached sampler surviving a
// mutation it should have been invalidated (or re-frozen) for shows up as
// a certified ε̂ above release_epsilon.
//
// Runs in BOTH cache-maintenance modes: delta repair (entries kept or
// patched through the edge-delta journal — the samplers audited here may
// never have been recomputed since their vector was first frozen) and the
// full-recompute baseline. A patch that silently corrupted a vector, or a
// keep that should have been a patch, surfaces as a certified leak on the
// delta run; the baseline run keeps the original PR 3 guarantee pinned.

TEST(ServiceAuditPropertyTest, CacheHitEpsilonNeverExceedsChargedEpsilon) {
  const uint64_t trials = AuditTrialsPerSide();
  for (const bool enable_delta_repair : {true, false}) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    auto g = ErdosRenyiGnm(12, 22, /*directed=*/false, rng);
    ASSERT_TRUE(g.ok());
    // A neighboring pair differing in one edge away from target 0.
    NodeId tu = 0, tv = 0;
    while (tu == tv || tu == 0 || tv == 0) {
      tu = static_cast<NodeId>(rng.NextBounded(12));
      tv = static_cast<NodeId>(rng.NextBounded(12));
    }
    auto pair = MakeEdgeTogglePair(*g, /*target=*/0, tu, tv);
    ASSERT_TRUE(pair.ok());

    DynamicGraph base_graph(pair->base);
    DynamicGraph neighbor_graph(pair->neighbor);
    ServiceOptions options;
    options.release_epsilon = 0.7;
    options.per_user_budget = 1e6;
    options.num_shards = 2;
    options.seed = 77;
    options.enable_delta_repair = enable_delta_repair;
    RecommendationService base_service(
        &base_graph, std::make_unique<CommonNeighborsUtility>(), options);
    RecommendationService neighbor_service(
        &neighbor_graph, std::make_unique<CommonNeighborsUtility>(), options);

    // Random interleaving of mutations and charged serves, applied
    // IDENTICALLY to both services so the graphs stay neighbors. Mutations
    // avoid target-incident edges (candidate-set changes would leave the
    // relaxed edge-DP relation) and the differing edge itself.
    Rng ops_rng(seed * 31 + 7);
    Rng serve_rng_base(seed * 57 + 1);
    Rng serve_rng_nb(seed * 57 + 2);
    for (int op = 0; op < 40; ++op) {
      if (ops_rng.NextBernoulli(0.4)) {
        const NodeId a = static_cast<NodeId>(ops_rng.NextBounded(12));
        const NodeId b = static_cast<NodeId>(ops_rng.NextBounded(12));
        if (a == b || a == 0 || b == 0) continue;
        if ((a == tu && b == tv) || (a == tv && b == tu)) continue;
        if (base_graph.HasEdge(a, b) != neighbor_graph.HasEdge(a, b)) {
          continue;  // never touch the differing edge's slot
        }
        if (base_graph.HasEdge(a, b)) {
          ASSERT_TRUE(base_service.RemoveEdge(a, b).ok());
          ASSERT_TRUE(neighbor_service.RemoveEdge(a, b).ok());
        } else {
          ASSERT_TRUE(base_service.AddEdge(a, b).ok());
          ASSERT_TRUE(neighbor_service.AddEdge(a, b).ok());
        }
      } else {
        const NodeId user = static_cast<NodeId>(ops_rng.NextBounded(12));
        // Budget-charged production serves; outcomes are irrelevant, the
        // point is to churn caches, samplers, and accountants.
        (void)base_service.ServeRecommendation(user, serve_rng_base);
        (void)neighbor_service.ServeRecommendation(user, serve_rng_nb);
      }
    }

    // Audit the cache-hit path of whatever state the interleaving left:
    // one warm-up each, then fixed-seed trials through the frozen
    // samplers.
    std::map<NodeId, uint64_t> counts[2];
    Rng audit_rng_base(seed * 101 + 3);
    Rng audit_rng_nb(seed * 101 + 4);
    ASSERT_TRUE(base_service.ServeForAudit(0, audit_rng_base).ok());
    ASSERT_TRUE(neighbor_service.ServeForAudit(0, audit_rng_nb).ok());
    for (uint64_t t = 0; t < trials; ++t) {
      auto base_outcome = base_service.ServeForAudit(0, audit_rng_base);
      auto nb_outcome = neighbor_service.ServeForAudit(0, audit_rng_nb);
      ASSERT_TRUE(base_outcome.ok());
      ASSERT_TRUE(nb_outcome.ok());
      ++counts[0][*base_outcome];
      ++counts[1][*nb_outcome];
    }
    const PathEpsilonEstimate estimate = EstimateEpsilonFromCounts(
        "cache_hit", counts[0], counts[1], trials, /*confidence=*/0.999);
    // The accountant charges release_epsilon per release; the certified
    // empirical ε̂ of the releases must never exceed it.
    EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon)
        << "seed " << seed << " delta_repair=" << enable_delta_repair
        << ": cache-hit path leaks more than the charged ε (stale frozen "
           "sampler?)";
    // The delta run only certifies the new machinery if entries really
    // went through journal repair (kept or recomputed) rather than the
    // fallback: the interleaving must have driven at least one service
    // through a journal-repair path.
    const ServiceStats base_stats = base_service.stats();
    const ServiceStats neighbor_stats = neighbor_service.stats();
    const uint64_t repairs =
        base_stats.delta_kept + base_stats.delta_recomputed +
        neighbor_stats.delta_kept + neighbor_stats.delta_recomputed;
    if (enable_delta_repair) {
      EXPECT_GT(repairs, 0u)
          << "seed " << seed
          << ": audit never exercised the delta-repair paths";
    } else {
      EXPECT_EQ(repairs, 0u);
    }
  }
  }
}

// ------------------------------------------------------------- list shape
// ServeList is its own privacy surface: k peeled picks per release, each
// spending ε/k. The audits below reduce the list outcome to binomial
// cells (common/statistics.h) so the same Clopper–Pearson machinery that
// certifies single serves certifies lists.

TEST(ServeListAuditTest, ListAuditServesAreBudgetNeutralAndCounted) {
  DynamicGraph graph(MakeDirectedAuditFixture());
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 1.0;  // two real releases, ever
  options.num_shards = 2;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(19);
  for (int i = 0; i < 300; ++i) {
    auto list = service.ServeListForAudit(0, /*k=*/3, rng);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    ASSERT_EQ(list->picks.size(), 3u);
  }
  // 300 audited lists later the lifetime budget is untouched, and the
  // traffic landed in its own counter — invisible to the serving SLOs.
  EXPECT_DOUBLE_EQ(service.RemainingBudget(0), 1.0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.audit_list_serves, 300u);
  EXPECT_EQ(stats.audit_serves, 0u);
  EXPECT_EQ(stats.served, 0u);
  // The charged list path still charges.
  EXPECT_TRUE(service.ServeList(0, 3).ok());
  EXPECT_TRUE(service.ServeList(0, 3).ok());
  EXPECT_TRUE(IsBudgetExhausted(service.ServeList(0, 3).status()));
}

TEST(ServeListAuditTest, ListAuditIsBitwiseReproducibleAcrossShardCounts) {
  // The audited list release must depend only on (graph, utility, caller
  // RNG stream) — never on how users are striped across shards. If shard
  // count fed the sampled lists, multi-shard audit rows would not be
  // comparing the distribution they claim to.
  std::vector<std::vector<NodeId>> picks_by_config;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    DynamicGraph graph(MakeDirectedAuditFixture());
    ServiceOptions options;
    options.release_epsilon = 0.7;
    options.num_shards = shards;
    options.seed = 4242;
    RecommendationService service(
        &graph, std::make_unique<CommonNeighborsUtility>(), options);
    Rng rng(0x1157'5eedULL);
    std::vector<NodeId> picks;
    for (int i = 0; i < 200; ++i) {
      auto list = service.ServeListForAudit(0, /*k=*/2, rng);
      ASSERT_TRUE(list.ok());
      for (const Recommendation& pick : list->picks) {
        picks.push_back(pick.node);
      }
    }
    picks_by_config.push_back(std::move(picks));
  }
  EXPECT_EQ(picks_by_config[0], picks_by_config[1]);
  EXPECT_EQ(picks_by_config[0], picks_by_config[2]);
}

TEST(ServeListAuditTest, HonestListServiceHonorsEpsilonOnAllFourPaths) {
  ServiceAuditOptions options = FixtureAuditOptions();
  options.shape = ServeAuditShape::kList;
  options.list_k = 2;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  auto audit = auditor.AuditPair(FixturePair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon)
        << estimate.path << ": honest list release certified a violation";
    // List reductions carry many cells; the correction must reflect that
    // (position marginals + memberships + bounded identity on a k=2
    // fixture land well above the 3 cells of the single shape).
    EXPECT_GE(estimate.bonferroni_cells, 6u) << estimate.path;
  }
}

TEST(ServeListAuditTest, HalvedNoiseListServiceIsFlaggedOnEveryPath) {
  // The adversarial fixture: PeelingExponentialTopK fed half the true
  // sensitivity serves k=2 lists at ~2x its configured ε. Each slot's
  // marginal leak is diluted (ε/k per peel), so only the list-level
  // reduction — position marginals plus the joint list-identity cells,
  // where the per-slot leaks COMPOUND — certifies the violation.
  ServiceAuditOptions options = FixtureAuditOptions();
  options.release_epsilon = 1.5;
  options.shape = ServeAuditShape::kList;
  options.list_k = 2;
#if PRIVREC_TEST_SANITIZED
  // Race/memory coverage only: the full-power certification below needs
  // 16000 trials/side/path, which the sanitizer slowdown cannot afford.
  options.trials_per_side = 800;
#else
  options.trials_per_side = 16000;
#endif
  ServiceAuditor auditor([] { return std::make_unique<HalvedSensitivityCn>(); },
                         options);
  auto audit = auditor.AuditPair(FixturePair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    EXPECT_GT(estimate.epsilon_hat, options.release_epsilon) << estimate.path;
#if !PRIVREC_TEST_SANITIZED
    // The worst list-identity cell realizes ln≈1.8 on this pair; at
    // 16000 trials the certified bound clears the configured 1.5 on
    // every serve path — a certified violation of the list release.
    EXPECT_GT(estimate.epsilon_lower_bound, options.release_epsilon)
        << estimate.path << ": broken list mechanism escaped certification";
#endif
  }
}

// ------------------------------------------------------------- allocation
// Adaptive trial allocation: a fixed TOTAL budget spent round by round,
// each round's slice weighted by the paths' current certification gaps
// (ε̂ − certified bound). Trials flow to the widest Clopper–Pearson
// intervals — the cells where another trial buys the most certification.

TEST(AdaptiveAllocationTest, StaysWithinBudgetAndConcentratesTrials) {
  ServiceAuditOptions options = FixtureAuditOptions();
  options.trials_per_side = 0;  // must be ignored when a budget is set
  options.total_trial_budget = 4000;
  options.adaptive_rounds = 4;
  options.seed = 90210;
  ServiceAuditor auditor([] { return std::make_unique<HalvedSensitivityCn>(); },
                         options);
  auto audit = auditor.AuditPair(FixturePair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  uint64_t total = 0, min_trials = ~0ull, max_trials = 0;
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    EXPECT_GT(estimate.trials_per_side, 0u) << estimate.path;
    total += estimate.trials_per_side;
    min_trials = std::min(min_trials, estimate.trials_per_side);
    max_trials = std::max(max_trials, estimate.trials_per_side);
  }
  // The budget is a hard ceiling (and the loop spends all of it).
  EXPECT_LE(total, options.total_trial_budget);
  EXPECT_EQ(total, options.total_trial_budget);
  // Non-uniform by construction: the widest-interval path drew strictly
  // more than the uniform share, so some other path drew strictly less.
  const uint64_t uniform_share = options.total_trial_budget / 4;
  EXPECT_GT(max_trials, uniform_share);
  EXPECT_LT(min_trials, uniform_share);
}

TEST(AdaptiveAllocationTest, FixedSeedReproducesAdaptiveAudit) {
  ServiceAuditOptions options = FixtureAuditOptions();
  options.total_trial_budget = 1600;
  options.adaptive_rounds = 4;
  ServiceAuditor auditor([] { return std::make_unique<HalvedSensitivityCn>(); },
                         options);
  auto first = auditor.AuditPair(FixturePair(), 0);
  auto second = auditor.AuditPair(FixturePair(), 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->per_path.size(), second->per_path.size());
  for (size_t i = 0; i < first->per_path.size(); ++i) {
    // Allocation decisions feed back into later rounds' sampling, so
    // bitwise-equal estimates certify the whole loop is deterministic,
    // not just the final arithmetic.
    EXPECT_EQ(first->per_path[i].trials_per_side,
              second->per_path[i].trials_per_side);
    EXPECT_DOUBLE_EQ(first->per_path[i].epsilon_hat,
                     second->per_path[i].epsilon_hat);
    EXPECT_DOUBLE_EQ(first->per_path[i].epsilon_lower_bound,
                     second->per_path[i].epsilon_lower_bound);
  }
}

TEST(AdaptiveAllocationTest, AdaptiveCertifiesAtLeastUniformAtEqualBudget) {
  // The allocation's reason to exist: at the SAME total spend, steering
  // trials toward the widest intervals must certify at least as much of
  // the broken fixture's leak as splitting uniformly.
  // Both audits are deterministic at a fixed seed, so GE below is an
  // exact regression pin, not a flaky sample. The paths' distributions
  // are nearly iid on this fixture (an honest stack serves the same
  // distribution everywhere), so adaptive's edge is modest — the seeds
  // are ones where steering realizes it at each build's budget.
  const uint64_t budget = PRIVREC_TEST_SANITIZED ? 2000 : 8000;
  ServiceAuditOptions uniform = FixtureAuditOptions();
  uniform.release_epsilon = 0.8;
  uniform.trials_per_side = budget / 4;
  uniform.seed = PRIVREC_TEST_SANITIZED ? 2026 : 1;
  ServiceAuditOptions adaptive = uniform;
  adaptive.trials_per_side = 0;
  adaptive.total_trial_budget = budget;
  adaptive.adaptive_rounds = 4;
  ServiceAuditor uniform_auditor(
      [] { return std::make_unique<HalvedSensitivityCn>(); }, uniform);
  ServiceAuditor adaptive_auditor(
      [] { return std::make_unique<HalvedSensitivityCn>(); }, adaptive);
  auto uniform_audit = uniform_auditor.AuditPair(FixturePair(), 0);
  auto adaptive_audit = adaptive_auditor.AuditPair(FixturePair(), 0);
  ASSERT_TRUE(uniform_audit.ok());
  ASSERT_TRUE(adaptive_audit.ok());
  double uniform_certified = 0, adaptive_certified = 0;
  uint64_t adaptive_total = 0;
  for (const PathEpsilonEstimate& estimate : uniform_audit->per_path) {
    uniform_certified =
        std::max(uniform_certified, estimate.epsilon_lower_bound);
  }
  for (const PathEpsilonEstimate& estimate : adaptive_audit->per_path) {
    adaptive_certified =
        std::max(adaptive_certified, estimate.epsilon_lower_bound);
    adaptive_total += estimate.trials_per_side;
  }
  ASSERT_EQ(adaptive_total, budget);  // equal total spend, by construction
  EXPECT_GE(adaptive_certified, uniform_certified);
#if !PRIVREC_TEST_SANITIZED
  // And at the full budget the broken calibration stays certified.
  EXPECT_GT(adaptive_certified, uniform.release_epsilon);
#endif
}

// ---------------------------------------------------------- under mutation
// AuditPairUnderMutation: mirrored mutator threads apply identical
// deterministic toggle streams to BOTH pair sides while measurement
// rounds interleave — the delta-repair + PatchCsr + affect-filter stack
// is inside the audited anonymity set, not paused for the audit. Runs
// under TSAN via the `audit` label (ci/sanitize.sh).

TEST(UnderMutationAuditTest, HonestServiceStaysCertifiedUnderChurn) {
  ServiceAuditOptions options = FixtureAuditOptions();
  options.release_epsilon = 0.8;
  options.trials_per_side = PRIVREC_TEST_SANITIZED ? 600 : 3000;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  MutationAuditOptions mutation;
  mutation.mutator_threads = 2;
  mutation.rounds = 6;
  ServiceStats stats;
  auto audit = auditor.AuditPairUnderMutation(FixturePair(), /*target=*/0,
                                              mutation, &stats);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 1u);
  const PathEpsilonEstimate& estimate = audit->per_path[0];
  EXPECT_EQ(estimate.path, "under_mutation");
  EXPECT_EQ(estimate.trials_per_side,
            (options.trials_per_side / mutation.rounds) * mutation.rounds);
  // With probability >= confidence the honest stack leaks no more than
  // its configured ε even while the mutators churn both sides.
  EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon);
  // The run only certifies the repair machinery if the churn actually
  // drove it: cache entries must have been kept or recomputed, and at
  // the default journal capacity nothing may have fallen back.
  EXPECT_GT(stats.delta_kept + stats.delta_recomputed, 0u);
  EXPECT_EQ(stats.journal_fallbacks, 0u);
  EXPECT_GT(stats.audit_serves, 0u);
}

TEST(UnderMutationAuditTest, TinyJournalForcesFallbackRepairsUnderAudit) {
  // journal_capacity=1 overflows the edge-delta journal every round, so
  // repairs route through the full-recompute fallback — the audit then
  // certifies THAT path too, and the stats hook proves it ran.
  ServiceAuditOptions options = FixtureAuditOptions();
  options.release_epsilon = 0.8;
  options.trials_per_side = PRIVREC_TEST_SANITIZED ? 600 : 1800;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  MutationAuditOptions mutation;
  mutation.rounds = 6;
  mutation.journal_capacity = 1;
  ServiceStats stats;
  auto audit = auditor.AuditPairUnderMutation(FixturePair(), /*target=*/0,
                                              mutation, &stats);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_GT(stats.journal_fallbacks, 0u)
      << "capacity-1 journal never overflowed: the fallback path went "
         "unaudited";
  EXPECT_LE(audit->per_path[0].epsilon_lower_bound, options.release_epsilon);
}

TEST(UnderMutationAuditTest, QuarterScaledNoiseIsCertifiedUnderChurn) {
  // The adversarial side: a service releasing at ~4x its configured ε
  // must stay certifiable THROUGH the churn. Outcome cells are keyed by
  // (round, outcome) — each round's pair of states is identical except
  // the toggled edge, so per-round ratios are e^ε-bounded for honest
  // services and the worst round's full leak survives (pooling across
  // rounds would average it away).
  class QuarterScaledCn : public CommonNeighborsUtility {
   public:
    double SensitivityBound(const CsrGraph& graph) const override {
      return CommonNeighborsUtility::SensitivityBound(graph) / 4.0;
    }
  };
  ServiceAuditOptions options = FixtureAuditOptions();
  options.release_epsilon = 1.0;
  options.trials_per_side = PRIVREC_TEST_SANITIZED ? 600 : 4200;
  ServiceAuditor auditor([] { return std::make_unique<QuarterScaledCn>(); },
                         options);
  MutationAuditOptions mutation;
  mutation.rounds = 6;
  auto audit =
      auditor.AuditPairUnderMutation(FixturePair(), /*target=*/0, mutation);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  const PathEpsilonEstimate& estimate = audit->per_path[0];
  EXPECT_GT(estimate.epsilon_hat, options.release_epsilon);
#if !PRIVREC_TEST_SANITIZED
  EXPECT_GT(estimate.epsilon_lower_bound, options.release_epsilon)
      << "broken calibration escaped certification under mutation";
#endif
}

// ---------------------------------------------------------------- node-DP
// The kNode surface: node-rewiring pairs (Appendix A) drive the same four
// serve paths, but the service now serves off the degree-capped projected
// view and calibrates with NodeSensitivityBound. The honest suites pin
// the ≤ ε side on the trip-wire fixture (gen/fixtures.h — hub x adjacent
// to every z, so an uncapped rewiring swings 2·zs·Δf of raw utility); the
// broken suites are the two ways a service can claim node-DP and lie:
// skipping the projection while keeping the capped calibration, and
// charging only edge sensitivity under node-rewiring adversaries.

ServiceAuditOptions NodeAuditOptions(double epsilon, uint32_t degree_cap) {
  ServiceAuditOptions options;
  options.release_epsilon = epsilon;
  options.trials_per_side = AuditTrialsPerSide();
  options.confidence = 0.99;
  options.seed = 20260808;
  options.multi_shard_count = 8;
  options.privacy_model = PrivacyModel::kNode;
  options.degree_cap = degree_cap;
  return options;
}

/// Resource allocation that charges its EDGE sensitivity under kNode — the
/// "forgot to multiply by the cap" bug class. Invisible to accuracy tests
/// and to every edge-DP audit; only node-rewiring pairs expose it.
class EdgeChargedOnlyRa : public ResourceAllocationUtility {
 public:
  double NodeSensitivityBound(const CsrGraph& projected,
                              uint32_t /*degree_cap*/) const override {
    return SensitivityBound(projected);
  }
};

TEST(NodeDpAuditTest, HonestNodeServiceHonorsEpsilonOnAllFourPaths) {
  ServiceAuditOptions options = NodeAuditOptions(/*epsilon=*/0.5,
                                                 /*degree_cap=*/2);
  ServiceAuditor auditor(
      [] { return std::make_unique<ResourceAllocationUtility>(); }, options);
  auto audit = auditor.AuditPair(MakeNodeAuditRewiringPair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const char* path :
       {"cold", "cache_hit", "post_mutation", "multi_shard"}) {
    const PathEpsilonEstimate* estimate = audit->FindPath(path);
    ASSERT_NE(estimate, nullptr) << path;
    // Projected at D=2, the rewired hub moves each candidate's utility by
    // at most the capped prefix — the realized ratio sits near ε/4, so a
    // certified bound above the configured ε would be a real node-DP
    // leak, not noise.
    EXPECT_LE(estimate->epsilon_lower_bound, options.release_epsilon)
        << path << ": honest node-DP service certified a violation";
    EXPECT_LE(estimate->epsilon_hat, options.release_epsilon + 0.3) << path;
  }
  EXPECT_EQ(audit->pairs_checked, 1u);
}

TEST(NodeDpAuditTest, HonestKatzAndPprHonorEpsilonUnderNodeModel) {
  // The non-default sensitivity forms: Katz inherits the D·Δf_edge
  // envelope, PPR overrides with the cap-independent 2(1-α)/α closed
  // form. Both must stay ≤ ε on the same trip-wire pair.
  struct NamedFactory {
    const char* name;
    std::function<std::unique_ptr<UtilityFunction>()> make;
  };
  const NamedFactory factories[] = {
      {"katz", [] { return std::make_unique<KatzUtility>(0.05, 3); }},
      {"ppr",
       [] { return std::make_unique<PersonalizedPageRankUtility>(0.2, 8); }},
  };
  for (const NamedFactory& factory : factories) {
    ServiceAuditOptions options = NodeAuditOptions(/*epsilon=*/0.5,
                                                   /*degree_cap=*/2);
    options.trials_per_side = PRIVREC_TEST_SANITIZED ? 400 : 1500;
    ServiceAuditor auditor(factory.make, options);
    auto audit = auditor.AuditPair(MakeNodeAuditRewiringPair(), /*target=*/0);
    ASSERT_TRUE(audit.ok()) << factory.name << ": "
                            << audit.status().ToString();
    ASSERT_EQ(audit->per_path.size(), 4u) << factory.name;
    for (const PathEpsilonEstimate& estimate : audit->per_path) {
      EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon)
          << factory.name << "/" << estimate.path;
    }
  }
}

TEST(NodeDpAuditTest, HonestNodeListServiceHonorsEpsilon) {
  ServiceAuditOptions options = NodeAuditOptions(/*epsilon=*/0.5,
                                                 /*degree_cap=*/2);
  options.shape = ServeAuditShape::kList;
  options.list_k = 5;
  ServiceAuditor auditor(
      [] { return std::make_unique<ResourceAllocationUtility>(); }, options);
  auto audit = auditor.AuditPair(MakeNodeAuditRewiringPair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    // This assertion is the regression pin for the zero-block fix in
    // ServeListLocked (each pick resolved by ResolveZeroUtilityNode):
    // releasing unresolved zero-utility sentinels made exactly this
    // reduction certify an infinite-ratio distinguisher on node pairs,
    // because the rewiring moves candidate utilities across zero.
    EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon)
        << estimate.path << ": honest node-DP list release certified a "
                            "violation (zero-block sentinel leak?)";
    EXPECT_GE(estimate.bonferroni_cells, 32u) << estimate.path;
  }
}

TEST(NodeDpAuditTest, SampledNodeRewiringsMergePairsPerPath) {
  const CsrGraph graph = MakeNodeAuditFixture();
  ServiceAuditOptions options = NodeAuditOptions(/*epsilon=*/1.0,
                                                 /*degree_cap=*/2);
  options.trials_per_side = 400;  // smoke coverage, not power
  ServiceAuditor auditor(
      [] { return std::make_unique<ResourceAllocationUtility>(); }, options);
  Rng pair_rng(17);
  auto audit = auditor.AuditNodeRewirings(graph, /*target=*/0,
                                          /*max_pairs=*/3, pair_rng);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(audit->pairs_checked, 3u);
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    EXPECT_EQ(estimate.trials_per_side, 400u);
    EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon)
        << estimate.path;
  }
}

TEST(NodeDpAuditTest, UncappedProjectionIsCertifiedOnEveryPath) {
  // The projection trip wire: ServiceOptions::uncap_projection serves on
  // the RAW view while keeping the capped calibration — exactly what a
  // service that "supports kNode" but forgot to project would do. On the
  // fixture the hub's raw utility swing is 2·zs·Δf against a D·Δf noise
  // scale, an order-of-magnitude under-noising.
  ServiceAuditOptions options = NodeAuditOptions(/*epsilon=*/1.0,
                                                 /*degree_cap=*/1);
  options.uncap_projection = true;
  options.trials_per_side = PRIVREC_TEST_SANITIZED ? 600 : 2000;
  ServiceAuditor auditor(
      [] { return std::make_unique<ResourceAllocationUtility>(); }, options);
  auto audit = auditor.AuditPair(MakeNodeAuditRewiringPair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    EXPECT_GT(estimate.epsilon_hat, options.release_epsilon) << estimate.path;
#if !PRIVREC_TEST_SANITIZED
    // At 2000 trials the certified bound lands ≈2.9 — far above the
    // configured ε=1 on every serve path.
    EXPECT_GT(estimate.epsilon_lower_bound, options.release_epsilon)
        << estimate.path << ": uncapped projection escaped certification";
#endif
  }
  EXPECT_GT(audit->max_abs_log_ratio, options.release_epsilon);
}

TEST(NodeDpAuditTest, EdgeChargedOnlyServiceIsCertifiedOnEveryPath) {
  // The accounting trip wire: projection honored (D=16 keeps the whole
  // fixture), but noise calibrated to edge sensitivity only. Every edge-DP
  // audit in this file passes such a service; the node-rewiring pair is
  // the one adversary that bills all 2·zs moved arcs at once.
  ServiceAuditOptions options = NodeAuditOptions(/*epsilon=*/0.5,
                                                 /*degree_cap=*/16);
  options.trials_per_side = PRIVREC_TEST_SANITIZED ? 600 : 2500;
  ServiceAuditor auditor([] { return std::make_unique<EdgeChargedOnlyRa>(); },
                         options);
  auto audit = auditor.AuditPair(MakeNodeAuditRewiringPair(), /*target=*/0);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 4u);
  for (const PathEpsilonEstimate& estimate : audit->per_path) {
    EXPECT_GT(estimate.epsilon_hat, options.release_epsilon) << estimate.path;
#if !PRIVREC_TEST_SANITIZED
    EXPECT_GT(estimate.epsilon_lower_bound, options.release_epsilon)
        << estimate.path << ": edge-charged-only service escaped "
                            "node-DP certification";
#endif
  }
}

TEST(NodeDpAuditTest, AuditServesChargeNoBudgetOrWindowUnderNodeModel) {
  // Audit-hook neutrality must survive the kNode + window-budget stack:
  // 300 audit serves and 100 audit lists later, the lifetime budget, the
  // tumbling window, and every window counter are untouched — the audit
  // traffic cannot perturb the continual-observation state it measures.
  DynamicGraph graph(MakeNodeAuditFixture());
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 2.0;
  options.num_shards = 2;
  options.privacy_model = PrivacyModel::kNode;
  options.degree_cap = 2;
  options.budget_window.enabled = true;
  options.budget_window.window_length = 10;
  options.budget_window.refresh_epsilon = 0.5;
  RecommendationService service(
      &graph, std::make_unique<ResourceAllocationUtility>(), options);
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(service.ServeForAudit(0, rng).ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto list = service.ServeListForAudit(0, /*k=*/5, rng);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    ASSERT_EQ(list->picks.size(), 5u);
  }
  EXPECT_DOUBLE_EQ(service.RemainingBudget(0), 2.0);
  EXPECT_DOUBLE_EQ(service.WindowSpent(0), 0.0);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.audit_serves, 300u);
  EXPECT_EQ(stats.audit_list_serves, 100u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.window_refreshes, 0u);
  EXPECT_EQ(stats.refused_window, 0u);
  // The charged path still charges: the 0.5-refresh window affords one
  // release, the second refuses on the window (not the lifetime budget).
  EXPECT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_TRUE(
      IsBudgetExhausted(service.ServeRecommendation(0, rng).status()));
  EXPECT_DOUBLE_EQ(service.RemainingBudget(0), 1.5);
  EXPECT_DOUBLE_EQ(service.WindowSpent(0), 0.5);
  stats = service.stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.refused_window, 1u);
  EXPECT_EQ(stats.refused_budget, 0u);
}

// ----------------------------------------------- Katz/PPR serve differential
// The incremental-update satellite's end-to-end pin: a delta-repaired
// service over KatzUtility / PersonalizedPageRankUtility must serve
// BYTE-IDENTICAL sequences to the recompute-everything baseline (their
// keep test is the exact walk/push cone and affected entries recompute,
// so repair changes cost, never outcomes).

TEST(NodeDpAuditTest, KatzAndPprDeltaModeServeIdenticallyToBaseline) {
  struct NamedFactory {
    const char* name;
    std::function<std::unique_ptr<UtilityFunction>()> make;
  };
  const NamedFactory factories[] = {
      {"katz", [] { return std::make_unique<KatzUtility>(0.05, 3); }},
      {"ppr",
       [] { return std::make_unique<PersonalizedPageRankUtility>(0.2, 4); }},
  };
  for (const NamedFactory& factory : factories) {
    // Sparse 300-node graph: most toggles fall outside a cached target's
    // walk/push cone (delta_kept), while near-target toggles drive the
    // recompute route (delta_recomputed) — both must run for the
    // differential to certify anything.
    Rng graph_rng(71);
    auto base = ErdosRenyiGnm(300, 450, /*directed=*/false, graph_rng);
    ASSERT_TRUE(base.ok()) << factory.name;
    DynamicGraph graph_delta(*base);
    DynamicGraph graph_baseline(*base);
    ServiceOptions options;
    options.release_epsilon = 0.25;
    options.per_user_budget = 1e6;
    options.cache_capacity = 256;
    options.num_shards = 4;
    options.seed = 2026;
    options.enable_delta_repair = true;
    RecommendationService delta_service(&graph_delta, factory.make(), options);
    options.enable_delta_repair = false;
    RecommendationService baseline_service(&graph_baseline, factory.make(),
                                           options);
    Rng ops_rng(73);
    const int ops = PRIVREC_TEST_SANITIZED ? 250 : 600;
    for (int op = 0; op < ops; ++op) {
      if (ops_rng.NextBernoulli(0.15)) {
        const NodeId u = static_cast<NodeId>(ops_rng.NextBounded(300));
        const NodeId v = static_cast<NodeId>(ops_rng.NextBounded(300));
        if (u == v) continue;
        if (graph_delta.HasEdge(u, v)) {
          ASSERT_TRUE(delta_service.RemoveEdge(u, v).ok());
          ASSERT_TRUE(baseline_service.RemoveEdge(u, v).ok());
        } else {
          ASSERT_TRUE(delta_service.AddEdge(u, v).ok());
          ASSERT_TRUE(baseline_service.AddEdge(u, v).ok());
        }
      } else if (ops_rng.NextBernoulli(0.2)) {
        const NodeId user = static_cast<NodeId>(ops_rng.NextBounded(300));
        auto list_a = delta_service.ServeList(user, 3);
        auto list_b = baseline_service.ServeList(user, 3);
        ASSERT_EQ(list_a.ok(), list_b.ok()) << factory.name << " op " << op;
        if (!list_a.ok()) continue;
        ASSERT_EQ(list_a->picks.size(), list_b->picks.size());
        for (size_t p = 0; p < list_a->picks.size(); ++p) {
          ASSERT_EQ(list_a->picks[p].node, list_b->picks[p].node)
              << factory.name << " op " << op << " pick " << p;
        }
      } else {
        const NodeId user = static_cast<NodeId>(ops_rng.NextBounded(300));
        auto rec_a = delta_service.ServeRecommendation(user);
        auto rec_b = baseline_service.ServeRecommendation(user);
        ASSERT_EQ(rec_a.ok(), rec_b.ok()) << factory.name << " op " << op;
        if (rec_a.ok()) {
          ASSERT_EQ(*rec_a, *rec_b) << factory.name << " op " << op;
        }
      }
    }
    const ServiceStats delta_stats = delta_service.stats();
    const ServiceStats baseline_stats = baseline_service.stats();
    EXPECT_EQ(delta_stats.served, baseline_stats.served) << factory.name;
    // The differential is only meaningful if both repair verdicts ran:
    // cone-keeps on far toggles AND recomputes near the target.
    EXPECT_GT(delta_stats.delta_kept, 0u) << factory.name;
    EXPECT_GT(delta_stats.delta_recomputed, 0u) << factory.name;
    EXPECT_EQ(delta_stats.delta_patched, 0u) << factory.name;
    EXPECT_EQ(baseline_stats.delta_kept, 0u) << factory.name;
    EXPECT_EQ(baseline_stats.delta_recomputed, 0u) << factory.name;
    EXPECT_GT(delta_stats.cache_hits, baseline_stats.cache_hits)
        << factory.name;
  }
}

}  // namespace
}  // namespace privrec
