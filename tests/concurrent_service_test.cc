// Concurrency suite for the sharded serving stack: stress tests that pin
// the thread-safety contract (exact budget accounting under races, exact
// stats sums, never a torn snapshot), a chi-squared check that the
// cache-hit frozen-sampler path draws from the exact exponential-mechanism
// distribution, and a determinism test for the per-shard RNG streams.
//
// These tests carry the ctest label `concurrent` and are the payload of
// ci/sanitize.sh (ThreadSanitizer build).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/statistics.h"
#include "core/exponential_mechanism.h"
#include "core/privacy_accountant.h"
#include "eval/parallel.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

constexpr NodeId kStressNodes = 300;

DynamicGraph StressGraph(uint64_t seed = 5) {
  Rng rng(seed);
  auto weights = PowerLawWeights(kStressNodes, 2.2);
  auto g = ChungLu(weights, weights, 1500, /*directed=*/false, rng);
  return DynamicGraph(*g);
}

ServiceOptions StressOptions() {
  ServiceOptions options;
  options.release_epsilon = 0.25;
  options.per_user_budget = 2.0;  // exactly 8 releases per user
  options.cache_capacity = 512;
  options.num_shards = 8;
  options.seed = 99;
  return options;
}

// ------------------------------------------------------------------ stress

/// A cache and journal size for the mixed-traffic stress.
struct StressCacheShape {
  const char* name;
  size_t cache_capacity;
  /// 0 keeps the graph's default journal.
  size_t journal_capacity;
  /// Whether shards fill up, so misses run eviction alongside mutators.
  bool evicts;
};

class ConcurrentStressTest : public ::testing::TestWithParam<StressCacheShape> {
};

TEST_P(ConcurrentStressTest, StressMixedTrafficKeepsBudgetsExact) {
  const StressCacheShape& shape = GetParam();
  DynamicGraph graph = StressGraph();
  if (shape.journal_capacity > 0) {
    graph.SetJournalCapacity(shape.journal_capacity);
  }
  ServiceOptions options = StressOptions();
  options.cache_capacity = shape.cache_capacity;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  ASSERT_EQ(service.num_shards(), 8u);

  constexpr unsigned kThreads = 8;
  constexpr uint64_t kOpsPerThread = 1500;
  std::vector<std::atomic<uint64_t>> successes(kStressNodes);
  std::vector<std::atomic<uint64_t>> refusals(kStressNodes);
  std::atomic<uint64_t> mutations{0};
  std::atomic<uint64_t> other_failures{0};

  RunWorkers(kThreads, [&](unsigned w) {
    Rng rng(1000 + w);
    for (uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.NextBernoulli(0.15)) {
        // Edge toggle through the service (mutation + cache sweep).
        const NodeId u = static_cast<NodeId>(rng.NextBounded(kStressNodes));
        NodeId v = static_cast<NodeId>(rng.NextBounded(kStressNodes));
        if (u == v) continue;
        Status status = graph.HasEdge(u, v) ? service.RemoveEdge(u, v)
                                            : service.AddEdge(u, v);
        // Lost toggle races surface as FailedPrecondition — acceptable.
        if (status.ok()) mutations.fetch_add(1);
        continue;
      }
      const NodeId user = static_cast<NodeId>(rng.NextBounded(kStressNodes));
      // A quarter of the serves are 3-slot lists: a list charges the same
      // release_epsilon and does the same single cache lookup, so every
      // exactness assertion below covers both shapes.
      const Status status = rng.NextBernoulli(0.25)
                                ? service.ServeList(user, 3).status()
                                : service.ServeRecommendation(user).status();
      if (status.ok()) {
        successes[user].fetch_add(1);
      } else if (IsBudgetExhausted(status)) {
        refusals[user].fetch_add(1);
      } else {
        other_failures.fetch_add(1);
      }
    }
  });

  EXPECT_EQ(other_failures.load(), 0u);
  EXPECT_GT(mutations.load(), 0u);

  // Budget accounting must be EXACT under races: per user, total ε charged
  // is (successful releases) · release_epsilon, never exceeds the lifetime
  // budget, and the service's remaining-budget view agrees.
  uint64_t total_success = 0, total_refused = 0;
  const uint64_t max_releases = static_cast<uint64_t>(
      options.per_user_budget / options.release_epsilon + 1e-9);
  for (NodeId user = 0; user < kStressNodes; ++user) {
    const uint64_t s = successes[user].load();
    total_success += s;
    total_refused += refusals[user].load();
    const double charged = static_cast<double>(s) * options.release_epsilon;
    EXPECT_LE(charged, options.per_user_budget + 1e-9) << "user " << user;
    EXPECT_LE(s, max_releases) << "user " << user;
    EXPECT_NEAR(service.RemainingBudget(user),
                options.per_user_budget - charged, 1e-9)
        << "user " << user;
    // Every refusal must have happened at a genuinely exhausted budget.
    if (refusals[user].load() > 0) {
      EXPECT_EQ(s, max_releases) << "user " << user
                                 << " was refused with budget left";
    }
  }

  // Stats counters sum exactly across shards, lists included.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served, total_success);
  EXPECT_EQ(stats.refused_budget, total_refused);
  // Every successful release did exactly one cache lookup.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total_success);
  if (shape.evicts) {
    // Eviction ran under the mutators: doomed purges happened, and users
    // were inserted again after losing their slot (misses that were not
    // repairs of a cached entry outnumber the distinct users served).
    uint64_t distinct_served = 0;
    for (NodeId user = 0; user < kStressNodes; ++user) {
      if (successes[user].load() > 0) ++distinct_served;
    }
    EXPECT_GT(stats.doomed_evictions, 0u);
    EXPECT_GT(stats.cache_misses - stats.delta_recomputed -
                  stats.cache_invalidations,
              distinct_served);
  }
}

// 512 slots give each shard 64, more than the users it ever sees, so
// nothing is evicted. 32 slots give each shard 4, and a 16-entry journal
// dooms entries: LRU and doomed evictions then race the mutators on every
// shard.
INSTANTIATE_TEST_SUITE_P(
    CacheShapes, ConcurrentStressTest,
    ::testing::Values(StressCacheShape{"roomy", 512, 0, false},
                      StressCacheShape{"evicting", 32, 16, true}),
    [](const ::testing::TestParamInfo<StressCacheShape>& info) {
      return std::string(info.param.name);
    });

TEST(ConcurrentServiceTest, SnapshotsAreNeverTorn) {
  DynamicGraph graph = StressGraph(7);
  constexpr unsigned kMutators = 4;
  constexpr unsigned kReaders = 4;
  constexpr uint64_t kOps = 3000;

  // The readers and the mutators overlap by construction: mutators start
  // only once every reader holds a snapshot, and readers keep reading
  // until every mutator is done.
  std::atomic<unsigned> readers_started{0};
  std::atomic<unsigned> mutators_done{0};
  std::atomic<uint64_t> snapshots_checked{0};
  RunWorkers(kMutators + kReaders, [&](unsigned w) {
    if (w < kMutators) {
      while (readers_started.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      Rng rng(42 + w);
      for (uint64_t op = 0; op < kOps; ++op) {
        const NodeId u = static_cast<NodeId>(rng.NextBounded(kStressNodes));
        const NodeId v = static_cast<NodeId>(rng.NextBounded(kStressNodes));
        if (u == v) continue;
        if (graph.HasEdge(u, v)) {
          (void)graph.RemoveEdge(u, v);
        } else {
          (void)graph.AddEdge(u, v);
        }
      }
      mutators_done.fetch_add(1, std::memory_order_release);
      return;
    }
    // Reader: the published (stamp, CSR) pair must always be internally
    // consistent — the stamp's edge count is the CSR's edge count, and the
    // version/edge-count stamps advance monotonically per reader.
    uint64_t last_version = 0;
    bool started = false;
    do {
      DynamicGraph::StampedSnapshot snap = graph.VersionedSnapshot();
      // Announced before the checks, so a failing one cannot leave the
      // mutators waiting.
      if (!started) {
        started = true;
        readers_started.fetch_add(1, std::memory_order_release);
      }
      ASSERT_NE(snap.graph, nullptr);
      ASSERT_EQ(snap.num_edges, snap.graph->num_edges())
          << "torn snapshot: stamp does not match the CSR it points to";
      ASSERT_GE(snap.version, last_version) << "snapshot went backwards";
      ASSERT_LE(snap.version, graph.version());
      last_version = snap.version;
      snapshots_checked.fetch_add(1);
    } while (mutators_done.load(std::memory_order_acquire) < kMutators);
  });
  EXPECT_GT(snapshots_checked.load(), 0u);
}

TEST(ConcurrentServiceTest, SnapshotFastPathTakesNoLockAndNoRebuild) {
  // On an unmutated graph, concurrent snapshot readers share one build.
  DynamicGraph graph = StressGraph(11);
  auto pinned = graph.SharedSnapshot();
  ASSERT_EQ(graph.snapshot_builds(), 1u);
  RunWorkers(8, [&](unsigned) {
    for (int i = 0; i < 2000; ++i) {
      auto snap = graph.SharedSnapshot();
      ASSERT_EQ(snap.get(), pinned.get());
    }
  });
  EXPECT_EQ(graph.snapshot_builds(), 1u);
}

// ------------------------------------------------- cached-sampler fidelity

TEST(ConcurrentServiceTest, CachedSamplerMatchesExactDistribution) {
  // The cache-hit path draws from the frozen RecommendationSampler; a
  // chi-squared test checks those draws against the exact closed-form
  // exponential-mechanism distribution — which is precisely what the
  // cache-miss path samples from. Failure here means the cached sampler
  // leaks a stale or mis-frozen distribution.
  DynamicGraph graph = StressGraph(13);
  ServiceOptions options;
  options.release_epsilon = 1.0;
  options.per_user_budget = 1e9;  // not the subject of this test
  options.cache_capacity = 64;
  options.num_shards = 4;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);

  const NodeId user = 0;
  auto snapshot = graph.SharedSnapshot();
  CommonNeighborsUtility utility;
  const UtilityVector utilities = utility.Compute(*snapshot, user);
  ASSERT_GT(utilities.nonzero().size(), 2u);
  ExponentialMechanism mechanism(options.release_epsilon,
                                 utility.SensitivityBound(*snapshot));
  auto dist = mechanism.Distribution(utilities);
  ASSERT_TRUE(dist.ok());

  // Zero-utility candidates are resolved to concrete uniform ids by the
  // service; aggregate them back into one cell for the test.
  std::set<NodeId> nonzero_support;
  for (const UtilityEntry& e : utilities.nonzero()) {
    nonzero_support.insert(e.node);
  }

  constexpr int kDraws = 20000;
  Rng rng(17);
  std::unordered_map<NodeId, int> counts;
  int zero_count = 0;
  for (int i = 0; i < kDraws; ++i) {
    auto rec = service.ServeRecommendation(user, rng);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    if (nonzero_support.count(*rec) > 0) {
      ++counts[*rec];
    } else {
      ++zero_count;
    }
  }
  // All but the first draw came from the cache, reusing the same frozen
  // sampler (no sensitivity drift on an unmutated graph).
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kDraws - 1));
  EXPECT_EQ(stats.sampler_reuses, static_cast<uint64_t>(kDraws - 1));

  // Chi-squared GOF from the shared statistics kit: one cell per nonzero
  // candidate plus the zero block as one cell; sparse cells (expected < 5)
  // are skipped by the kit.
  std::vector<double> observed, expected;
  for (size_t i = 0; i < utilities.nonzero().size(); ++i) {
    observed.push_back(counts[utilities.nonzero()[i].node]);
    expected.push_back(dist->nonzero_probs[i] * kDraws);
  }
  observed.push_back(zero_count);
  expected.push_back(dist->zero_block_prob * kDraws);
  const ChiSquaredGof gof = ChiSquaredGoodnessOfFit(observed, expected);
  ASSERT_GT(gof.cells_used, 1u);
  // Conservative acceptance: mean dof + 6·sd — far beyond the 99.9th
  // percentile of chi2(dof), so flakes mean a real distribution bug.
  EXPECT_LT(gof.statistic, ChiSquaredConservativeBound(gof.dof, 6.0))
      << "cache-hit sampler draws diverge from the exact distribution";
}

// Common neighbors with a (still conservative: ≥ 2) sensitivity bound that
// drifts with the graph's max degree. Every service-shipped 2-hop utility
// happens to have a constant Δf, so this is how the test reaches the
// sampler-refreeze path a future degree-normalized utility would exercise.
class DriftingSensitivityCn : public CommonNeighborsUtility {
 public:
  double SensitivityBound(const CsrGraph& graph) const override {
    return 2.0 + 0.1 * graph.MaxOutDegree();
  }
};

TEST(ConcurrentServiceTest, SamplerIsRefrozenWhenSensitivityDrifts) {
  // A mutation far from the cached user leaves their utility vector valid
  // (no invalidation) but can change the graph-wide Δf; the service must
  // rebuild the frozen sampler rather than serve from the stale one.
  DynamicGraph graph(6, /*directed=*/false);
  // User 0 with neighbors 1,2; hub 3 carries d_max.
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(0, 2).ok());
  ASSERT_TRUE(graph.AddEdge(1, 3).ok());
  ASSERT_TRUE(graph.AddEdge(2, 3).ok());
  ASSERT_TRUE(graph.AddEdge(3, 4).ok());
  ServiceOptions options;
  options.release_epsilon = 1.0;
  options.per_user_budget = 1e9;
  options.num_shards = 1;
  RecommendationService service(
      &graph, std::make_unique<DriftingSensitivityCn>(), options);
  Rng rng(23);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());  // warms cache
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());  // reuses sampler
  EXPECT_EQ(service.stats().sampler_reuses, 1u);

  // Mutate an edge not watched by user 0: (3,5) touches neither 0 nor
  // N(0) = {1,2}, so the cached vector survives — but it bumps d_max
  // (hub 3: degree 3 → 4) and with it the drifting Δf.
  DriftingSensitivityCn utility;
  const double sens_before = utility.SensitivityBound(*graph.SharedSnapshot());
  ASSERT_TRUE(service.AddEdge(3, 5).ok());
  const double sens_after = utility.SensitivityBound(*graph.SharedSnapshot());
  ASSERT_NE(sens_before, sens_after);
  EXPECT_EQ(service.stats().cache_invalidations, 0u);

  // Serve again: cache hit on the same vector, but the frozen sampler is
  // stale and must be rebuilt (reuse counter does NOT advance)…
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().sampler_reuses, 1u);
  // …and the refrozen sampler is reused from then on.
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_EQ(service.stats().sampler_reuses, 2u);
}

// ------------------------------------------------------------- determinism

TEST(ConcurrentServiceTest, FixedSeedReproducesIdenticalServeSequences) {
  // Guards the per-shard RNG-stream refactor: two service instances with
  // the same options (seed included) over identical graphs must serve
  // byte-identical sequences for an identical single-threaded call
  // sequence through the Rng-less overloads.
  Rng graph_rng(31);
  auto weights = PowerLawWeights(kStressNodes, 2.2);
  auto base = ChungLu(weights, weights, 1500, /*directed=*/false, graph_rng);
  DynamicGraph graph_a(*base);
  DynamicGraph graph_b(*base);
  ServiceOptions options = StressOptions();
  options.per_user_budget = 5.0;
  RecommendationService service_a(
      &graph_a, std::make_unique<CommonNeighborsUtility>(), options);
  RecommendationService service_b(
      &graph_b, std::make_unique<CommonNeighborsUtility>(), options);

  for (int i = 0; i < 400; ++i) {
    const NodeId user = static_cast<NodeId>((i * 17) % kStressNodes);
    if (i % 5 == 0) {
      auto list_a = service_a.ServeList(user, 3);
      auto list_b = service_b.ServeList(user, 3);
      ASSERT_EQ(list_a.ok(), list_b.ok()) << "call " << i;
      if (!list_a.ok()) continue;
      ASSERT_EQ(list_a->picks.size(), list_b->picks.size());
      for (size_t p = 0; p < list_a->picks.size(); ++p) {
        EXPECT_EQ(list_a->picks[p].node, list_b->picks[p].node)
            << "call " << i << " pick " << p;
      }
    } else {
      auto rec_a = service_a.ServeRecommendation(user);
      auto rec_b = service_b.ServeRecommendation(user);
      ASSERT_EQ(rec_a.ok(), rec_b.ok()) << "call " << i;
      if (rec_a.ok()) {
        EXPECT_EQ(*rec_a, *rec_b) << "call " << i;
      } else {
        EXPECT_EQ(rec_a.status().ToString(), rec_b.status().ToString());
      }
    }
  }
  // And the mutable state they accumulated agrees too.
  const ServiceStats stats_a = service_a.stats();
  const ServiceStats stats_b = service_b.stats();
  EXPECT_EQ(stats_a.served, stats_b.served);
  EXPECT_EQ(stats_a.refused_budget, stats_b.refused_budget);
  EXPECT_EQ(stats_a.cache_hits, stats_b.cache_hits);
  EXPECT_EQ(stats_a.cache_misses, stats_b.cache_misses);
}

// -------------------------------------------- continual-observation windows

TEST(ConcurrentServiceTest, WindowBudgetsStayExactAcrossEightThreads) {
  // 8 threads hammer 64 users (disjoint per-thread user sets, so every
  // user's request ordering is deterministic even though the 8 shards are
  // under concurrent load from all threads). With a tumbling window of 10
  // requests and 0.5 ε refresh at 0.25 ε per serve, every user's traffic
  // resolves to EXACT per-window arithmetic: 2 served then 8 refused per
  // full window, and the per-user/per-shard tallies must sum with no
  // charge lost or double-counted under the races.
  DynamicGraph graph = StressGraph(41);
  ServiceOptions options = StressOptions();
  options.per_user_budget = 100.0;  // lifetime never binds; windows do
  options.budget_window.enabled = true;
  options.budget_window.window_length = 10;
  options.budget_window.refresh_epsilon = 0.5;
  options.budget_window.exhaustion = BudgetWindowPolicy::Exhaustion::kReject;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);

  constexpr unsigned kThreads = 8;
  constexpr NodeId kUsersPerThread = 8;
  constexpr uint64_t kRequestsPerUser = 25;  // 2 full windows + 5
  std::atomic<uint64_t> served{0}, refused{0}, other_failures{0};
  RunWorkers(kThreads, [&](unsigned w) {
    for (NodeId offset = 0; offset < kUsersPerThread; ++offset) {
      const NodeId user = static_cast<NodeId>(w * kUsersPerThread + offset);
      for (uint64_t i = 0; i < kRequestsPerUser; ++i) {
        auto rec = service.ServeRecommendation(user);
        if (rec.ok()) {
          served.fetch_add(1);
        } else if (IsBudgetExhausted(rec.status())) {
          refused.fetch_add(1);
        } else {
          other_failures.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(other_failures.load(), 0u);

  // Per user: windows [1..10], [11..20] serve 2 and refuse 8 each; the
  // 5-request tail window serves 2 and refuses 3. AdvanceWindow crosses a
  // boundary at requests 11 and 21.
  constexpr uint64_t kUsers = kThreads * kUsersPerThread;
  EXPECT_EQ(served.load(), kUsers * 6);
  EXPECT_EQ(refused.load(), kUsers * 19);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served, kUsers * 6);
  EXPECT_EQ(stats.refused_window, kUsers * 19);
  EXPECT_EQ(stats.refused_budget, 0u);
  EXPECT_EQ(stats.window_refreshes, kUsers * 2);
  EXPECT_EQ(stats.degraded_serves, 0u);
  for (NodeId user = 0; user < kUsers; ++user) {
    // Tail window: two 0.25 ε serves landed, so the window ledger reads
    // exactly the refresh budget; lifetime spend is 6 serves.
    EXPECT_NEAR(service.WindowSpent(user), 0.5, 1e-9) << "user " << user;
    EXPECT_NEAR(service.RemainingBudget(user), 100.0 - 6 * 0.25, 1e-9)
        << "user " << user;
  }
}

TEST(ConcurrentServiceTest, WindowExhaustionDegradeReplaysDeterministically) {
  // kDegrade flow, replayed twice with identical seeds: request 1 serves
  // at full ε (0.8), request 2 no longer fits the 1.0 refresh budget and
  // serves degraded at ε/4 (0.2, topping the window off exactly), requests
  // 3..6 are refused; the second window repeats the pattern. Both runs
  // must produce byte-identical outcome sequences AND recommendations —
  // the degraded path shares the deterministic per-shard RNG stream.
  auto run = [](std::vector<std::pair<int, NodeId>>& outcomes) {
    DynamicGraph graph = StressGraph(43);
    ServiceOptions options = StressOptions();
    options.num_shards = 1;  // single user -> single deterministic stream
    options.release_epsilon = 0.8;
    options.per_user_budget = 100.0;
    options.budget_window.enabled = true;
    options.budget_window.window_length = 6;
    options.budget_window.refresh_epsilon = 1.0;
    options.budget_window.exhaustion =
        BudgetWindowPolicy::Exhaustion::kDegrade;
    options.budget_window.degrade_factor = 4.0;
    RecommendationService service(
        &graph, std::make_unique<CommonNeighborsUtility>(), options);
    for (int i = 0; i < 12; ++i) {
      auto rec = service.ServeRecommendation(7);
      if (rec.ok()) {
        outcomes.emplace_back(0, *rec);
      } else {
        EXPECT_TRUE(IsBudgetExhausted(rec.status())) << rec.status().message();
        outcomes.emplace_back(1, 0);
      }
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.served, 4u);           // 2 full + 2 degraded
    EXPECT_EQ(stats.degraded_serves, 2u);
    EXPECT_EQ(stats.refused_window, 8u);
    EXPECT_EQ(stats.refused_budget, 0u);
    EXPECT_EQ(stats.window_refreshes, 1u);  // crossing at request 7
    // Both windows were topped off exactly: 0.8 + 0.2 = 1.0 each.
    EXPECT_NEAR(service.WindowSpent(7), 1.0, 1e-9);
    EXPECT_NEAR(service.RemainingBudget(7), 100.0 - 2 * (0.8 + 0.2), 1e-9);
  };
  std::vector<std::pair<int, NodeId>> first, second;
  run(first);
  run(second);
  ASSERT_EQ(first.size(), 12u);
  EXPECT_EQ(first, second) << "degrade replay diverged across identical runs";
  // Shape: [serve, degraded-serve, refuse x4] twice.
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(first[w * 6].first, 0);
    EXPECT_EQ(first[w * 6 + 1].first, 0);
    for (int i = 2; i < 6; ++i) EXPECT_EQ(first[w * 6 + i].first, 1);
  }
}

}  // namespace
}  // namespace privrec
