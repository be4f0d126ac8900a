// Tests for the serving layer: budget enforcement, cache behavior under
// graph mutation, and node-DP audit integration.

#include <filesystem>
#include <memory>
#include <string>

#include "core/exponential_mechanism.h"
#include "eval/dp_auditor.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "persist/budget_ledger.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

DynamicGraph ServiceGraph() {
  Rng rng(5);
  auto weights = PowerLawWeights(500, 2.2);
  auto g = ChungLu(weights, weights, 2500, /*directed=*/false, rng);
  return DynamicGraph(*g);
}

ServiceOptions DefaultOptions() {
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 2.0;
  options.cache_capacity = 64;
  return options;
}

TEST(ServiceTest, ServesUntilBudgetExhausted) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(7);
  const NodeId user = 0;
  // Budget 2.0 at 0.5 per release = exactly 4 answers.
  for (int i = 0; i < 4; ++i) {
    auto rec = service.ServeRecommendation(user, rng);
    EXPECT_TRUE(rec.ok()) << "release " << i << ": "
                          << rec.status().ToString();
  }
  auto fifth = service.ServeRecommendation(user, rng);
  EXPECT_TRUE(fifth.status().IsFailedPrecondition());
  EXPECT_EQ(service.stats().served, 4u);
  EXPECT_EQ(service.stats().refused_budget, 1u);
  EXPECT_NEAR(service.RemainingBudget(user), 0.0, 1e-9);
}

TEST(ServiceTest, BudgetsAreProperlyPerUser) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(9);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  }
  EXPECT_FALSE(service.ServeRecommendation(0, rng).ok());
  // A different user is unaffected.
  EXPECT_TRUE(service.ServeRecommendation(1, rng).ok());
  EXPECT_NEAR(service.RemainingBudget(1), 1.5, 1e-9);
  EXPECT_NEAR(service.RemainingBudget(2), 2.0, 1e-9);  // never served
}

TEST(ServiceTest, CacheHitsOnRepeatQueries) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(11);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().cache_hits, 2u);
}

TEST(ServiceTest, MutationRepairsOnlyAffectedUsers) {
  // Delta-patched repair (the default): after a toggle incident to a
  // cached user, that user's next serve patches the entry in place (a
  // cache hit, O(Δ)); an unaffected cached user is kept wholesale.
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(13);
  // Warm the cache for two users.
  const NodeId user_a = 0;
  ASSERT_TRUE(service.ServeRecommendation(user_a, rng).ok());
  // Pick user_b far from user_a: not adjacent, no shared neighbor edit.
  NodeId user_b = 1;
  CsrGraph snap = graph.Snapshot();
  for (NodeId v = 1; v < snap.num_nodes(); ++v) {
    if (v != user_a && !snap.HasEdge(user_a, v)) {
      user_b = v;
      break;
    }
  }
  ASSERT_TRUE(service.ServeRecommendation(user_b, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, 2u);

  // Mutate an edge incident to user_a.
  NodeId endpoint = kUnresolvedZeroNode;
  for (NodeId w = 1; w < snap.num_nodes(); ++w) {
    if (w != user_a && w != user_b && !snap.HasEdge(user_a, w) &&
        !snap.HasEdge(user_b, w)) {
      endpoint = w;
      break;
    }
  }
  ASSERT_NE(endpoint, kUnresolvedZeroNode);
  ASSERT_TRUE(service.AddEdge(user_a, endpoint).ok());
  // Query a again: its entry alone is recomputed (a miss).
  const uint64_t misses_before = service.stats().cache_misses;
  ASSERT_TRUE(service.ServeRecommendation(user_a, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, misses_before + 1);
  EXPECT_EQ(service.stats().delta_recomputed, 1u);
  EXPECT_EQ(service.stats().delta_patched, 0u);
  // Query b (whose watched set the toggle avoided): kept wholesale.
  ASSERT_TRUE(service.ServeRecommendation(user_b, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, misses_before + 1);
  EXPECT_EQ(service.stats().delta_kept, 1u);
  EXPECT_EQ(service.stats().cache_invalidations, 0u);
}

TEST(ServiceTest, BaselineModeRecomputesStaleEntries) {
  // With journaling off, a version change costs every cached entry a full
  // recompute on its next visit — the pre-incremental baseline the
  // differential tests compare against.
  DynamicGraph graph = ServiceGraph();
  graph.SetJournalCapacity(0);
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(13);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.AddEdge(0, 7).ok() || service.RemoveEdge(0, 7).ok());
  const uint64_t misses_before = service.stats().cache_misses;
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, misses_before + 1);
  EXPECT_EQ(service.stats().cache_invalidations, 1u);
  EXPECT_EQ(service.stats().delta_recomputed, 0u);
  EXPECT_EQ(service.stats().delta_kept, 0u);
}

TEST(ServiceTest, ServeListChargesOnceAndReturnsKPicks) {
  DynamicGraph graph = ServiceGraph();
  ServiceOptions options = DefaultOptions();
  options.per_user_budget = 1.0;
  options.release_epsilon = 1.0;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(17);
  auto list = service.ServeList(0, 3, rng);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->picks.size(), 3u);
  // Budget gone after one list.
  EXPECT_FALSE(service.ServeList(0, 3, rng).ok());
}

// One budget state, driven through both release shapes.
struct BudgetCase {
  const char* name;
  double per_user_budget;
  BudgetWindowPolicy window;
  /// Requests served before the ledger is crashed (-1: never).
  int crash_ledger_after;
  int requests;
  /// Final counters every shape must reach.
  uint64_t served;
  uint64_t refused_budget;
  uint64_t refused_window;
  uint64_t degraded_serves;
};

BudgetWindowPolicy Window(double refresh_epsilon,
                          BudgetWindowPolicy::Exhaustion exhaustion) {
  BudgetWindowPolicy window;
  window.enabled = true;
  window.window_length = 4;
  window.refresh_epsilon = refresh_epsilon;
  window.exhaustion = exhaustion;
  window.degrade_factor = 4.0;
  return window;
}

TEST(ServiceTest, SingleAndListServesMakeTheSameBudgetDecisions) {
  // A single pick and a k-slot list spend the same release_epsilon by
  // sequential composition, so every budget decision must come out the
  // same for both shapes: each case drives one service with
  // ServeRecommendation and an identical twin with ServeList, request by
  // request, and compares status codes, budget counters and spend. Every
  // service writes a durable ledger, so ledger_appends is compared too.
  using Exhaustion = BudgetWindowPolicy::Exhaustion;
  const BudgetCase cases[] = {
      // 0.5 per release against 1.0: two releases, then lifetime refusals.
      {"lifetime_exhausted", 1.0, {}, -1, 4, 2, 2, 0, 0},
      // One full release per 4-request window, the rest refused.
      {"window_reject", 100.0, Window(0.5, Exhaustion::kReject), -1, 8, 2,
       0, 6, 0},
      // Per window: one full release, two at 0.5 / 4, then a refusal.
      {"window_degrade_affordable", 100.0,
       Window(0.75, Exhaustion::kDegrade), -1, 8, 6, 0, 2, 4},
      // The degraded 0.125 no longer fits the 0.5 window either.
      {"window_degrade_unaffordable", 100.0,
       Window(0.5, Exhaustion::kDegrade), -1, 8, 2, 0, 6, 0},
      // A crashed ledger fails the charge, so nothing is released.
      {"ledger_crashed", 100.0, {}, 2, 4, 2, 0, 0, 0},
  };
  const NodeId user = 0;
  for (const BudgetCase& c : cases) {
    SCOPED_TRACE(c.name);
    DynamicGraph single_graph = ServiceGraph();
    DynamicGraph list_graph = ServiceGraph();
    auto open_ledger = [&](const std::string& shape) {
      const std::string dir = ::testing::TempDir() + "/privrec_parity_" +
                              c.name + "_" + shape;
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      auto ledger = BudgetLedger::Open(dir);
      EXPECT_TRUE(ledger.ok()) << ledger.status().ToString();
      return std::move(ledger).ValueOrDie();
    };
    std::unique_ptr<BudgetLedger> single_ledger = open_ledger("single");
    std::unique_ptr<BudgetLedger> list_ledger = open_ledger("list");
    ServiceOptions options = DefaultOptions();
    options.per_user_budget = c.per_user_budget;
    options.budget_window = c.window;
    options.budget_ledger = single_ledger.get();
    RecommendationService single(
        &single_graph, std::make_unique<CommonNeighborsUtility>(), options);
    options.budget_ledger = list_ledger.get();
    RecommendationService list(
        &list_graph, std::make_unique<CommonNeighborsUtility>(), options);
    Rng single_rng(41);
    Rng list_rng(41);
    for (int r = 0; r < c.requests; ++r) {
      SCOPED_TRACE(::testing::Message() << "request " << r);
      if (r == c.crash_ledger_after) {
        single_ledger->SimulateCrash();
        list_ledger->SimulateCrash();
      }
      const double remaining = single.RemainingBudget(user);
      const double window_spent = single.WindowSpent(user);
      const Status single_status =
          single.ServeRecommendation(user, single_rng).status();
      const Status list_status = list.ServeList(user, 3, list_rng).status();
      ASSERT_EQ(single_status.code(), list_status.code())
          << single_status.ToString() << " vs " << list_status.ToString();
      const ServiceStats a = single.stats();
      const ServiceStats b = list.stats();
      EXPECT_EQ(a.served, b.served);
      EXPECT_EQ(a.refused_budget, b.refused_budget);
      EXPECT_EQ(a.refused_window, b.refused_window);
      EXPECT_EQ(a.degraded_serves, b.degraded_serves);
      EXPECT_EQ(a.window_refreshes, b.window_refreshes);
      EXPECT_EQ(a.ledger_appends, b.ledger_appends);
      EXPECT_EQ(single.RemainingBudget(user), list.RemainingBudget(user));
      EXPECT_EQ(single.WindowSpent(user), list.WindowSpent(user));
      if (!single_status.ok()) {
        // A refusal charges nothing; a window rollover may only lower the
        // window spend.
        EXPECT_EQ(single.RemainingBudget(user), remaining);
        EXPECT_LE(single.WindowSpent(user), window_spent);
      }
    }
    const ServiceStats stats = list.stats();
    EXPECT_EQ(stats.served, c.served);
    EXPECT_EQ(stats.refused_budget, c.refused_budget);
    EXPECT_EQ(stats.refused_window, c.refused_window);
    EXPECT_EQ(stats.degraded_serves, c.degraded_serves);
    EXPECT_EQ(stats.window_refreshes, c.window.enabled ? 1u : 0u);
    EXPECT_EQ(stats.ledger_appends, c.served);
  }
}

TEST(ServiceTest, RejectsUnknownUser) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(19);
  EXPECT_TRUE(service.ServeRecommendation(graph.num_nodes(), rng)
                  .status()
                  .IsInvalidArgument());
}

TEST(ServiceTest, CacheEvictionKeepsServing) {
  DynamicGraph graph = ServiceGraph();
  ServiceOptions options = DefaultOptions();
  options.cache_capacity = 4;
  options.per_user_budget = 100.0;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(23);
  for (NodeId user = 0; user < 20; ++user) {
    auto rec = service.ServeRecommendation(user, rng);
    EXPECT_TRUE(rec.ok()) << "user " << user;
  }
  EXPECT_EQ(service.stats().cache_misses, 20u);
}

TEST(ServiceTest, NoSnapshotRebuildOnUnmutatedGraph) {
  // Acceptance criterion of the batch-serving fast path: the service must
  // not construct a CsrGraph on cache hits, nor on cache misses against an
  // unmutated graph — every call shares the DynamicGraph's one cached
  // snapshot instance.
  DynamicGraph graph = ServiceGraph();
  ServiceOptions options = DefaultOptions();
  options.per_user_budget = 100.0;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  auto snapshot = graph.SharedSnapshot();  // build #1, pinned by the test
  ASSERT_EQ(graph.snapshot_builds(), 1u);
  Rng rng(37);
  for (NodeId user = 0; user < 10; ++user) {   // 10 cache misses
    ASSERT_TRUE(service.ServeRecommendation(user, rng).ok());
    ASSERT_TRUE(service.ServeRecommendation(user, rng).ok());  // + a hit
  }
  ASSERT_TRUE(service.ServeList(3, 5, rng).ok());
  // Still the same single build; pointer identity across all serving.
  EXPECT_EQ(graph.snapshot_builds(), 1u);
  EXPECT_EQ(graph.SharedSnapshot().get(), snapshot.get());

  // A mutation publishes exactly one new snapshot before it returns — a
  // block-shared splice of the previous CSR, not a rebuild — and the
  // serving that follows publishes nothing.
  ASSERT_TRUE(service.AddEdge(0, graph.num_nodes() - 1).ok() ||
              service.RemoveEdge(0, graph.num_nodes() - 1).ok());
  EXPECT_EQ(graph.snapshot_builds(), 1u);
  EXPECT_EQ(graph.snapshot_patches(), 1u);
  ASSERT_TRUE(service.ServeRecommendation(5, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(6, rng).ok());
  EXPECT_EQ(graph.snapshot_builds(), 1u);
  EXPECT_EQ(graph.snapshot_patches(), 1u);
  EXPECT_NE(graph.SharedSnapshot().get(), snapshot.get());
}

// ---------------------------------------------------------- node-DP audit

TEST(NodeDpAuditTest, NodeLevelLeakExceedsEdgeLevelLeak) {
  // Appendix A: node rewiring is a far stronger adversary move than one
  // edge. The sampled node audit must therefore observe at least the edge
  // audit's worst ratio (and typically much more).
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  ExponentialMechanism mech(1.0, cn.SensitivityBound(g));
  auto edge_audit = AuditEdgeDp(g, cn, mech, 0);
  ASSERT_TRUE(edge_audit.ok());
  Rng rng(29);
  auto node_audit = AuditNodeDpSampled(g, cn, mech, 0,
                                       /*rewirings_per_node=*/40, rng);
  ASSERT_TRUE(node_audit.ok());
  EXPECT_GT(node_audit->pairs_checked, 0u);
  EXPECT_GE(node_audit->max_abs_log_ratio,
            edge_audit->max_abs_log_ratio - 1e-9);
}

TEST(NodeDpAuditTest, RejectsBadTarget) {
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  ExponentialMechanism mech(1.0, 2.0);
  Rng rng(31);
  EXPECT_TRUE(AuditNodeDpSampled(g, cn, mech, 99, 5, rng)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace privrec
