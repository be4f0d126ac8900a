// Deterministic fault injection (serve/fault_injection.h) and the
// degradation ladder it drives. Three layers under test:
//  - the injector's counter-deterministic schedule semantics
//    (period/skip/max_fires, one-consumer-per-rule, Install/Clear);
//  - the graph-layer hooks (journal compaction, snapshot / projection
//    patch failure) forcing the rebuild routes they document;
//  - the service-level contracts: equal seeds + equal plans serve
//    identical sequences, every forced fallback stays byte-identical to
//    the clean service (faults reroute, they never change answers), and
//    the bounded-retry wrapper absorbs transient injected failures
//    budget-neutrally.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/fixtures.h"
#include "gen/generators.h"
#include "graph/degree_cap.h"
#include "graph/dynamic_graph.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

TEST(FaultInjectorTest, DisarmedInjectorNeverFires) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  for (FaultPoint point : kAllFaultPoints) {
    EXPECT_FALSE(injector.ShouldFire(point));
  }
  EXPECT_FALSE(injector.ShouldFailServe().has_value());
  EXPECT_EQ(injector.total_fires(), 0u);
  // A plan with nothing enabled must leave the injector disarmed too.
  injector.Install(FaultPlan{});
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, PeriodSkipAndMaxFiresShapeTheSchedule) {
  FaultInjector injector;
  FaultPlan plan;
  plan.Enable(FaultPoint::kRepairFail, /*period=*/3, /*skip=*/2,
              /*max_fires=*/2);
  injector.Install(plan);
  std::vector<int> fired_at;
  for (int eval = 0; eval < 12; ++eval) {
    if (injector.ShouldFire(FaultPoint::kRepairFail)) fired_at.push_back(eval);
  }
  // Evaluations 0-1 pass unharmed (skip), then every 3rd fires until the
  // 2-fire cap silences the rule: exactly {2, 5}.
  EXPECT_EQ(fired_at, (std::vector<int>{2, 5}));
  EXPECT_EQ(injector.fires(FaultPoint::kRepairFail), 2u);
  EXPECT_EQ(injector.total_fires(), 2u);
  EXPECT_EQ(injector.fires(FaultPoint::kShardStall), 0u);
}

TEST(FaultInjectorTest, FailServeRulesOnlyFireAtTheAdmissionHook) {
  FaultInjector injector;
  FaultPlan plan;
  plan.FailServe(FaultPoint::kSnapshotPatchFail);
  injector.Install(plan);
  // The reroute hook must ignore fail_serve rules entirely (no fire, no
  // counter consumption) — each rule has exactly one consumer.
  EXPECT_FALSE(injector.ShouldFire(FaultPoint::kSnapshotPatchFail));
  std::optional<FaultPoint> point = injector.ShouldFailServe();
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(*point, FaultPoint::kSnapshotPatchFail);
  EXPECT_EQ(injector.fires(FaultPoint::kSnapshotPatchFail), 1u);
  // And vice versa: a reroute rule is invisible to the admission hook.
  FaultPlan reroute;
  reroute.Enable(FaultPoint::kRepairFail);
  injector.Install(reroute);
  EXPECT_FALSE(injector.ShouldFailServe().has_value());
  EXPECT_TRUE(injector.ShouldFire(FaultPoint::kRepairFail));
}

TEST(FaultInjectorTest, InstallResetsCountersAndClearDisarms) {
  FaultInjector injector;
  FaultPlan plan;
  plan.Enable(FaultPoint::kShardStall);
  injector.Install(plan);
  EXPECT_TRUE(injector.ShouldFire(FaultPoint::kShardStall));
  EXPECT_TRUE(injector.ShouldFire(FaultPoint::kShardStall));
  EXPECT_EQ(injector.fires(FaultPoint::kShardStall), 2u);
  EXPECT_EQ(injector.plan(), plan);
  injector.Install(plan);  // reinstall resets the schedule
  EXPECT_EQ(injector.fires(FaultPoint::kShardStall), 0u);
  injector.Clear();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.ShouldFire(FaultPoint::kShardStall));
  EXPECT_EQ(injector.plan(), FaultPlan{});
}

TEST(FaultInjectorTest, NamesRoundTripForEveryPoint) {
  for (FaultPoint point : kAllFaultPoints) {
    const char* name = FaultPointName(point);
    std::optional<FaultPoint> parsed = FaultPointFromName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, point) << name;
  }
  EXPECT_FALSE(FaultPointFromName("no_such_fault").has_value());
}

TEST(FaultInjectorTest, EqualPlansDrivenEquallyFireIdentically) {
  // The determinism contract at the injector layer: two injectors with
  // equal plans observing equal call sequences produce identical firing
  // sequences and counters — no clocks, no randomness.
  FaultPlan plan;
  plan.Enable(FaultPoint::kJournalCompaction, /*period=*/3);
  plan.Enable(FaultPoint::kRepairFail, /*period=*/2, /*skip=*/1);
  plan.FailServe(FaultPoint::kShardStall, /*period=*/5);
  FaultInjector a, b;
  a.Install(plan);
  b.Install(plan);
  std::vector<uint64_t> trace_a, trace_b;
  Rng script(99);
  for (int i = 0; i < 200; ++i) {
    switch (script.NextBounded(3)) {
      case 0:
        trace_a.push_back(a.ShouldFire(FaultPoint::kJournalCompaction));
        trace_b.push_back(b.ShouldFire(FaultPoint::kJournalCompaction));
        break;
      case 1:
        trace_a.push_back(a.ShouldFire(FaultPoint::kRepairFail));
        trace_b.push_back(b.ShouldFire(FaultPoint::kRepairFail));
        break;
      default:
        trace_a.push_back(a.ShouldFailServe().has_value());
        trace_b.push_back(b.ShouldFailServe().has_value());
        break;
    }
  }
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(a.total_fires(), b.total_fires());
  for (FaultPoint point : kAllFaultPoints) {
    EXPECT_EQ(a.fires(point), b.fires(point));
  }
}

// --------------------------------------------------------- graph hooks

TEST(GraphFaultPointsTest, SnapshotPatchFailForcesFullRebuild) {
  Rng rng(5);
  auto base = ErdosRenyiGnm(40, 80, /*directed=*/false, rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  FaultInjector injector;
  graph.SetFaultInjector(&injector);

  // Control: with the injector disarmed a single-edge mutation publishes
  // via the block-shared splice, not a rebuild — before it returns.
  const uint64_t patches_before = graph.snapshot_patches();
  const uint64_t builds_before = graph.snapshot_builds();
  ASSERT_TRUE(graph.AddEdge(0, 1).ok() || graph.RemoveEdge(0, 1).ok());
  ASSERT_EQ(graph.snapshot_patches(), patches_before + 1);
  ASSERT_EQ(graph.snapshot_builds(), builds_before);

  FaultPlan plan;
  plan.Enable(FaultPoint::kSnapshotPatchFail);
  injector.Install(plan);
  ASSERT_TRUE(graph.AddEdge(2, 3).ok() || graph.RemoveEdge(2, 3).ok());
  EXPECT_EQ(graph.snapshot_patches(), patches_before + 1);
  EXPECT_EQ(graph.snapshot_builds(), builds_before + 1)
      << "injected splice failure did not route onto the rebuild path";
  // Reading the published snapshot neither publishes nor fires.
  const DynamicGraph::StampedSnapshot snap = graph.VersionedSnapshot();
  EXPECT_EQ(snap.version, graph.version());
  EXPECT_EQ(graph.snapshot_builds(), builds_before + 1);
  EXPECT_EQ(injector.fires(FaultPoint::kSnapshotPatchFail), 1u);
  EXPECT_EQ(injector.graph_fires(), 1u);
}

TEST(GraphFaultPointsTest, JournalCompactionDoomsPinnedWindows) {
  Rng rng(6);
  auto base = ErdosRenyiGnm(40, 80, /*directed=*/false, rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  FaultInjector injector;
  graph.SetFaultInjector(&injector);
  const uint64_t pinned_version = graph.version();

  FaultPlan plan;
  plan.Enable(FaultPoint::kJournalCompaction);
  injector.Install(plan);
  ASSERT_TRUE(graph.AddEdge(4, 5).ok() || graph.RemoveEdge(4, 5).ok());
  // The injected compaction advanced the journal floor to the current
  // version: a reader pinned below it can no longer drain its window and
  // must take the full-recompute fallback.
  EXPECT_EQ(graph.journal_floor_version(), graph.version());
  EXPECT_FALSE(graph.EdgeDeltasBetween(pinned_version, graph.version()).ok());
  EXPECT_EQ(injector.fires(FaultPoint::kJournalCompaction), 1u);
}

TEST(GraphFaultPointsTest, ProjectionPatchFailForcesReprojection) {
  Rng rng(7);
  auto base = ErdosRenyiGnm(40, 120, /*directed=*/false, rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  FaultInjector injector;
  graph.SetFaultInjector(&injector);
  graph.SetDegreeCap(2);  // initial projection

  // Control: the projected companion follows a single-edge mutation via
  // the block-shared projection splice.
  const uint64_t ppatches_before = graph.projection_patches();
  const uint64_t pbuilds_before = graph.projection_builds();
  ASSERT_TRUE(graph.AddEdge(0, 1).ok() || graph.RemoveEdge(0, 1).ok());
  ASSERT_EQ(graph.projection_patches(), ppatches_before + 1);
  ASSERT_EQ(graph.projection_builds(), pbuilds_before);

  FaultPlan plan;
  plan.Enable(FaultPoint::kProjectionPatchFail);
  injector.Install(plan);
  ASSERT_TRUE(graph.AddEdge(2, 3).ok() || graph.RemoveEdge(2, 3).ok());
  EXPECT_EQ(graph.projection_builds(), pbuilds_before + 1)
      << "injected projection-splice failure did not force re-projection";
  const DynamicGraph::StampedSnapshot snap = graph.VersionedSnapshot();
  EXPECT_TRUE(snap.projected->Equals(ProjectDegreeCapped(*snap.graph, 2)));
  EXPECT_EQ(injector.fires(FaultPoint::kProjectionPatchFail), 1u);
}

// ------------------------------------------------------- service layer

ServiceOptions FaultServiceOptions(FaultInjector* injector) {
  ServiceOptions options;
  options.release_epsilon = 0.4;
  options.per_user_budget = 1e6;
  options.cache_capacity = 128;
  options.num_shards = 2;
  options.seed = 0xfa17ULL;
  options.fault_injector = injector;
  return options;
}

/// Drives `service` through a scripted mix of mutations, single serves,
/// and list serves (Rng-less overloads, so the shard streams are the only
/// randomness) and returns the full outcome trace: ok-ness and values of
/// every serve, flattened into one comparable vector.
std::vector<uint64_t> DriveScriptedTraffic(RecommendationService& service,
                                           NodeId num_users, int ops,
                                           uint64_t script_seed) {
  Rng script(script_seed);
  std::vector<uint64_t> trace;
  for (int op = 0; op < ops; ++op) {
    if (script.NextBernoulli(0.3)) {
      const NodeId a = static_cast<NodeId>(script.NextBounded(num_users));
      const NodeId b = static_cast<NodeId>(script.NextBounded(num_users));
      if (a == b) continue;
      const Status mutated = service.AddEdge(a, b).ok()
                                 ? Status::OK()
                                 : service.RemoveEdge(a, b);
      trace.push_back(mutated.ok() ? 1u : 0u);
    } else if (script.NextBernoulli(0.25)) {
      const NodeId user = static_cast<NodeId>(script.NextBounded(num_users));
      auto list = service.ServeList(user, 3);
      trace.push_back(list.ok() ? 1u : 0u);
      if (list.ok()) {
        for (const Recommendation& pick : list->picks) {
          trace.push_back(pick.node);
        }
      }
    } else {
      const NodeId user = static_cast<NodeId>(script.NextBounded(num_users));
      auto rec = service.ServeRecommendation(user);
      trace.push_back(rec.ok() ? 1u : 0u);
      if (rec.ok()) trace.push_back(*rec);
    }
  }
  return trace;
}

TEST(FaultDeterminismTest, EqualSeedsAndPlansServeIdenticalSequences) {
  // Satellite 3's contract: two services with equal seeds and equal
  // installed FaultPlans, driven by equal call sequences, serve identical
  // sequences — fault schedules included (the injectors must agree on
  // every fire).
  Rng gen(21);
  auto base = ErdosRenyiGnm(60, 150, /*directed=*/false, gen);
  ASSERT_TRUE(base.ok());
  FaultPlan plan;
  plan.Enable(FaultPoint::kRepairFail, /*period=*/2);
  plan.Enable(FaultPoint::kJournalCompaction, /*period=*/7);
  plan.Enable(FaultPoint::kSnapshotPatchFail, /*period=*/3);

  std::vector<uint64_t> traces[2];
  uint64_t fires[2];
  for (int run = 0; run < 2; ++run) {
    DynamicGraph graph(*base);
    FaultInjector injector;
    RecommendationService service(&graph,
                                  std::make_unique<CommonNeighborsUtility>(),
                                  FaultServiceOptions(&injector));
    injector.Install(plan);
    traces[run] = DriveScriptedTraffic(service, 60, 250, /*script_seed=*/77);
    fires[run] = injector.total_fires();
    EXPECT_GT(service.stats().injected_faults, 0u);
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(fires[0], fires[1]);
  EXPECT_GT(fires[0], 0u);
}

TEST(FaultDeterminismTest, RerouteFaultsServeByteIdenticalToCleanService) {
  // The capstone differential: every reroute fault forces an EXACT
  // fallback (recompute against the pinned snapshot, from-scratch
  // rebuild), so a fault-riddled service must serve byte-identical
  // outputs to a clean service with the same seeds. Faults change cost
  // and route — never answers.
  Rng gen(22);
  auto base = ErdosRenyiGnm(60, 150, /*directed=*/false, gen);
  ASSERT_TRUE(base.ok());

  DynamicGraph clean_graph(*base);
  RecommendationService clean_service(
      &clean_graph, std::make_unique<CommonNeighborsUtility>(),
      FaultServiceOptions(nullptr));

  DynamicGraph faulty_graph(*base);
  FaultInjector injector;
  RecommendationService faulty_service(
      &faulty_graph, std::make_unique<CommonNeighborsUtility>(),
      FaultServiceOptions(&injector));
  FaultPlan plan;
  plan.Enable(FaultPoint::kRepairFail, /*period=*/2);
  plan.Enable(FaultPoint::kSnapshotPatchFail, /*period=*/3);
  plan.Enable(FaultPoint::kJournalCompaction, /*period=*/10);
  injector.Install(plan);

  const auto clean_trace =
      DriveScriptedTraffic(clean_service, 60, 300, /*script_seed=*/31);
  const auto faulty_trace =
      DriveScriptedTraffic(faulty_service, 60, 300, /*script_seed=*/31);
  EXPECT_EQ(clean_trace, faulty_trace)
      << "a reroute-only fault plan changed served outputs: some fallback "
         "is not exact";
  // The differential only certifies the fallbacks if they actually ran.
  const ServiceStats stats = faulty_service.stats();
  EXPECT_GT(stats.injected_faults, 0u);
  EXPECT_GT(stats.stale_fallback_serves, 0u);
  EXPECT_EQ(clean_service.stats().injected_faults, 0u);
}

TEST(FaultDeterminismTest, JournalCompactionUnderPinnedWindowFallsBackExactly) {
  // Regression pin for the "journal undersized under a pinned window"
  // incident: a cached entry pinned below an injected compaction must
  // land in journal_fallbacks (counted as a forced stale_fallback serve)
  // and still release the exact answer the clean service releases.
  Rng gen(23);
  auto base = ErdosRenyiGnm(50, 120, /*directed=*/false, gen);
  ASSERT_TRUE(base.ok());

  DynamicGraph clean_graph(*base);
  DynamicGraph faulty_graph(*base);
  FaultInjector injector;
  ServiceOptions options = FaultServiceOptions(nullptr);
  options.num_shards = 1;
  RecommendationService clean_service(
      &clean_graph, std::make_unique<CommonNeighborsUtility>(), options);
  options.fault_injector = &injector;
  RecommendationService faulty_service(
      &faulty_graph, std::make_unique<CommonNeighborsUtility>(), options);

  // Warm user 0's cache entry on both sides (pinning its version).
  auto clean_warm = clean_service.ServeRecommendation(0);
  auto faulty_warm = faulty_service.ServeRecommendation(0);
  ASSERT_TRUE(clean_warm.ok());
  ASSERT_TRUE(faulty_warm.ok());
  ASSERT_EQ(*clean_warm, *faulty_warm);

  // Every mutation now compacts the faulty journal to the current
  // version, dooming the pinned entry's window.
  FaultPlan plan;
  plan.Enable(FaultPoint::kJournalCompaction);
  injector.Install(plan);
  for (NodeId v = 10; v < 14; ++v) {
    ASSERT_TRUE(clean_service.AddEdge(0, v).ok() ||
                clean_service.RemoveEdge(0, v).ok());
    ASSERT_TRUE(faulty_service.AddEdge(0, v).ok() ||
                faulty_service.RemoveEdge(0, v).ok());
  }

  auto clean_rec = clean_service.ServeRecommendation(0);
  auto faulty_rec = faulty_service.ServeRecommendation(0);
  ASSERT_TRUE(clean_rec.ok());
  ASSERT_TRUE(faulty_rec.ok());
  EXPECT_EQ(*clean_rec, *faulty_rec)
      << "the journal-fallback recompute released a different answer";
  const ServiceStats stats = faulty_service.stats();
  EXPECT_GT(stats.journal_fallbacks, 0u)
      << "the injected compaction never doomed the pinned window";
  EXPECT_GT(stats.stale_fallback_serves, 0u);
  EXPECT_EQ(clean_service.stats().journal_fallbacks, 0u);
}

TEST(FaultRetryTest, BoundedRetriesAbsorbTransientInjectedFailures) {
  DynamicGraph graph(MakeDirectedAuditFixture());
  FaultInjector injector;
  ServiceOptions options = FaultServiceOptions(&injector);
  options.retry.max_retries = 2;
  options.retry.backoff_micros = 1;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);

  // One transient failure, then clean: the retry wrapper must absorb it.
  FaultPlan plan;
  plan.FailServe(FaultPoint::kShardStall, /*period=*/1, /*skip=*/0,
                 /*max_fires=*/1);
  injector.Install(plan);
  const double budget_before = service.RemainingBudget(0);
  auto rec = service.ServeRecommendation(0);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.injected_faults, 1u);
  // Exactly one successful release was charged — the refused attempt
  // spent nothing.
  EXPECT_DOUBLE_EQ(service.RemainingBudget(0),
                   budget_before - options.release_epsilon);
}

TEST(FaultRetryTest, ExhaustedRetriesSurfaceUnavailableBudgetNeutrally) {
  DynamicGraph graph(MakeDirectedAuditFixture());
  FaultInjector injector;
  ServiceOptions options = FaultServiceOptions(&injector);
  options.retry.max_retries = 1;
  options.retry.backoff_micros = 1;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);

  // Unbounded transient failure: retries run out, the serve surfaces
  // kUnavailable, and no budget moves.
  FaultPlan plan;
  plan.FailServe(FaultPoint::kRepairFail);
  injector.Install(plan);
  auto rec = service.ServeRecommendation(0);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsUnavailable()) << rec.status().ToString();
  EXPECT_DOUBLE_EQ(service.RemainingBudget(0), options.per_user_budget);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.injected_faults, 2u);  // original attempt + one retry
  EXPECT_EQ(stats.served, 0u);
}

TEST(FaultStatsTest, InjectedFaultsFoldServeAndGraphLayerFires) {
  // ServiceStats::injected_faults is the whole-stack counter: per-shard
  // serve-path fires plus the injector's graph-layer fires, folded once
  // by stats().
  Rng gen(29);
  auto base = ErdosRenyiGnm(40, 100, /*directed=*/false, gen);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  FaultInjector injector;
  RecommendationService service(&graph,
                                std::make_unique<CommonNeighborsUtility>(),
                                FaultServiceOptions(&injector));
  FaultPlan plan;
  plan.Enable(FaultPoint::kRepairFail, /*period=*/2);
  plan.Enable(FaultPoint::kJournalCompaction, /*period=*/3);
  injector.Install(plan);
  (void)DriveScriptedTraffic(service, 40, 200, /*script_seed=*/91);
  const ServiceStats stats = service.stats();
  EXPECT_GT(injector.fires(FaultPoint::kJournalCompaction), 0u);
  EXPECT_GT(injector.fires(FaultPoint::kRepairFail), 0u);
  EXPECT_EQ(stats.injected_faults, injector.total_fires());
}

}  // namespace
}  // namespace privrec
