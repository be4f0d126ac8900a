// Fault/degradation matrix: what each injected fault point costs the
// serve path, what the overload ladder does to tail traffic, and — the
// part CI gates on — whether every degraded route still releases at
// epsilon-hat <= epsilon. Three modes:
//
//   (default)   perf matrix: one row per fault point (clean first), each
//               a warm-cache mutate/serve mix with that point's fallback
//               route forced throughout, plus an 8-thread overload-ladder
//               row (stalled shards + admission control + budget-aware
//               shedding; per-user budget accounting is CHECKED exact
//               after the hammering, so the bench doubles as a gate).
//   --audit     additionally runs ServiceAuditor::AuditPairUnderFaults
//               once per fault point (plus a retry-absorbed fail-serve
//               case) and exits non-zero when any audit errors or
//               certifies a violation — the ci/sanitize.sh --faults gate.
//   --inject=P  gate self-test (audit machinery only, no matrix, no
//               JSON): fault point P is armed as a fail_serve rule with
//               retries DISABLED, so the audit must refuse to certify
//               (every trial's serve fails) and the binary exits
//               non-zero. ci/sanitize.sh --faults runs this first and
//               fails CI if the exit code is ZERO — before trusting the
//               gate, prove it can fail.
//   --inject-recovery=P
//               recovery gate self-test: crash point P is armed for
//               AuditAcrossRecovery WITHOUT recovery compensation. For
//               ledger_partial_append the recovered spend under-counts
//               the pre-crash charges, the audit must REFUSE
//               (FailedPrecondition), and the binary exits non-zero —
//               ci/sanitize.sh --durability's proof the refusal gate
//               can fail.
//
// The default matrix additionally measures the recovery rows: checkpoint
// write cost, WAL replay throughput, and total recovery time vs
// journal-window size (deltas accumulated past the last checkpoint).
// --audit also runs one AuditAcrossRecovery per crash point: the
// recoverable points must certify eps-hat <= eps with the crash actually
// fired, and the ledger tear must be refused.
//
// Output: tables, plus (with --json=PATH) a machine-readable dump;
// BENCH_fault_matrix.json in the repo root is a checked-in --audit run
// (refreshed by ci/sanitize.sh --faults and --durability).
//
// Flags (defaults sized for the 1-vCPU CI container):
//   --users=U     warm-cache users per matrix row (default 200)
//   --ops=K       operations per matrix row, ~10% writes (default 6000)
//   --threads=T   overload-ladder hammer threads (default 8)
//   --trials=N    audit trials per side per fault point (default 1200)
//   --audit       run the audited-degradation + audited-recovery gates
//   --inject=P    fail-serve self-test for fault point P (see above)
//   --inject-recovery=P  recovery refusal self-test (see above)
//   --json=PATH   write results as JSON

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_support.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/service_auditor.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "gen/neighboring.h"
#include "graph/dynamic_graph.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"
#include "utility/link_predictors.h"

namespace privrec {
namespace bench {
namespace {

// ------------------------------------------------------------ perf matrix

struct MatrixRow {
  std::string name;
  bool node_model = false;
  double median_serve_us = 0;
  double serves_per_sec = 0;
  uint64_t served = 0;
  uint64_t fires = 0;
  ServiceStats stats;
};

double Median(std::vector<double> values) {
  PRIVREC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

CsrGraph MatrixGraph() {
  Rng rng(kWikiSeed);
  auto weights = PowerLawWeights(4000, 2.2);
  auto graph = ChungLu(weights, weights, 20000, /*directed=*/false, rng);
  PRIVREC_CHECK_OK(graph.status());
  return *graph;
}

bool ToggleRandomEdge(RecommendationService& service, DynamicGraph& graph,
                      NodeId nodes, Rng& rng) {
  const NodeId u = static_cast<NodeId>(rng.NextBounded(nodes));
  const NodeId v = static_cast<NodeId>(rng.NextBounded(nodes));
  if (u == v) return false;
  const Status status = graph.HasEdge(u, v) ? service.RemoveEdge(u, v)
                                            : service.AddEdge(u, v);
  return status.ok();
}

/// One matrix row: warm `users` caches, install `plan`, then run `ops`
/// operations of a ~10%-write mutate/serve mix single-threaded, so the
/// fault's cost shows up as fallback work (full rebuilds, recomputes,
/// stalls), not lock contention. Node-model rows run the degree-capped
/// projection stack — the only place kProjectionPatchFail has a route to
/// force.
MatrixRow MeasureRow(const CsrGraph& base, const std::string& name,
                     const FaultPlan& plan, bool node_model, NodeId users,
                     uint64_t ops, uint64_t seed) {
  DynamicGraph graph(base);
  FaultInjector injector;
  ServiceOptions options;
  options.release_epsilon = 0.1;
  options.per_user_budget = 1e9;  // degradation, not refusal, is measured
  options.cache_capacity = 1 << 15;
  options.num_shards = 8;
  options.seed = seed;
  options.fault_injector = &injector;
  if (node_model) {
    options.privacy_model = PrivacyModel::kNode;
    options.degree_cap = 8;
  }
  std::unique_ptr<UtilityFunction> utility;
  if (node_model) {
    utility = std::make_unique<ResourceAllocationUtility>();
  } else {
    utility = std::make_unique<CommonNeighborsUtility>();
  }
  RecommendationService service(&graph, std::move(utility), options);
  for (NodeId user = 0; user < users; ++user) {
    (void)service.ServeRecommendation(user);
  }
  injector.Install(plan);

  Rng rng(seed * 9176 + 11);
  std::vector<double> serve_us;
  serve_us.reserve(ops);
  Stopwatch total;
  MatrixRow row;
  row.name = name;
  row.node_model = node_model;
  for (uint64_t op = 0; op < ops; ++op) {
    if (rng.NextBounded(10) == 0) {
      ToggleRandomEdge(service, graph, base.num_nodes(), rng);
      continue;
    }
    const NodeId user = static_cast<NodeId>(rng.NextBounded(users));
    Stopwatch watch;
    auto rec = service.ServeRecommendation(user);
    if (rec.ok()) {
      serve_us.push_back(watch.ElapsedSeconds() * 1e6);
      ++row.served;
    }
  }
  const double seconds = total.ElapsedSeconds();
  row.median_serve_us = Median(std::move(serve_us));
  row.serves_per_sec = static_cast<double>(row.served) / seconds;
  row.fires = injector.total_fires();
  row.stats = service.stats();
  return row;
}

/// The overload-ladder row: `threads` hammer threads against 2 stalled
/// shards with admission control and budget-aware shedding armed. Reports
/// the OK-serve median and aggregate throughput, then CHECKS the
/// invariant the ladder exists for: every user's remaining budget is
/// EXACTLY budget - served * epsilon — sheds, stalls and retries spend
/// nothing (0.25 sums exactly in binary, so this is equality, not
/// tolerance).
MatrixRow MeasureOverloadLadder(int threads, int requests_per_thread,
                                uint64_t seed) {
  constexpr NodeId kUsers = 32;
  Rng gen(seed);
  auto base = ErdosRenyiGnm(64, 220, /*directed=*/false, gen);
  PRIVREC_CHECK_OK(base.status());
  DynamicGraph graph(*base);
  FaultInjector injector;
  ServiceOptions options;
  options.release_epsilon = 0.25;
  options.per_user_budget = 1e4;
  options.num_shards = 2;
  options.seed = seed;
  options.fault_injector = &injector;
  options.overload.enabled = true;
  options.overload.max_inflight_per_shard = 1;
  options.overload.max_queue_depth = 5;
  options.overload.shed_budget_fraction = 0.5;
  options.retry.max_retries = 1;
  options.retry.backoff_micros = 5;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  FaultPlan plan;
  plan.Enable(FaultPoint::kShardStall);
  plan.rule(FaultPoint::kShardStall).stall_micros = 100;
  injector.Install(plan);

  std::vector<std::vector<double>> per_thread_us(threads);
  std::atomic<uint64_t> served_per_user[kUsers] = {};
  std::atomic<uint64_t> total_ok{0};
  Stopwatch total;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      per_thread_us[t].reserve(requests_per_thread);
      for (int q = 0; q < requests_per_thread; ++q) {
        const NodeId user =
            static_cast<NodeId>((t * requests_per_thread + q) % kUsers);
        Stopwatch watch;
        auto rec = service.ServeRecommendation(user);
        if (rec.ok()) {
          per_thread_us[t].push_back(watch.ElapsedSeconds() * 1e6);
          ++served_per_user[user];
          ++total_ok;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double seconds = total.ElapsedSeconds();
  for (NodeId user = 0; user < kUsers; ++user) {
    const double expected =
        options.per_user_budget -
        static_cast<double>(served_per_user[user].load()) *
            options.release_epsilon;
    PRIVREC_CHECK(service.RemainingBudget(user) == expected)
        << "budget accounting drifted under overload for user " << user;
  }
  MatrixRow row;
  row.name = "overload_ladder";
  std::vector<double> all_us;
  for (auto& us : per_thread_us) {
    all_us.insert(all_us.end(), us.begin(), us.end());
  }
  row.median_serve_us = Median(std::move(all_us));
  row.served = total_ok.load();
  row.serves_per_sec = static_cast<double>(row.served) / seconds;
  row.fires = injector.total_fires();
  row.stats = service.stats();
  return row;
}

struct MatrixCase {
  const char* name;
  FaultPoint point;
  uint32_t period;
  bool node_model;
  uint32_t stall_micros;
};

// Periods chosen so every row's fallback route dominates without turning
// the run into a pure fault microbenchmark: patch failures fire on every
// mutation, compaction and repair abandonment every few.
constexpr MatrixCase kMatrixCases[] = {
    {"journal_compaction", FaultPoint::kJournalCompaction, 3, false, 0},
    {"snapshot_patch_fail", FaultPoint::kSnapshotPatchFail, 1, false, 0},
    {"projection_patch_fail", FaultPoint::kProjectionPatchFail, 1, true, 0},
    {"repair_fail", FaultPoint::kRepairFail, 2, false, 0},
    {"shard_stall", FaultPoint::kShardStall, 1, false, 25},
};

FaultPlan CasePlan(const MatrixCase& c) {
  FaultPlan plan;
  plan.Enable(c.point, c.period);
  plan.rule(c.point).stall_micros = c.stall_micros;
  return plan;
}

// ----------------------------------------------------------- recovery rows

struct RecoveryRow {
  uint64_t journal_window = 0;     // WAL deltas accumulated past checkpoint
  double checkpoint_write_us = 0;  // SaveCheckpoint (snapshot+manifest+trunc)
  double recover_graph_us = 0;     // manifest + .prvg load + WAL replay
  double total_recovery_us = 0;    // + WAL open + ledger open/fold
  double replay_deltas_per_sec = 0;
  uint64_t replayed = 0;
};

std::string RecoveryScratchDir(const std::string& tag) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / ("privrec_fault_matrix_" + tag)).string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

/// One recovery row: a durable service checkpoints, accumulates `window`
/// edge deltas in the WAL past it (plus charged serves so the ledger has
/// spend to recover), then every in-memory structure is dropped and
/// recovery is timed cold: WAL open (torn-tail scan), RecoverGraph
/// (checkpoint load + strict replay), ledger open + spend fold.
RecoveryRow MeasureRecoveryRow(const CsrGraph& base, uint64_t window,
                               uint64_t seed) {
  const std::string dir =
      RecoveryScratchDir("recovery_" + std::to_string(window));
  auto wal = WriteAheadLog::Open(dir + "/wal");
  PRIVREC_CHECK_OK(wal.status());
  auto ledger = BudgetLedger::Open(dir + "/ledger");
  PRIVREC_CHECK_OK(ledger.status());
  auto graph = std::make_unique<DynamicGraph>(base);
  ServiceOptions options;
  options.release_epsilon = 0.1;
  options.per_user_budget = 1e9;
  options.num_shards = 8;
  options.seed = seed;
  options.wal = wal->get();
  options.budget_ledger = ledger->get();
  auto service = std::make_unique<RecommendationService>(
      graph.get(), std::make_unique<CommonNeighborsUtility>(), options);
  for (NodeId user = 0; user < 32; ++user) {
    (void)service->ServeRecommendation(user);
  }

  RecoveryRow row;
  row.journal_window = window;
  Stopwatch checkpoint_watch;
  PRIVREC_CHECK_OK(service->SaveCheckpoint(dir));
  row.checkpoint_write_us = checkpoint_watch.ElapsedSeconds() * 1e6;

  Rng rng(seed * 31 + 7);
  uint64_t applied = 0;
  while (applied < window) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(base.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(base.num_nodes()));
    if (u == v) continue;
    const Status status = graph->HasEdge(u, v) ? service->RemoveEdge(u, v)
                                               : service->AddEdge(u, v);
    if (status.ok()) ++applied;
  }
  PRIVREC_CHECK_OK((*wal)->Sync());
  service.reset();
  graph.reset();
  wal->reset();
  ledger->reset();

  Stopwatch total_watch;
  auto recovered_wal = WriteAheadLog::Open(dir + "/wal");
  PRIVREC_CHECK_OK(recovered_wal.status());
  Stopwatch replay_watch;
  RecoveryReport report;
  auto recovered = RecoverGraph(dir, **recovered_wal, &report);
  PRIVREC_CHECK_OK(recovered.status());
  row.recover_graph_us = replay_watch.ElapsedSeconds() * 1e6;
  auto recovered_ledger = BudgetLedger::Open(dir + "/ledger");
  PRIVREC_CHECK_OK(recovered_ledger.status());
  const auto spent = (*recovered_ledger)->SpentByUser();
  PRIVREC_CHECK(!spent.empty());
  row.total_recovery_us = total_watch.ElapsedSeconds() * 1e6;
  row.replayed = report.replayed_records;
  PRIVREC_CHECK_EQ(row.replayed, window);
  row.replay_deltas_per_sec =
      static_cast<double>(row.replayed) / (row.recover_graph_us * 1e-6);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return row;
}

// ------------------------------------------------------ audited degradation

struct AuditRow {
  std::string name;
  double epsilon = 0;
  double epsilon_hat = 0;
  double lower_bound = 0;
  bool certified = false;  // lower_bound <= epsilon
  uint64_t injected_faults = 0;
  uint64_t trials_per_side = 0;
};

NeighboringPair AuditFixturePair() {
  CsrGraph g = MakeDirectedAuditFixture();
  auto pair = MakeEdgeTogglePair(g, /*target=*/0, 2, 4);
  PRIVREC_CHECK_OK(pair.status());
  return *pair;
}

ServiceAuditor::UtilityFactory FactoryFor(bool node_model) {
  if (node_model) {
    return []() { return std::make_unique<ResourceAllocationUtility>(); };
  }
  return []() { return std::make_unique<CommonNeighborsUtility>(); };
}

/// One AuditPairUnderFaults per fault point (the matrix cases verbatim)
/// plus a retry-absorbed fail-serve case: transient admission failures
/// soaked up by bounded retries must stay certified too. Returns false —
/// fail the gate — when any audit errors or any certified lower bound
/// exceeds the configured epsilon.
bool RunAuditGate(uint64_t trials, std::vector<AuditRow>* rows) {
  constexpr double kEpsilon = 0.8;
  bool ok = true;
  auto run_case = [&](const std::string& name, bool node_model,
                      const FaultAuditOptions& faults) {
    ServiceAuditOptions options;
    options.release_epsilon = kEpsilon;
    options.trials_per_side = trials;
    options.confidence = 0.99;
    options.seed = 20260808;
    if (node_model) {
      options.privacy_model = PrivacyModel::kNode;
      options.degree_cap = 2;
    }
    ServiceAuditor auditor(FactoryFor(node_model), options);
    ServiceStats stats;
    auto audit = auditor.AuditPairUnderFaults(AuditFixturePair(),
                                              /*target=*/0, faults, &stats);
    AuditRow row;
    row.name = name;
    row.epsilon = kEpsilon;
    row.trials_per_side = trials;
    row.injected_faults = stats.injected_faults;
    if (!audit.ok()) {
      std::fprintf(stderr, "audit[%s] ERROR: %s\n", name.c_str(),
                   audit.status().ToString().c_str());
      ok = false;
    } else {
      const PathEpsilonEstimate* path = audit->FindPath("under_faults");
      PRIVREC_CHECK(path != nullptr);
      row.epsilon_hat = path->epsilon_hat;
      row.lower_bound = path->epsilon_lower_bound;
      row.certified = path->epsilon_lower_bound <= kEpsilon;
      if (!row.certified) {
        std::fprintf(stderr,
                     "audit[%s] VIOLATION: certified bound %.4f > eps %.2f\n",
                     name.c_str(), row.lower_bound, kEpsilon);
        ok = false;
      }
      if (row.injected_faults == 0) {
        std::fprintf(stderr,
                     "audit[%s] HOLLOW: no fault ever fired — the audited "
                     "route was the clean path\n",
                     name.c_str());
        ok = false;
      }
    }
    rows->push_back(row);
  };

  for (const MatrixCase& c : kMatrixCases) {
    FaultAuditOptions faults;
    faults.plan = CasePlan(c);
    faults.mutations_between_trials = 1;
    run_case(c.name, c.node_model, faults);
  }
  // Transient no-fallback failures absorbed by retries: every other serve
  // is refused at admission and retried; the retried release must be as
  // private as the first-attempt one.
  {
    FaultAuditOptions faults;
    faults.plan.FailServe(FaultPoint::kRepairFail, /*period=*/2);
    faults.retry.max_retries = 2;
    faults.retry.backoff_micros = 1;
    run_case("retry_absorbed_fail_serve", /*node_model=*/false, faults);
  }
  return ok;
}

/// Gate self-test: arm `point` as a fail_serve rule with retries disabled.
/// Every trial's serve then fails, AuditPairUnderFaults refuses to certify
/// (returns the Unavailable error), and this function maps that refusal to
/// a NON-ZERO process exit. ci/sanitize.sh --faults fails CI when the exit
/// code is zero — i.e. when the audit certified a service that refused to
/// serve.
int RunInjectSelfTest(FaultPoint point, uint64_t trials) {
  ServiceAuditOptions options;
  options.release_epsilon = 0.8;
  options.trials_per_side = std::min<uint64_t>(trials, 200);
  options.seed = 20260808;
  ServiceAuditor auditor(FactoryFor(false), options);
  FaultAuditOptions faults;
  faults.plan.FailServe(point, /*period=*/1);
  // RetryPolicy left at fail-fast: nothing absorbs the injected failures.
  auto audit = auditor.AuditPairUnderFaults(AuditFixturePair(), /*target=*/0,
                                            faults);
  if (!audit.ok()) {
    std::printf("inject self-test: audit refused as expected (%s)\n",
                audit.status().ToString().c_str());
    return 1;  // the gate asserts this run exits non-zero
  }
  std::fprintf(stderr,
               "inject self-test FAILED: the audit certified a service "
               "whose every serve was failed (%s)\n",
               FaultPointName(point));
  return 0;
}

// --------------------------------------------------------- audited recovery

struct RecoveryAuditRow {
  std::string name;
  double epsilon = 0;
  double epsilon_hat = 0;
  double lower_bound = 0;
  std::string result;  // "certified" | "refused" | "VIOLATION" | "ERROR"
  uint64_t injected_faults = 0;
  uint64_t trials_per_side = 0;
};

/// One AuditAcrossRecovery per crash point, all against the same fixture
/// the degradation gate audits. The recoverable points (clean crash,
/// wal_torn_write, checkpoint_crash) must complete and certify with the
/// crash actually fired; ledger_partial_append loses a durable charge, so
/// the audit MUST refuse — a certification there fails the gate just as
/// hard as a violation elsewhere.
bool RunRecoveryAuditGate(uint64_t trials, std::vector<RecoveryAuditRow>* rows) {
  constexpr double kEpsilon = 0.8;
  bool ok = true;
  auto run_case = [&](const std::string& name, const FaultPlan& plan,
                      bool expect_refusal, bool require_fires) {
    ServiceAuditOptions options;
    options.release_epsilon = kEpsilon;
    options.trials_per_side = trials;
    options.confidence = 0.99;
    options.seed = 20260808;
    ServiceAuditor auditor(FactoryFor(false), options);
    RecoveryAuditOptions recovery;
    recovery.plan = plan;
    recovery.state_dir = RecoveryScratchDir("audit_" + name);
    ServiceStats stats;
    auto audit = auditor.AuditAcrossRecovery(AuditFixturePair(), /*target=*/0,
                                             recovery, &stats);
    RecoveryAuditRow row;
    row.name = name;
    row.epsilon = kEpsilon;
    row.trials_per_side = trials;
    row.injected_faults = stats.injected_faults;
    if (expect_refusal) {
      if (audit.ok()) {
        std::fprintf(stderr,
                     "recovery audit[%s] FAILED: certified a recovery whose "
                     "ledger lost a charge\n",
                     name.c_str());
        row.result = "VIOLATION";
        ok = false;
      } else if (audit.status().IsFailedPrecondition()) {
        row.result = "refused";
      } else {
        std::fprintf(stderr, "recovery audit[%s] ERROR: %s\n", name.c_str(),
                     audit.status().ToString().c_str());
        row.result = "ERROR";
        ok = false;
      }
    } else if (!audit.ok()) {
      std::fprintf(stderr, "recovery audit[%s] ERROR: %s\n", name.c_str(),
                   audit.status().ToString().c_str());
      row.result = "ERROR";
      ok = false;
    } else {
      const PathEpsilonEstimate* path = audit->FindPath("across_recovery");
      PRIVREC_CHECK(path != nullptr);
      row.epsilon_hat = path->epsilon_hat;
      row.lower_bound = path->epsilon_lower_bound;
      row.result = path->epsilon_lower_bound <= kEpsilon ? "certified"
                                                         : "VIOLATION";
      if (row.result == "VIOLATION") {
        std::fprintf(stderr,
                     "recovery audit[%s] VIOLATION: certified bound %.4f > "
                     "eps %.2f\n",
                     name.c_str(), row.lower_bound, kEpsilon);
        ok = false;
      }
      if (require_fires && row.injected_faults == 0) {
        std::fprintf(stderr,
                     "recovery audit[%s] HOLLOW: the crash point never "
                     "fired — the audited boundary was crash-free\n",
                     name.c_str());
        ok = false;
      }
    }
    rows->push_back(row);
  };

  // A clean crash: no injected fault, just teardown + recovery mid-audit.
  run_case("clean_crash", FaultPlan{}, /*expect_refusal=*/false,
           /*require_fires=*/false);
  {
    FaultPlan plan;
    plan.Enable(FaultPoint::kWalTornWrite, /*period=*/1, /*skip=*/4,
                /*max_fires=*/1);
    run_case("wal_torn_write", plan, /*expect_refusal=*/false,
             /*require_fires=*/true);
  }
  {
    FaultPlan plan;
    plan.Enable(FaultPoint::kCheckpointCrash, /*period=*/1, /*skip=*/0,
                /*max_fires=*/1);
    run_case("checkpoint_crash", plan, /*expect_refusal=*/false,
             /*require_fires=*/true);
  }
  {
    FaultPlan plan;
    plan.Enable(FaultPoint::kLedgerPartialAppend, /*period=*/1, /*skip=*/1,
                /*max_fires=*/1);
    run_case("ledger_partial_append", plan, /*expect_refusal=*/true,
             /*require_fires=*/false);
  }
  return ok;
}

/// Recovery gate self-test: arm `point` for AuditAcrossRecovery and map
/// the audit's refusal to a NON-ZERO exit. ci/sanitize.sh --durability
/// runs `--inject-recovery=ledger_partial_append` first and fails CI when
/// the exit code is zero — i.e. when the audit certified a recovery that
/// forgot spent budget.
int RunInjectRecoverySelfTest(FaultPoint point, uint64_t trials) {
  ServiceAuditOptions options;
  options.release_epsilon = 0.8;
  options.trials_per_side = std::min<uint64_t>(trials, 200);
  options.seed = 20260808;
  ServiceAuditor auditor(FactoryFor(false), options);
  RecoveryAuditOptions recovery;
  recovery.plan.Enable(point, /*period=*/1, /*skip=*/1, /*max_fires=*/1);
  recovery.state_dir = RecoveryScratchDir("inject_recovery");
  auto audit =
      auditor.AuditAcrossRecovery(AuditFixturePair(), /*target=*/0, recovery);
  if (!audit.ok()) {
    std::printf("inject-recovery self-test: audit refused as expected (%s)\n",
                audit.status().ToString().c_str());
    return 1;  // the gate asserts this run exits non-zero
  }
  std::fprintf(stderr,
               "inject-recovery self-test FAILED: the audit certified a "
               "recovery with %s armed\n",
               FaultPointName(point));
  return 0;
}

// --------------------------------------------------------------- reporting

void WriteJson(const std::string& path, NodeId users, uint64_t ops,
               int threads, const std::vector<MatrixRow>& matrix,
               const MatrixRow& overload, const std::vector<AuditRow>& audits,
               const std::vector<RecoveryRow>& recovery,
               const std::vector<RecoveryAuditRow>& recovery_audits) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(
      f,
      "  \"description\": \"Fault/degradation matrix from "
      "bench/fault_matrix.cc: Chung-Lu 4000-node power-law graph "
      "(alpha=2.2), common-neighbors utility (resource-allocation + "
      "degree-capped node-DP projection for the projection row), 8 "
      "shards, %u warm users, %llu-op ~10%%-write mutate/serve mix per "
      "row, RelWithDebInfo. Each row forces ONE fallback route "
      "throughout via the deterministic fault injector "
      "(serve/fault_injection.h); 'clean' / 'clean_node_dp' are the same "
      "runs disarmed (per privacy model). The "
      "overload_ladder row hammers 2 stalled shards (100us under the "
      "shard mutex) from %d threads with admission control + "
      "budget-aware shedding + 1 retry armed, and per-user budget "
      "accounting is verified EXACT afterwards.\",\n",
      users, static_cast<unsigned long long>(ops), threads);
  std::fprintf(f,
               "  \"unit\": \"microseconds per successful serve (median) / "
               "successful serves per second\",\n");
  std::fprintf(f, "  \"degradation_matrix\": [\n");
  // The first edge-model and first node-model rows are the two disarmed
  // baselines; every fault row's overhead compares within its own model.
  double clean_edge_us = 0, clean_node_us = 0;
  for (const MatrixRow& row : matrix) {
    if (!row.node_model && clean_edge_us == 0) {
      clean_edge_us = row.median_serve_us;
    }
    if (row.node_model && clean_node_us == 0) {
      clean_node_us = row.median_serve_us;
    }
  }
  for (size_t i = 0; i < matrix.size(); ++i) {
    const MatrixRow& row = matrix[i];
    const double baseline_us = row.node_model ? clean_node_us : clean_edge_us;
    const double overhead =
        baseline_us > 0 ? row.median_serve_us / baseline_us : 0;
    std::fprintf(
        f,
        "    { \"fault\": \"%s\", \"median_serve_us\": %.3f, "
        "\"serves_per_sec\": %.0f, \"overhead_vs_clean\": \"%.2fx\", "
        "\"injected_faults\": %llu, \"stale_fallback_serves\": %llu, "
        "\"journal_fallbacks\": %llu, \"delta_recomputed\": %llu }%s\n",
        row.name.c_str(), row.median_serve_us, row.serves_per_sec, overhead,
        static_cast<unsigned long long>(row.stats.injected_faults),
        static_cast<unsigned long long>(row.stats.stale_fallback_serves),
        static_cast<unsigned long long>(row.stats.journal_fallbacks),
        static_cast<unsigned long long>(row.stats.delta_recomputed),
        i + 1 < matrix.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"overload_ladder\": { \"threads\": %d, \"served\": %llu, "
      "\"shed_overload\": %llu, \"retries\": %llu, \"median_ok_serve_us\": "
      "%.3f, \"serves_per_sec\": %.0f, \"injected_faults\": %llu, "
      "\"budget_accounting_exact\": true },\n",
      threads, static_cast<unsigned long long>(overload.served),
      static_cast<unsigned long long>(overload.stats.shed_overload),
      static_cast<unsigned long long>(overload.stats.retries),
      overload.median_serve_us, overload.serves_per_sec,
      static_cast<unsigned long long>(overload.stats.injected_faults));
  std::fprintf(f, "  \"recovery_matrix\": [\n");
  for (size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryRow& row = recovery[i];
    std::fprintf(
        f,
        "    { \"journal_window\": %llu, \"checkpoint_write_us\": %.1f, "
        "\"recover_graph_us\": %.1f, \"total_recovery_us\": %.1f, "
        "\"replayed_deltas\": %llu, \"replay_deltas_per_sec\": %.0f }%s\n",
        static_cast<unsigned long long>(row.journal_window),
        row.checkpoint_write_us, row.recover_graph_us, row.total_recovery_us,
        static_cast<unsigned long long>(row.replayed),
        row.replay_deltas_per_sec, i + 1 < recovery.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"audited_degradation\": [\n");
  for (size_t i = 0; i < audits.size(); ++i) {
    const AuditRow& row = audits[i];
    std::fprintf(
        f,
        "    { \"fault\": \"%s\", \"epsilon\": %.2f, \"epsilon_hat\": "
        "%.4f, \"certified_lower_bound\": %.4f, \"certified\": %s, "
        "\"trials_per_side\": %llu, \"injected_faults\": %llu }%s\n",
        row.name.c_str(), row.epsilon, row.epsilon_hat, row.lower_bound,
        row.certified ? "true" : "false",
        static_cast<unsigned long long>(row.trials_per_side),
        static_cast<unsigned long long>(row.injected_faults),
        i + 1 < audits.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"audited_recovery\": [\n");
  for (size_t i = 0; i < recovery_audits.size(); ++i) {
    const RecoveryAuditRow& row = recovery_audits[i];
    std::fprintf(
        f,
        "    { \"crash_point\": \"%s\", \"epsilon\": %.2f, \"epsilon_hat\": "
        "%.4f, \"certified_lower_bound\": %.4f, \"result\": \"%s\", "
        "\"trials_per_side\": %llu, \"injected_faults\": %llu }%s\n",
        row.name.c_str(), row.epsilon, row.epsilon_hat, row.lower_bound,
        row.result.c_str(),
        static_cast<unsigned long long>(row.trials_per_side),
        static_cast<unsigned long long>(row.injected_faults),
        i + 1 < recovery_audits.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"notes\": [\n"
      "    \"degradation_matrix overheads are the price of the forced "
      "fallback routes: snapshot/projection patch failure pays a full "
      "O(n+m) rebuild per mutation, journal compaction dooms pinned "
      "windows into exact recomputes, repair_fail abandons journal repair "
      "per visited entry — all EXACT fallbacks, so serves stay "
      "byte-identical to the clean run (tests/fault_injection_test.cc "
      "proves it)\",\n"
      "    \"audited_degradation is ServiceAuditor::AuditPairUnderFaults "
      "per fault point: identical plans on both sides of a neighboring "
      "pair, mirrored toggles between trials, parity-keyed outcome "
      "cells; certified = Clopper-Pearson lower bound <= configured "
      "epsilon. ci/sanitize.sh --faults exits non-zero on any violation, "
      "audit error, or a fault point that never fired\",\n"
      "    \"the --inject self-test proves the gate can fail: a "
      "fail_serve plan with retries disabled makes the audit refuse to "
      "certify, and CI asserts the resulting non-zero exit\",\n"
      "    \"recovery_matrix rows run a durable service (WAL + budget "
      "ledger + checkpoint) on the same graph: checkpoint_write_us is "
      "SaveCheckpoint (atomic snapshot + manifest rename + WAL "
      "truncation + ledger compaction), recover_graph_us is checkpoint "
      "load + strict WAL replay of journal_window deltas, "
      "total_recovery_us adds the WAL torn-tail scan and the ledger "
      "open/spend fold\",\n"
      "    \"audited_recovery is ServiceAuditor::AuditAcrossRecovery per "
      "crash point: trials straddle a kill+recover boundary, recovered "
      "per-user spend must be >= pre-crash charged, and the "
      "ledger_partial_append row must be REFUSED (a lying fsync loses a "
      "durable charge; certifying it would bless a recovery that forgot "
      "spent budget). ci/sanitize.sh --durability proves the refusal "
      "via --inject-recovery first, then gates on these rows\"\n"
      "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  FlagParser flags;
  PRIVREC_CHECK_OK(flags.Parse(argc, argv));
  const NodeId users = static_cast<NodeId>(flags.GetInt("users", 200));
  const uint64_t ops = static_cast<uint64_t>(flags.GetInt("ops", 6000));
  const int threads = static_cast<int>(flags.GetInt("threads", 8));
  const uint64_t trials = static_cast<uint64_t>(flags.GetInt("trials", 1200));
  const bool run_audit = flags.GetBool("audit", false);
  const std::string inject = flags.GetString("inject", "");
  const std::string inject_recovery = flags.GetString("inject-recovery", "");
  const std::string json_path = flags.GetString("json", "");

  if (!inject.empty()) {
    const auto point = FaultPointFromName(inject);
    if (!point.has_value()) {
      std::fprintf(stderr, "unknown fault point: %s\n", inject.c_str());
      return 2;
    }
    return RunInjectSelfTest(*point, trials);
  }
  if (!inject_recovery.empty()) {
    const auto point = FaultPointFromName(inject_recovery);
    if (!point.has_value()) {
      std::fprintf(stderr, "unknown fault point: %s\n",
                   inject_recovery.c_str());
      return 2;
    }
    return RunInjectRecoverySelfTest(*point, trials);
  }

  const CsrGraph base = MatrixGraph();
  PrintDatasetBanner("chung-lu 4000", base);

  std::vector<MatrixRow> matrix;
  matrix.push_back(MeasureRow(base, "clean", FaultPlan{}, /*node_model=*/false,
                              users, ops, /*seed=*/71));
  // The node-DP serving stack (degree-capped projection) has a very
  // different clean-path cost profile than edge-model serving, so the
  // projection row gets its own disarmed baseline — each fault row's
  // "vs clean" compares against the matching model's clean run.
  matrix.push_back(MeasureRow(base, "clean_node_dp", FaultPlan{},
                              /*node_model=*/true, users, ops, /*seed=*/71));
  for (const MatrixCase& c : kMatrixCases) {
    matrix.push_back(
        MeasureRow(base, c.name, CasePlan(c), c.node_model, users, ops,
                   /*seed=*/71));
  }
  const MatrixRow overload =
      MeasureOverloadLadder(threads, /*requests_per_thread=*/60, /*seed=*/41);

  // Recovery rows: how a crash costs scale with the journal window (the
  // deltas accumulated past the last checkpoint — the knob SaveCheckpoint
  // frequency controls).
  std::vector<RecoveryRow> recovery;
  for (const uint64_t window : {256ull, 1024ull, 4096ull}) {
    recovery.push_back(MeasureRecoveryRow(base, window, /*seed=*/83));
  }

  const double clean_edge_us = matrix[0].median_serve_us;
  const double clean_node_us = matrix[1].median_serve_us;
  TablePrinter table({"fault", "median us", "serves/s", "vs clean", "fires",
                      "stale", "journal fb", "recomputed"});
  for (const MatrixRow& row : matrix) {
    const double baseline_us = row.node_model ? clean_node_us : clean_edge_us;
    table.AddRow({row.name, FormatDouble(row.median_serve_us, 2),
                  FormatDouble(row.serves_per_sec, 0),
                  FormatDouble(row.median_serve_us / baseline_us, 2) + "x",
                  std::to_string(row.stats.injected_faults),
                  std::to_string(row.stats.stale_fallback_serves),
                  std::to_string(row.stats.journal_fallbacks),
                  std::to_string(row.stats.delta_recomputed)});
  }
  std::printf(
      "\ndegradation matrix: warm-cache mutate/serve mix with ONE fallback "
      "route forced\nthroughout (periods: compaction/3, patch fails/1, "
      "repair/2, stall/1 at 25us).\nAll fallbacks are exact recomputes — "
      "slower, never different.\n");
  table.Print();

  std::printf(
      "\noverload ladder (%d threads, 2 shards stalled 100us, "
      "inflight cap 1, depth cap 5,\nretry 1): served %llu, shed %llu, "
      "retries %llu, median OK serve %.1f us, %.0f\nserves/s — per-user "
      "budget accounting verified EXACT after the run.\n",
      threads, static_cast<unsigned long long>(overload.served),
      static_cast<unsigned long long>(overload.stats.shed_overload),
      static_cast<unsigned long long>(overload.stats.retries),
      overload.median_serve_us, overload.serves_per_sec);

  std::printf(
      "\nrecovery matrix: cold crash recovery (WAL open + checkpoint load + "
      "strict replay +\nledger fold) vs journal-window size.\n");
  TablePrinter recovery_table({"journal window", "checkpoint us",
                               "recover graph us", "total recovery us",
                               "replay deltas/s"});
  for (const RecoveryRow& row : recovery) {
    recovery_table.AddRow({std::to_string(row.journal_window),
                           FormatDouble(row.checkpoint_write_us, 0),
                           FormatDouble(row.recover_graph_us, 0),
                           FormatDouble(row.total_recovery_us, 0),
                           FormatDouble(row.replay_deltas_per_sec, 0)});
  }
  recovery_table.Print();

  std::vector<AuditRow> audits;
  std::vector<RecoveryAuditRow> recovery_audits;
  bool gate_ok = true;
  if (run_audit) {
    std::printf("\naudited degradation (%llu trials/side, eps 0.8):\n",
                static_cast<unsigned long long>(trials));
    gate_ok = RunAuditGate(trials, &audits);
    TablePrinter audit_table(
        {"fault", "eps-hat", "certified >=", "certified", "fires"});
    for (const AuditRow& row : audits) {
      audit_table.AddRow({row.name, FormatDouble(row.epsilon_hat, 4),
                          FormatDouble(row.lower_bound, 4),
                          row.certified ? "yes" : "NO",
                          std::to_string(row.injected_faults)});
    }
    audit_table.Print();
    std::printf(gate_ok ? "\naudited degradation: OK (every forced "
                          "fallback certified <= eps)\n"
                        : "\naudited degradation: FAILED\n");

    std::printf("\naudited recovery (%llu trials/side straddling a "
                "kill+recover boundary, eps 0.8):\n",
                static_cast<unsigned long long>(trials));
    const bool recovery_gate_ok =
        RunRecoveryAuditGate(trials, &recovery_audits);
    gate_ok = gate_ok && recovery_gate_ok;
    TablePrinter recovery_audit_table(
        {"crash point", "eps-hat", "certified >=", "result", "fires"});
    for (const RecoveryAuditRow& row : recovery_audits) {
      recovery_audit_table.AddRow({row.name, FormatDouble(row.epsilon_hat, 4),
                                   FormatDouble(row.lower_bound, 4),
                                   row.result,
                                   std::to_string(row.injected_faults)});
    }
    recovery_audit_table.Print();
    std::printf(recovery_gate_ok
                    ? "\naudited recovery: OK (crash points certified, "
                      "ledger tear refused)\n"
                    : "\naudited recovery: FAILED\n");
  }

  if (!json_path.empty()) {
    WriteJson(json_path, users, ops, threads, matrix, overload, audits,
              recovery, recovery_audits);
  }
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace privrec

int main(int argc, char** argv) { return privrec::bench::Main(argc, argv); }
