// A live recommendation service over a mutating social graph: the
// production shape of this library. Users query, edges churn, the cache
// invalidates precisely, and every user's lifetime privacy budget is
// enforced by sequential composition.
//
//   $ ./live_service [--users=5000] [--release-epsilon=0.5] [--budget=3]
//                    [--fault-period=4] [--checkpoint-dir=/tmp/privrec]
//
// Day two of the simulation is an incident drill: deterministic faults are
// injected (repair failures, journal compactions, shard stalls) and eight
// threads hammer the hot shard with overload shedding armed — the
// fault/overload/degradation tallies at the end show the ladder working.
//
// With --checkpoint-dir the service runs DURABLY: every edge delta goes
// through a write-ahead log, every budget charge hits an append-only
// ledger before the noised answer leaves the service, and checkpoints
// bound replay. Day three then kills the process state outright and
// recovers — the recovered service owes every user at most what they had
// left before the crash (budget continuity), and serves on.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

using namespace privrec;

int main(int argc, char** argv) {
  FlagParser flags;
  PRIVREC_CHECK_OK(flags.Parse(argc, argv));
  const NodeId users = static_cast<NodeId>(flags.GetInt("users", 5000));
  ServiceOptions options;
  options.release_epsilon = flags.GetDouble("release-epsilon", 0.5);
  options.per_user_budget = flags.GetDouble("budget", 3.0);
  options.cache_capacity = 512;
  // The full degradation ladder, armed from the start: a shared fault
  // injector (disarmed = one relaxed load per hook), per-shard admission
  // control with budget-aware shedding, and bounded deterministic retries.
  FaultInjector injector;
  options.fault_injector = &injector;
  options.overload.max_inflight_per_shard = 2;
  options.overload.max_queue_depth = 6;
  options.overload.shed_budget_fraction = 0.25;
  options.retry.max_retries = 2;
  options.retry.backoff_micros = 20;

  // --checkpoint-dir arms the durability layer: WAL'd edge deltas, the
  // charge ledger written before any release, and checkpoint+recovery.
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  const bool durable = !checkpoint_dir.empty();
  std::unique_ptr<WriteAheadLog> wal;
  std::unique_ptr<BudgetLedger> ledger;
  if (durable) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir, ec);
    std::filesystem::create_directories(checkpoint_dir, ec);
    auto opened_wal = WriteAheadLog::Open(checkpoint_dir + "/wal");
    PRIVREC_CHECK_OK(opened_wal.status());
    wal = std::move(*opened_wal);
    auto opened_ledger = BudgetLedger::Open(checkpoint_dir + "/ledger");
    PRIVREC_CHECK_OK(opened_ledger.status());
    ledger = std::move(*opened_ledger);
    options.wal = wal.get();
    options.budget_ledger = ledger.get();
  }

  Rng gen_rng(404);
  auto weights = PowerLawWeights(users, 2.1);
  auto base = ChungLu(weights, weights, users * 5, /*directed=*/false,
                      gen_rng);
  PRIVREC_CHECK_OK(base.status());
  auto graph = std::make_unique<DynamicGraph>(*base);
  auto service = std::make_unique<RecommendationService>(
      graph.get(), std::make_unique<CommonNeighborsUtility>(), options);
  if (durable) {
    PRIVREC_CHECK_OK(service->SaveCheckpoint(checkpoint_dir));
    std::printf("durability armed: WAL + budget ledger + checkpoint in %s\n",
                checkpoint_dir.c_str());
  }

  std::printf("service online: %u users, %llu friendships; eps=%.2f per "
              "answer, lifetime budget %.1f per user\n\n",
              graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()),
              options.release_epsilon, options.per_user_budget);

  // Day one runs with a light fault plan installed: every fault-period-th
  // cache repair is abandoned (forcing the exact full-recompute fallback)
  // and an occasional journal compaction dooms pinned windows — the faults
  // production would see, made deterministic.
  const int fault_period = static_cast<int>(flags.GetInt("fault-period", 4));
  if (fault_period > 0) {
    FaultPlan day_plan;
    day_plan.Enable(FaultPoint::kRepairFail,
                    static_cast<uint32_t>(fault_period));
    day_plan.Enable(FaultPoint::kJournalCompaction, /*period=*/40);
    injector.Install(day_plan);
  }

  // Simulate a day of traffic: queries skewed toward a handful of hot
  // users (so budgets actually deplete), interleaved with edge churn.
  Rng traffic(7);
  int answered = 0, refused = 0;
  for (int event = 0; event < 3000; ++event) {
    if (durable && event == 1500) {
      // The mid-day checkpoint: bounds WAL replay and compacts the ledger.
      PRIVREC_CHECK_OK(service->SaveCheckpoint(checkpoint_dir));
    }
    if (traffic.NextBernoulli(0.15)) {
      // Graph churn: someone makes or breaks a friendship.
      NodeId a = static_cast<NodeId>(traffic.NextBounded(users));
      NodeId b = static_cast<NodeId>(traffic.NextBounded(users));
      if (a != b) {
        if (graph->HasEdge(a, b)) {
          PRIVREC_CHECK_OK(service->RemoveEdge(a, b));
        } else {
          PRIVREC_CHECK_OK(service->AddEdge(a, b));
        }
      }
      continue;
    }
    // Query: 80% of traffic comes from 16 hot users.
    NodeId user = traffic.NextBernoulli(0.8)
                      ? static_cast<NodeId>(traffic.NextBounded(16))
                      : static_cast<NodeId>(traffic.NextBounded(users));
    auto rec = service->ServeRecommendation(user, traffic);
    if (rec.ok()) {
      ++answered;
    } else {
      ++refused;
    }
  }

  // Day two: the overload drill. Arm a deterministic shard stall (every
  // serve sleeps 200us under the shard mutex) and hammer the hot users
  // from 8 threads. Admission control sheds in O(1) before the mutex —
  // budget-poor users first — so the stalled shard degrades instead of
  // queueing unboundedly, and shed requests spend no privacy budget.
  {
    FaultPlan drill;
    drill.Enable(FaultPoint::kShardStall);
    drill.rule(FaultPoint::kShardStall).stall_micros = 200;
    injector.Install(drill);
    std::atomic<int> drill_ok{0}, drill_shed{0}, drill_refused{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t]() {
        for (int q = 0; q < 50; ++q) {
          // Half the drill traffic is the budget-exhausted hot set, half
          // fresh users: under pressure the ladder sheds the budget-poor
          // requests and keeps serving the budget-rich ones.
          const NodeId user =
              q % 2 == 0 ? static_cast<NodeId>((t + q) % 16)
                         : static_cast<NodeId>(100 + t * 50 + q);
          auto rec = service->ServeRecommendation(user);
          if (rec.ok()) {
            ++drill_ok;
          } else if (rec.status().IsUnavailable()) {
            ++drill_shed;
          } else {
            ++drill_refused;
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    injector.Clear();
    std::printf("overload drill (8 threads, stalled shards): %d answered, "
                "%d shed, %d refused on budget\n\n",
                drill_ok.load(), drill_shed.load(), drill_refused.load());
  }

  const ServiceStats stats = service->stats();
  TablePrinter table({"metric", "value"});
  table.AddRow({"answers served", std::to_string(answered)});
  table.AddRow({"refused (budget exhausted)", std::to_string(refused)});
  table.AddRow({"cache hits", std::to_string(stats.cache_hits)});
  table.AddRow({"cache misses", std::to_string(stats.cache_misses)});
  table.AddRow({"cache invalidations",
                std::to_string(stats.cache_invalidations)});
  // Incremental maintenance at work: under churn, most cached entries
  // survive a mutation untouched (kept); only the entries a mutation can
  // change are recomputed — see README "Incremental maintenance".
  table.AddRow({"entries kept across mutations",
                std::to_string(stats.delta_kept)});
  table.AddRow({"affected entries recomputed",
                std::to_string(stats.delta_recomputed)});
  table.AddRow({"journal fallbacks", std::to_string(stats.journal_fallbacks)});
  table.AddRow({"doomed entries evicted",
                std::to_string(stats.doomed_evictions)});
  // The degradation ladder's tallies: injected faults fired, forced
  // fallback serves (every one still exact and fully calibrated),
  // overload sheds (budget-neutral by construction), and bounded retries.
  table.AddRow({"injected faults fired",
                std::to_string(stats.injected_faults)});
  table.AddRow({"forced-fallback serves",
                std::to_string(stats.stale_fallback_serves)});
  table.AddRow({"requests shed under overload",
                std::to_string(stats.shed_overload)});
  table.AddRow({"transient retries", std::to_string(stats.retries)});
  if (durable) {
    table.AddRow({"ledger appends (pre-release)",
                  std::to_string(stats.ledger_appends)});
  }
  table.Print();
  // Every mutation publishes its snapshot before it returns, as a
  // block-shared splice of the previous CSR that rebuilds only the toggled
  // endpoints' blocks (README "Block-shared CSR snapshots"); only the
  // initial snapshot (and an injected splice failure) is built from
  // scratch.
  std::printf("\nsnapshots: %llu block-shared splices, %llu built from "
              "scratch\n",
              static_cast<unsigned long long>(graph->snapshot_patches()),
              static_cast<unsigned long long>(graph->snapshot_builds()));

  std::printf("\nhot-user budgets after the day:\n");
  TablePrinter budgets({"user", "remaining eps", "answers left"});
  for (NodeId user = 0; user < 4; ++user) {
    double remaining = service->RemainingBudget(user);
    budgets.AddRow({"user#" + std::to_string(user),
                    FormatDouble(remaining, 2),
                    std::to_string(static_cast<int>(
                        remaining / options.release_epsilon))});
  }
  budgets.Print();

  // Day three (durable runs only): the crash drill. Checkpoint, then kill
  // every in-memory structure — service, graph, the WAL and ledger file
  // handles — and recover from disk alone. The recovered service owes each
  // user AT MOST what they had left pre-crash: charges are durable before
  // the answer leaves, so a crash can lose utility but never privacy.
  if (durable) {
    PRIVREC_CHECK_OK(service->SaveCheckpoint(checkpoint_dir));
    std::vector<double> pre_crash_remaining;
    for (NodeId user = 0; user < 4; ++user) {
      pre_crash_remaining.push_back(service->RemainingBudget(user));
    }
    wal->SimulateCrash();
    ledger->SimulateCrash();
    service.reset();
    graph.reset();
    wal.reset();
    ledger.reset();

    auto recovered_wal = WriteAheadLog::Open(checkpoint_dir + "/wal");
    PRIVREC_CHECK_OK(recovered_wal.status());
    wal = std::move(*recovered_wal);
    RecoveryReport report;
    auto recovered = RecoverGraph(checkpoint_dir, *wal, &report);
    PRIVREC_CHECK_OK(recovered.status());
    graph = std::move(*recovered);
    auto recovered_ledger = BudgetLedger::Open(checkpoint_dir + "/ledger");
    PRIVREC_CHECK_OK(recovered_ledger.status());
    ledger = std::move(*recovered_ledger);
    options.wal = wal.get();
    options.budget_ledger = ledger.get();
    service = std::make_unique<RecommendationService>(
        graph.get(), std::make_unique<CommonNeighborsUtility>(), options);
    const auto recovered_spend = ledger->SpentByUser();
    service->ImportSpentBudgets(recovered_spend);

    std::printf("\ncrash drill: process state destroyed; recovered from "
                "checkpoint (wal_seq %llu) + %llu replayed WAL deltas, "
                "%zu users' ledger spend restored\n",
                static_cast<unsigned long long>(report.manifest.wal_seq),
                static_cast<unsigned long long>(report.replayed_records),
                recovered_spend.size());
    std::printf("\nhot-user budgets after recovery (never above pre-crash):\n");
    TablePrinter recovered_table(
        {"user", "ledger spend", "remaining eps", "continuity"});
    for (NodeId user = 0; user < 4; ++user) {
      const auto it = recovered_spend.find(user);
      const double spend = it == recovered_spend.end() ? 0.0 : it->second;
      const double remaining = service->RemainingBudget(user);
      const bool contiguous = remaining <= pre_crash_remaining[user] + 1e-9;
      recovered_table.AddRow({"user#" + std::to_string(user),
                              FormatDouble(spend, 2),
                              FormatDouble(remaining, 2),
                              contiguous ? "ok" : "VIOLATED"});
      PRIVREC_CHECK(contiguous);
    }
    recovered_table.Print();
    // And it still serves: one post-recovery answer from a fresh user.
    Rng post_rng(31337);
    auto rec = service->ServeRecommendation(static_cast<NodeId>(users - 1),
                                            post_rng);
    std::printf("\npost-recovery serve for user#%u: %s\n", users - 1,
                rec.ok() ? "answered" : rec.status().ToString().c_str());
  }
  std::printf("\nthe refusals are the system working: once a user's "
              "lifetime epsilon is spent, continuing to answer would "
              "break the differential-privacy guarantee (sequential "
              "composition). This is the operational face of the paper's "
              "impossibility result.\n");
  return 0;
}
