// Overload ladder under concurrency (the TSAN payload for the `faults`
// label, see ci/sanitize.sh --faults): eight threads hammer a
// fault-stalled service with admission control and budget-aware shedding
// armed, and afterwards every user's lifetime budget must be EXACTLY
// served_count * release_epsilon — shed requests return kUnavailable
// before any charge, so overload can degrade service but never corrupt
// accounting.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/privacy_accountant.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

TEST(FaultOverloadConcurrentTest, BudgetAccountingStaysExactUnderShedding) {
  constexpr NodeId kUsers = 32;
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 60;

  Rng gen(41);
  auto base = ErdosRenyiGnm(64, 220, /*directed=*/false, gen);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  FaultInjector injector;
  ServiceOptions options;
  options.release_epsilon = 0.25;
  options.per_user_budget = 2.0;  // 8 serves per user, ever
  options.num_shards = 2;
  options.seed = 7;
  options.fault_injector = &injector;
  options.overload.max_inflight_per_shard = 1;
  options.overload.max_queue_depth = 5;
  options.overload.shed_budget_fraction = 0.5;
  options.retry.max_retries = 1;
  options.retry.backoff_micros = 5;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);

  // Every serve sleeps 100us under the shard mutex: the deterministic
  // slow-shard generator that makes inflight depth actually build up.
  FaultPlan plan;
  plan.Enable(FaultPoint::kShardStall);
  plan.rule(FaultPoint::kShardStall).stall_micros = 100;
  injector.Install(plan);

  std::atomic<uint64_t> served_per_user[kUsers] = {};
  std::atomic<uint64_t> total_ok{0}, total_shed{0}, total_budget_refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int q = 0; q < kRequestsPerThread; ++q) {
        const NodeId user =
            static_cast<NodeId>((t * kRequestsPerThread + q) % kUsers);
        auto rec = service.ServeRecommendation(user);
        if (rec.ok()) {
          ++served_per_user[user];
          ++total_ok;
        } else if (rec.status().IsUnavailable()) {
          ++total_shed;
        } else {
          ASSERT_TRUE(IsBudgetExhausted(rec.status()))
              << rec.status().ToString();
          ++total_budget_refused;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const uint64_t stall_fires = injector.total_fires();
  injector.Clear();

  // The exactness invariant: each user's remaining budget reflects their
  // successful serves and NOTHING else — not the sheds, not the stalls,
  // not the retries. 0.25 sums exactly in binary, so this is equality.
  for (NodeId user = 0; user < kUsers; ++user) {
    EXPECT_DOUBLE_EQ(
        service.RemainingBudget(user),
        options.per_user_budget -
            static_cast<double>(served_per_user[user].load()) *
                options.release_epsilon)
        << "user " << user;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served, total_ok.load());
  EXPECT_EQ(stats.refused_budget, total_budget_refused.load());
  // Every final kUnavailable outcome was shed on its last attempt (the
  // only transient failure armed is the stall, which does not fail
  // serves), and retried sheds add more shed events on top.
  EXPECT_GE(stats.shed_overload, total_shed.load());
  // The stalled shards under 8 threads guarantee shed traffic (each
  // shard admits one stalled request at a time with a depth-5 hard cap).
  // Budget refusals may or may not occur: once a user is budget-poor the
  // ladder usually sheds them at admission before the accountant ever
  // sees the request — which is the design, not a gap.
  EXPECT_GT(stats.shed_overload, 0u);
  // Each first-attempt shed under max_retries=1 books a retry.
  EXPECT_GT(stats.retries, 0u);
  // stats() was read after Clear(), so the per-shard counters alone must
  // carry the full fire tally (graph_fires is 0 for a stall-only plan).
  EXPECT_EQ(stats.injected_faults, stall_fires);
}

TEST(FaultOverloadTest, IdleOverloadPolicyIsTransparent) {
  // Admission control on an idle service must be a no-op: same seeds,
  // same traffic, with and without the policy, serve identical sequences
  // and shed nothing (single-threaded, inflight never exceeds any cap).
  Rng gen(43);
  auto base = ErdosRenyiGnm(48, 140, /*directed=*/false, gen);
  ASSERT_TRUE(base.ok());
  std::vector<NodeId> picks[2];
  for (int run = 0; run < 2; ++run) {
    DynamicGraph graph(*base);
    ServiceOptions options;
    options.release_epsilon = 0.2;
    options.per_user_budget = 1e6;
    options.num_shards = 2;
    options.seed = 99;
    if (run == 1) {
      options.overload.max_inflight_per_shard = 1;
      options.overload.max_queue_depth = 2;
      options.overload.shed_budget_fraction = 0.9;
    }
    RecommendationService service(
        &graph, std::make_unique<CommonNeighborsUtility>(), options);
    for (int q = 0; q < 120; ++q) {
      auto rec = service.ServeRecommendation(static_cast<NodeId>(q % 24));
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      picks[run].push_back(*rec);
    }
    EXPECT_EQ(service.stats().shed_overload, 0u);
    EXPECT_EQ(service.stats().retries, 0u);
  }
  EXPECT_EQ(picks[0], picks[1]);
}

TEST(FaultOverloadConcurrentTest, SheddingPrefersBudgetPoorUsers) {
  // Budget-aware shedding end to end: exhaust the hot users' budgets,
  // then hammer a stalled service with hot and fresh users mixed. Under
  // the soft inflight cap the budget-poor hot requests are shed while
  // budget-rich fresh users still get served.
  Rng gen(47);
  auto base = ErdosRenyiGnm(96, 300, /*directed=*/false, gen);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  FaultInjector injector;
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 1.0;
  options.num_shards = 1;  // one shard: every request contends
  options.seed = 11;
  options.fault_injector = &injector;
  options.overload.max_inflight_per_shard = 1;
  options.overload.shed_budget_fraction = 0.25;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);

  // Drain users 0-7 to zero remaining budget (2 serves each).
  for (NodeId user = 0; user < 8; ++user) {
    ASSERT_TRUE(service.ServeRecommendation(user).ok());
    ASSERT_TRUE(service.ServeRecommendation(user).ok());
    ASSERT_DOUBLE_EQ(service.RemainingBudget(user), 0.0);
  }

  FaultPlan plan;
  plan.Enable(FaultPoint::kShardStall);
  plan.rule(FaultPoint::kShardStall).stall_micros = 150;
  injector.Install(plan);

  std::atomic<uint64_t> fresh_ok{0}, hot_shed{0}, hot_refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int q = 0; q < 40; ++q) {
        // Even requests: exhausted hot users. Odd: fresh users.
        if (q % 2 == 0) {
          auto rec = service.ServeRecommendation(
              static_cast<NodeId>((t + q) % 8));
          if (!rec.ok() && rec.status().IsUnavailable()) {
            ++hot_shed;
          } else if (!rec.ok()) {
            ++hot_refused;
          }
        } else {
          auto rec = service.ServeRecommendation(
              static_cast<NodeId>(16 + (t * 40 + q) % 64));
          if (rec.ok()) ++fresh_ok;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  injector.Clear();

  // Hot users' budgets stayed pinned at zero (sheds and refusals spend
  // nothing), fresh users were still served through the stall, and the
  // ladder actually shed (every hot admission over the soft cap sheds,
  // since their remaining budget is 0 <= 0.25 * 1.0).
  for (NodeId user = 0; user < 8; ++user) {
    EXPECT_DOUBLE_EQ(service.RemainingBudget(user), 0.0) << "user " << user;
  }
  EXPECT_GT(fresh_ok.load(), 0u);
  EXPECT_GT(hot_shed.load() + hot_refused.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.shed_overload, 0u)
      << "no request was ever shed: the stall never built up inflight "
         "depth";
}

}  // namespace
}  // namespace privrec
