#include "serve/concurrent_driver.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "eval/parallel.h"
#include "random/rng.h"

namespace privrec {

MirroredMutator::MirroredMutator(RecommendationService* base,
                                 RecommendationService* neighbor,
                                 const CsrGraph& initial, NodeId target,
                                 NodeId skip_u, NodeId skip_v,
                                 const MirroredMutatorOptions& options)
    : base_(base),
      neighbor_(neighbor),
      target_(target),
      num_nodes_(initial.num_nodes()),
      options_(options) {
  PRIVREC_CHECK(base_ != nullptr);
  PRIVREC_CHECK(neighbor_ != nullptr);
  PRIVREC_CHECK_GT(options_.num_threads, 0u);
  // Eligible slots: not incident to the target (so the audited candidate
  // set never changes mid-audit) and not the pair's differing edge (so the
  // sides stay neighbors). Bounded so huge graphs don't pay O(n²) here —
  // a few hundred slots already saturate the repair machinery.
  constexpr size_t kMaxSlots = 4096;
  std::vector<Slot> slots;
  auto same_unordered = [&](NodeId a, NodeId b) {
    return (a == skip_u && b == skip_v) || (a == skip_v && b == skip_u);
  };
  for (NodeId a = 0; a < num_nodes_ && slots.size() < kMaxSlots; ++a) {
    if (a == target_) continue;
    const NodeId b_begin = initial.directed() ? 0 : a + 1;
    for (NodeId b = b_begin; b < num_nodes_ && slots.size() < kMaxSlots;
         ++b) {
      if (b == a || b == target_) continue;
      if (same_unordered(a, b)) continue;
      slots.push_back(Slot{a, b, initial.HasEdge(a, b)});
    }
  }
  PRIVREC_CHECK(!slots.empty());
  const unsigned threads = static_cast<unsigned>(
      std::min<size_t>(options_.num_threads, slots.size()));
  options_.num_threads = threads;
  SplitMix64 seeder(options_.seed);
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers_.emplace_back(seeder.Next(), seeder.Next());
  }
  // Round-robin partition: disjoint ownership is what makes concurrent
  // identical-toggle application race-free without cross-side ordering.
  for (size_t i = 0; i < slots.size(); ++i) {
    workers_[i % threads].slots.push_back(slots[i]);
  }
}

void MirroredMutator::RunPhase() {
  std::atomic<uint64_t> toggles{0}, churns{0};
  const uint64_t churn_per_toggle =
      options_.toggles_per_thread == 0
          ? 0
          : options_.churn_serves_per_thread / options_.toggles_per_thread;
  RunWorkers(options_.num_threads, [&](unsigned w) {
    Worker& worker = workers_[w];
    uint64_t applied = 0, served = 0;
    auto churn = [&]() {
      // Budget-neutral serve on a non-target user: forces snapshot
      // re-pins and lazy repairs on whatever shard the user hashes to,
      // concurrently with other workers' toggles. Output discarded;
      // failures (no candidates) are fine.
      NodeId user = static_cast<NodeId>(
          worker.churn_rng.NextBounded(num_nodes_));
      if (user == target_) user = (user + 1) % num_nodes_;
      if (user == target_) return;  // 1-node graph; nothing to churn
      (void)base_->ServeForAudit(user, worker.churn_rng);
      (void)neighbor_->ServeForAudit(user, worker.churn_rng);
      served += 2;
    };
    for (uint64_t t = 0; t < options_.toggles_per_thread; ++t) {
      Slot& slot = worker.slots[worker.toggle_rng.NextBounded(
          worker.slots.size())];
      // Same toggle on both services, with presence tracked locally — a
      // membership probe against the live graph could observe another
      // worker's in-flight toggle and desynchronize the sides.
      if (slot.present) {
        PRIVREC_CHECK_OK(base_->RemoveEdge(slot.a, slot.b));
        PRIVREC_CHECK_OK(neighbor_->RemoveEdge(slot.a, slot.b));
      } else {
        PRIVREC_CHECK_OK(base_->AddEdge(slot.a, slot.b));
        PRIVREC_CHECK_OK(neighbor_->AddEdge(slot.a, slot.b));
      }
      slot.present = !slot.present;
      ++applied;
      for (uint64_t c = 0; c < churn_per_toggle; ++c) churn();
    }
    for (uint64_t c = options_.toggles_per_thread * churn_per_toggle;
         c < options_.churn_serves_per_thread; ++c) {
      churn();
    }
    toggles.fetch_add(applied, std::memory_order_acq_rel);
    churns.fetch_add(served, std::memory_order_acq_rel);
  });
  toggles_applied_ += toggles.load();
  churn_serves_ += churns.load();
}

}  // namespace privrec
