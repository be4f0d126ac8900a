#ifndef PRIVREC_SERVE_CONCURRENT_DRIVER_H_
#define PRIVREC_SERVE_CONCURRENT_DRIVER_H_

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"

namespace privrec {

/// Traffic shape for one MirroredMutator::RunPhase call.
struct MirroredMutatorOptions {
  /// Concurrent mutator/churn workers per phase.
  unsigned num_threads = 2;
  /// Edge toggles each worker applies (to BOTH services) per phase.
  uint64_t toggles_per_thread = 4;
  /// Budget-neutral ServeForAudit calls each worker issues per phase on
  /// non-target users (outputs discarded): cache churn that forces the
  /// delta-repair machinery to run concurrently with the mutations.
  uint64_t churn_serves_per_thread = 8;
  /// Seed for the per-thread toggle and churn streams.
  uint64_t seed = 0x1217'0a5e'ed00ULL;
};

/// Identical-toggle mutation engine behind the audit-under-mutation path
/// (ServiceAuditor::AuditPairUnderMutation): drives `num_threads` workers
/// that apply the SAME deterministic edge-toggle streams to BOTH services
/// of a neighboring pair, so the two graphs stay neighbors (identical
/// except the pair's differing edge) through every intermediate state.
///
/// Determinism and disjointness: the eligible edge slots — ordered arcs
/// (undirected: unordered pairs) not incident to the audited target and
/// not the pair's differing edge — are partitioned round-robin into
/// per-thread pools at construction. Each worker toggles only its own
/// slots, tracking presence itself, so (a) two workers never race on one
/// slot, (b) no membership probe is needed (a probe could observe another
/// worker's in-flight toggle and diverge between the sides), and (c) the
/// end-of-phase graph state is a deterministic function of (seed, thread
/// count, phase count) regardless of scheduling. Worker streams persist
/// across phases, so successive RunPhase calls keep walking fresh state.
///
/// The audited target is never served or touched by toggles during a
/// phase: the measurement trials that follow (run by the auditor, after
/// RunPhase returns) then see a deterministic graph state, which is what
/// lets equal-trials-per-phase measurement counts compose into a sound
/// mixture bound.
class MirroredMutator {
 public:
  /// `base`/`neighbor` serve the two sides of the pair; `initial` is the
  /// base side's starting graph (slot presence is read from it once —
  /// eligible slots agree on both sides by construction). (`skip_u`,
  /// `skip_v`) is the pair's differing edge. Both services must outlive
  /// the mutator.
  MirroredMutator(RecommendationService* base, RecommendationService* neighbor,
                  const CsrGraph& initial, NodeId target, NodeId skip_u,
                  NodeId skip_v, const MirroredMutatorOptions& options);

  /// Runs one concurrent mutation+churn phase to completion (all workers
  /// joined on return — callers may measure sequentially afterwards).
  void RunPhase();

  /// Toggles applied per side (each counted once, not once per service).
  uint64_t toggles_applied() const { return toggles_applied_; }
  /// Churn ServeForAudit calls issued (both sides summed).
  uint64_t churn_serves() const { return churn_serves_; }

 private:
  struct Slot {
    NodeId a = 0;
    NodeId b = 0;
    bool present = false;
  };
  struct Worker {
    std::vector<Slot> slots;
    Rng toggle_rng;
    Rng churn_rng;
    Worker(uint64_t toggle_seed, uint64_t churn_seed)
        : toggle_rng(toggle_seed), churn_rng(churn_seed) {}
  };

  RecommendationService* base_;
  RecommendationService* neighbor_;
  NodeId target_;
  NodeId num_nodes_;
  MirroredMutatorOptions options_;
  std::vector<Worker> workers_;
  uint64_t toggles_applied_ = 0;
  uint64_t churn_serves_ = 0;
};

}  // namespace privrec

#endif  // PRIVREC_SERVE_CONCURRENT_DRIVER_H_
