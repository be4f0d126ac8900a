#ifndef PRIVREC_EVAL_SERVICE_AUDITOR_H_
#define PRIVREC_EVAL_SERVICE_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/privacy_accountant.h"
#include "eval/dp_auditor.h"
#include "gen/neighboring.h"
#include "graph/csr_graph.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "utility/utility_function.h"

namespace privrec {

struct ServiceStats;  // serve/recommendation_service.h

/// The release shape the auditor samples on each path.
enum class ServeAuditShape {
  /// ServeForAudit: one node id per trial, counted directly per outcome.
  kSingle = 0,
  /// ServeListForAudit: a k-slot peeling top-k list per trial, reduced to
  /// binomial outcome cells (position marginals, set membership with
  /// complements, bounded list identity — common/statistics.h
  /// ListOutcomeReduction) before the Clopper–Pearson machinery runs.
  kList = 1,
};

/// The statistical core of the sampling audit, usable standalone (property
/// tests drive their own serve loops and hand the histograms here): given
/// per-outcome counts from `trials` draws on each side of a neighboring
/// pair, returns the point-estimate ε̂ (max |ln(p̂/q̂)| with half-count
/// floors) and the Clopper–Pearson-certified lower bound (Bonferroni-
/// corrected across outcomes at `confidence`). `path_name` labels the
/// resulting entry. `bonferroni_override` != 0 replaces the correction's
/// cell count (gate self-tests only — an override below the true cell
/// count voids the certification).
PathEpsilonEstimate EstimateEpsilonFromCounts(
    const std::string& path_name,
    const std::map<NodeId, uint64_t>& base_counts,
    const std::map<NodeId, uint64_t>& neighbor_counts, uint64_t trials,
    double confidence, size_t bonferroni_override = 0);

struct ServiceAuditOptions {
  /// ε the audited services are configured to release at (the guarantee
  /// being audited).
  double release_epsilon = 0.5;
  /// Serve trials per side (base / neighbor) per audited path (> 0). The
  /// Clopper–Pearson half-widths shrink like 1/sqrt(trials); ~2500 per
  /// side resolves ratios of e^0.3 at 99% confidence on small fixtures.
  uint64_t trials_per_side = 2500;
  /// Overall confidence of the certified epsilon_lower_bound, Bonferroni-
  /// split across the per-outcome intervals.
  double confidence = 0.99;
  /// Root seed; every (path, side) gets a splittable sub-stream, so a
  /// fixed seed reproduces the audit exactly.
  uint64_t seed = 0x5eed'a0d1'7000ULL;
  /// Release shape sampled on every path (see ServeAuditShape).
  ServeAuditShape shape = ServeAuditShape::kSingle;
  /// List length for ServeAuditShape::kList.
  size_t list_k = 5;
  /// Nonzero overrides the Bonferroni cell count in every per-path
  /// estimate. GATE SELF-TEST ONLY: an override below the true cell count
  /// voids the certification — it exists so ci/sanitize.sh can inject a
  /// "dropped correction" regression and prove the gate catches it.
  size_t bonferroni_cells_override = 0;
  /// Privacy model the audited services run in (threaded into every
  /// ServiceOptions the auditor constructs). Under kNode, drive the audit
  /// with node-rewiring pairs (AuditNodeRewirings /
  /// SampleNodeRewiringPairs) — that IS the kNode neighboring relation,
  /// and an honest service must hold ε̂ <= ε on them.
  PrivacyModel privacy_model = PrivacyModel::kEdge;
  /// Degree cap of the audited services' node-DP projection (kNode only).
  /// Small by default: the tighter the cap relative to the fixture's
  /// degrees, the more work the projection actually does under audit.
  uint32_t degree_cap = 8;
  /// TRIP-WIRE: audit services that serve on the raw graph while
  /// calibrating to the capped node bound (ServiceOptions::
  /// uncap_projection). The audit must certify these as violations.
  bool uncap_projection = false;
};

/// Traffic shape for ServiceAuditor::AuditPairUnderMutation.
struct MutationAuditOptions {
  /// Concurrent mirrored-mutator threads (serve/concurrent_driver.h).
  unsigned mutator_threads = 2;
  /// Mutation-then-measure rounds. Measurement trials are split evenly
  /// across rounds (equal per-round counts are what make the aggregated
  /// counts a sound mixture: each round's state is identical-except-toggle
  /// on the two sides, so every mixture component is e^ε-bounded).
  uint64_t rounds = 6;
  /// Edge toggles each mutator thread applies per round (to both sides).
  uint64_t toggles_per_thread_per_round = 4;
  /// Budget-neutral churn serves each mutator thread issues per round.
  uint64_t churn_serves_per_thread_per_round = 8;
  /// Edge-delta journal capacity for both sides' graphs; 0 keeps the
  /// DynamicGraph default. Small values force journal fallbacks, putting
  /// the full-recompute repair route under audit too.
  size_t journal_capacity = 0;
};

/// Fault schedule for ServiceAuditor::AuditPairUnderFaults.
struct FaultAuditOptions {
  /// Installed IDENTICALLY on both sides' injectors (FaultPlan is
  /// comparable precisely so this symmetry is checkable). Identical plans
  /// driven by identical call sequences fire identically, so the two sides
  /// stay in mirrored fault states and every (parity, outcome) cell of an
  /// honest service remains e^ε-bounded — faults included.
  FaultPlan plan;
  /// Mirrored toggles of one common edge slot applied to BOTH sides
  /// between consecutive trials, so the fault points that only arm under
  /// mutation (journal compaction, patch failures, repair failure) keep
  /// firing throughout the audit. 0 = static graphs.
  uint64_t mutations_between_trials = 1;
  /// Retry policy for both sides' services. Left at the default (fail
  /// fast), a fail_serve plan makes the audit return an error — the CI
  /// gate's self-test relies on exactly that.
  RetryPolicy retry;
  /// Edge-delta journal capacity for both sides' graphs (0 keeps the
  /// DynamicGraph default). Small values compose with kJournalCompaction
  /// to force journal fallbacks under audit.
  size_t journal_capacity = 0;
};

/// Crash/recovery schedule for ServiceAuditor::AuditAcrossRecovery.
struct RecoveryAuditOptions {
  /// Installed IDENTICALLY on both sides before the pre-crash traffic
  /// (same symmetry contract as FaultAuditOptions::plan). The interesting
  /// plans enable the persist-layer crash points — kWalTornWrite,
  /// kLedgerPartialAppend, kCheckpointCrash; the plan is disarmed after
  /// the crash, so the post-recovery half runs clean.
  FaultPlan plan;
  /// Mirrored common-slot toggles applied to BOTH sides between
  /// consecutive trials (0 = static graphs). These go through the WAL, so
  /// kWalTornWrite actually bites; a torn WAL rejects the toggle on both
  /// sides identically and freezes the parity schedule symmetrically.
  uint64_t mutations_between_trials = 1;
  /// Budget-CHARGING mirrored serves of the target issued after the plan
  /// is armed and before the crash — the traffic the durable ledger must
  /// survive. The audit REFUSES (FailedPrecondition) when the recovered
  /// ledger spend is below what these serves charged in memory: that is
  /// the one state where certifying would launder a lost charge.
  uint64_t charged_serves_per_side = 4;
  /// Directory holding the two sides' durable state (WAL segments, budget
  /// ledger, checkpoints). REQUIRED. Wiped and recreated on entry so a
  /// fixed seed reproduces the audit byte for byte.
  std::string state_dir;
  /// Retry policy for both sides' services.
  RetryPolicy retry;
  /// Edge-delta journal capacity (0 keeps the DynamicGraph default).
  size_t journal_capacity = 0;
};

/// Black-box, sampling-based DP auditor for the serving stack. Where
/// AuditEdgeDp checks a mechanism's closed-form distribution on a static
/// CsrGraph, this auditor stands up two live RecommendationService
/// instances on the two sides of a NeighboringPair and estimates
///   ε̂ = max over audited paths and outcomes of |ln(Pr[serve(G)=o] /
///        Pr[serve(G')=o])|
/// from fixed-seed trials through the real serve paths (frozen cached
/// samplers, Δf ratchet, invalidation sweeps, sharding included). Each
/// per-path estimate comes with a Clopper–Pearson-certified lower bound
/// (DpAuditResult::per_path[i].epsilon_lower_bound): with probability >=
/// `confidence` the true ε of that path is at least the bound, so
///   - bound > configured ε  ==> certified privacy violation;
///   - point estimate ε̂ well under ε across many pairs ==> evidence (not
///     proof: a sampling audit can only ever lower-bound ε) the path
///     honors its budget.
class ServiceAuditor {
 public:
  /// Factory for the utility the audited services run; invoked once per
  /// service instance (services own their utility).
  using UtilityFactory = std::function<std::unique_ptr<UtilityFunction>()>;

  ServiceAuditor(UtilityFactory utility_factory, ServiceAuditOptions options);

  /// Audits one neighboring pair end to end on four static serve paths,
  /// each on fresh services: "cold" (a fresh service per trial: cache
  /// miss, snapshot pin, sensitivity compute, sampler freeze), "cache_hit"
  /// (one warm-up, then every trial hits the frozen cached sampler),
  /// "post_mutation" (warm-up, then one identical toggle of a common edge
  /// slot on both sides: invalidation, Δf ratchet, re-freeze) and
  /// "multi_shard" (cache hits on 8 shards). The returned result has one
  /// per_path entry per path, max_abs_log_ratio = the largest point
  /// estimate across paths, and worst_edge_u/v = the pair's toggled edge.
  /// Fails if `target` cannot be served on either side (no candidates) or
  /// the pair's sides disagree on node count/direction.
  Result<DpAuditResult> AuditPair(const NeighboringPair& pair,
                                  NodeId target) const;

  /// Samples up to `max_pairs` edge-toggle neighboring pairs of `graph`
  /// (gen/neighboring.h) and audits each, merging results per path by max.
  /// pairs_checked counts the pairs audited. The merged
  /// epsilon_lower_bound stays certified at `confidence`: each pair's
  /// intervals run at the Bonferroni-split confidence 1 - (1-γ)/K, so the
  /// max over the K pairs cannot inflate the joint failure probability.
  Result<DpAuditResult> AuditEdgeToggles(const CsrGraph& graph, NodeId target,
                                         size_t max_pairs, Rng& rng) const;

  /// Node-DP analog of AuditEdgeToggles: samples up to `max_pairs`
  /// node-rewiring pairs (gen/neighboring.h) and audits each through the
  /// same per-path machinery, merging per path by max with the same
  /// Bonferroni-split confidence. The meaningful combination is
  /// options().privacy_model == kNode — node rewiring is that mode's
  /// neighboring relation; under kEdge the merged ε̂ measures Appendix A's
  /// edge-vs-node gap instead and must not be asserted <= ε.
  Result<DpAuditResult> AuditNodeRewirings(const CsrGraph& graph,
                                           NodeId target, size_t max_pairs,
                                           Rng& rng) const;

  /// Audits the pair while `mutation.mutator_threads` concurrent workers
  /// apply IDENTICAL deterministic edge-toggle streams to both sides
  /// (serve/concurrent_driver.h MirroredMutator) — certifying the
  /// keep-or-recompute repair + PatchCsr stack under live load, not
  /// just after a single pre-audit toggle. Runs `mutation.rounds` phases:
  /// concurrent mutation+churn, barrier, then a single-threaded
  /// measurement slice of trials_per_side / rounds trials per side on a
  /// 2-shard service. The result has one per_path entry named
  /// "under_mutation" (shape and statistics per ServiceAuditOptions).
  /// `stats_out`, when non-null, receives the two sides' summed
  /// ServiceStats — the test hook for asserting the repair machinery
  /// (delta_kept/patched/recomputed, journal_fallbacks) actually ran.
  Result<DpAuditResult> AuditPairUnderMutation(
      const NeighboringPair& pair, NodeId target,
      const MutationAuditOptions& mutation,
      ServiceStats* stats_out = nullptr) const;

  /// Audits the pair with `faults.plan` installed IDENTICALLY on both
  /// sides: between trials, one common edge slot is toggled on both
  /// services (keeping them neighbors), and the injected faults force the
  /// rare fallback routes — journal compaction under a pinned window,
  /// snapshot/projection patch failure, repair abandonment, shard stalls —
  /// to be the routes actually under audit. Outcome cells are keyed by
  /// toggle parity (the graph state cycles with period 2; the parity is
  /// public schedule, and at equal parity the two sides are neighbors), so
  /// every cell of an honest service is e^ε-bounded even though each
  /// trial's graph state differs. The result has one per_path entry named
  /// "under_faults". A fail_serve plan whose failures outlast
  /// `faults.retry` makes the audit return the Unavailable error instead
  /// of a result — refusing to certify a service that refused to serve.
  /// `stats_out`, when non-null, receives the two sides' summed
  /// ServiceStats (injected_faults / stale_fallback_serves /
  /// journal_fallbacks prove the faults actually fired).
  Result<DpAuditResult> AuditPairUnderFaults(
      const NeighboringPair& pair, NodeId target,
      const FaultAuditOptions& faults,
      ServiceStats* stats_out = nullptr) const;

  /// Audits the pair ACROSS a crash/recovery boundary, on both sides
  /// symmetrically: stand the services up on durable state (WAL + budget
  /// ledger + an initial checkpoint under `recovery.state_dir`), arm
  /// `recovery.plan`, run charged traffic and the first half of the
  /// trials, attempt a mid-audit checkpoint, then simulate a process
  /// death (SimulateCrash on WAL and ledger, services destroyed) and
  /// recover — WAL replay past the authoritative checkpoint, accountants
  /// reseeded from the recovered ledger — before running the second half
  /// of the trials on the recovered services. Outcome cells are keyed by
  /// toggle parity exactly as in AuditPairUnderFaults (recovery is exact,
  /// so the parity→graph-state mapping survives the boundary) and the
  /// estimate pools both halves: an honest, crash-safe service keeps
  /// every cell e^ε-bounded even when half its samples were served by a
  /// different process incarnation. The result has one per_path entry
  /// named "across_recovery".
  ///
  /// Refusals (no certification): FailedPrecondition when the recovered
  /// per-target ledger spend is LESS than what the pre-crash services
  /// charged in memory (a lost charge — the kLedgerPartialAppend state);
  /// any WAL/ledger/checkpoint recovery error propagates. Single shape
  /// only (kList → InvalidArgument). `stats_out` receives the four
  /// services' summed stats (pre-crash + recovered).
  Result<DpAuditResult> AuditAcrossRecovery(
      const NeighboringPair& pair, NodeId target,
      const RecoveryAuditOptions& recovery,
      ServiceStats* stats_out = nullptr) const;

  const ServiceAuditOptions& options() const { return options_; }

 private:
  /// AuditPair with the per-pair confidence overridden (multi-pair audits
  /// split their confidence budget across pairs).
  Result<DpAuditResult> AuditPairAtConfidence(const NeighboringPair& pair,
                                              NodeId target,
                                              double confidence) const;

  /// Audits every pair at the Bonferroni-split per-pair confidence and
  /// merges per path by max (the shared tail of AuditEdgeToggles /
  /// AuditNodeRewirings; `pairs` must be non-empty).
  Result<DpAuditResult> AuditPairsMerged(
      const std::vector<NeighboringPair>& pairs, NodeId target) const;

  UtilityFactory utility_factory_;
  ServiceAuditOptions options_;
};

}  // namespace privrec

#endif  // PRIVREC_EVAL_SERVICE_AUDITOR_H_
