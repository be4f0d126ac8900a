#ifndef PRIVREC_SERVE_RECOMMENDATION_SERVICE_H_
#define PRIVREC_SERVE_RECOMMENDATION_SERVICE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/exponential_mechanism.h"
#include "core/privacy_accountant.h"
#include "core/topk.h"
#include "graph/dynamic_graph.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "utility/utility_function.h"

namespace privrec {

class BudgetLedger;
class WriteAheadLog;

/// Configuration of a RecommendationService.
struct ServiceOptions {
  /// ε charged per single recommendation served.
  double release_epsilon = 0.5;
  /// Lifetime ε budget per user (sequential composition cap).
  double per_user_budget = 5.0;
  /// Maximum cached utility vectors, split evenly across shards (at least
  /// one entry per shard). A miss on a full shard first purges every entry
  /// the journal floor has passed (doomed_evictions); only when there is
  /// none does it evict the shard's least recently used entry, exactly.
  size_t cache_capacity = 4096;
  /// Number of shards (striped slices of users). 0 = auto: the hardware
  /// concurrency rounded up to a power of two, capped at 64. Values > 0
  /// are also rounded up to a power of two.
  size_t num_shards = 0;
  /// Seed for the per-shard RNG streams used by the Rng-less Serve
  /// overloads. Two services with equal seeds (and equal shard counts)
  /// serve identical sequences for identical call sequences.
  uint64_t seed = 0x5eedf00dULL;
  /// Which neighboring relation the service's DP guarantee is stated
  /// against (core/privacy_accountant.h). kEdge (default): neighbors
  /// differ in one edge; every release runs on the raw snapshot and
  /// calibrates with SensitivityBound. kNode: neighbors differ in one
  /// node's ENTIRE adjacency (Appendix A's rewiring pairs); every release
  /// then runs on the degree-capped projected view (degree_cap,
  /// graph/degree_cap.h) and calibrates with the utility's
  /// NodeSensitivityBound on that view — without the cap, one rewired hub
  /// has unbounded influence and no finite calibration is sound.
  PrivacyModel privacy_model = PrivacyModel::kEdge;
  /// Degree cap D of the node-DP projection (ignored under kEdge; must be
  /// > 0 under kNode). Each node keeps its D smallest out-neighbors.
  uint32_t degree_cap = 16;
  /// TRIP-WIRE / TEST ONLY: under kNode, serve on the RAW graph while
  /// still calibrating to the capped NodeSensitivityBound — the canonical
  /// broken node-DP deployment the audit harness must certify as a
  /// violation (eval/service_auditor.h, bench/audit_landscape.cc). Never
  /// enable in production.
  bool uncap_projection = false;
  /// Continual-observation budget windows layered over the lifetime
  /// budget (core/privacy_accountant.h). Disabled by default.
  BudgetWindowPolicy budget_window;
  /// Deterministic fault injector (serve/fault_injection.h), not owned;
  /// must outlive the service. The constructor also installs it on the
  /// graph, arming the graph-layer points (journal compaction, snapshot /
  /// projection patch failure); the service itself evaluates kRepairFail,
  /// kShardStall, and fail_serve rules. nullptr (default) leaves every
  /// hook at its one-relaxed-load disarmed cost.
  FaultInjector* fault_injector = nullptr;
  /// Per-shard admission control + budget-aware load shedding
  /// (serve/fault_injection.h). Both caps default to 0: admit everything.
  OverloadPolicy overload;
  /// Bounded retries with deterministic backoff for transient
  /// (kUnavailable) failures: injected no-fallback faults and shed
  /// requests. Default: fail fast.
  RetryPolicy retry;
  /// Durable edge-delta journal (persist/wal.h), not owned; must outlive
  /// the service. The constructor attaches it to the graph, which then
  /// appends every mutation to the WAL BEFORE applying it in memory —
  /// recovery (persist/checkpoint.h) replays the suffix past the last
  /// checkpoint. nullptr (default) leaves mutations memory-only, the
  /// pre-durability fast path.
  WriteAheadLog* wal = nullptr;
  /// Durable per-user privacy-charge ledger (persist/budget_ledger.h), not
  /// owned; must outlive the service. When set, every budget-charging
  /// serve appends its charge to the ledger — and fsyncs — BEFORE the
  /// noised release leaves the service. A crash between the append and the
  /// release loses utility (a charge with no answer), never privacy: the
  /// recovered accountants can only over-count, not under-count. nullptr
  /// (default) keeps accounting memory-only.
  BudgetLedger* budget_ledger = nullptr;
};

/// Serving statistics. Returned by value from stats(): an exact sum of the
/// per-shard counters at the moment each shard was visited (exact whenever
/// the service is quiescent).
struct ServiceStats {
  uint64_t served = 0;
  uint64_t refused_budget = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Cached entries whose vector had to be rebuilt from scratch because
  /// journal repair was unavailable (non-incremental utility, kNode, or
  /// journal fallback). Counted when the stale entry is visited, which is
  /// when the pre-incremental design would have erased it; also counted in
  /// cache_misses.
  uint64_t cache_invalidations = 0;
  /// Cache hits that could reuse the frozen sampler as-is (no sensitivity
  /// drift since it was built).
  uint64_t sampler_reuses = 0;
  /// Releases performed by ServeForAudit (not counted in `served` and not
  /// charged against any lifetime budget).
  uint64_t audit_serves = 0;
  /// List releases performed by ServeListForAudit (same contract as
  /// audit_serves: not in `served`, budget-neutral).
  uint64_t audit_list_serves = 0;
  /// Repair outcomes for cached entries visited after the graph version
  /// moved. Each stale visit takes one route: delta_kept, delta_recomputed,
  /// or the fallback recompute (cache_invalidations, plus
  /// journal_fallbacks when the journal could not cover the window).
  /// Journal drained, entry unaffected by every delta — kept as-is,
  /// frozen sampler and all (the O(1) survival path); counted as a hit.
  uint64_t delta_kept = 0;
  /// Always 0: repair keeps or recomputes and never patches a vector. The
  /// field stays because perfbench's traced report reads it.
  uint64_t delta_patched = 0;
  /// Affected by the drained window — that one entry is recomputed against
  /// the pinned snapshot; no other entry pays. Counted as a miss.
  uint64_t delta_recomputed = 0;
  /// Journal could not cover the window (ring compaction or AddNode):
  /// the visit fell back to the full-recompute path. Journal-aware
  /// eviction keeps this a signal of journal undersizing: entries the
  /// compaction already doomed are purged at eviction time (see
  /// doomed_evictions) instead of lingering until a visit lands here.
  uint64_t journal_fallbacks = 0;
  /// Entries purged by journal-aware eviction because the journal floor
  /// passed their version (they could never be delta-repaired; their next
  /// visit would have been a journal_fallback recompute anyway).
  uint64_t doomed_evictions = 0;
  /// Wall time spent recomputing affected entries (delta_recomputed
  /// events, support-index rebuild included). Keeps the repair path's cost
  /// observable without timing every serve: kept entries and sampler work
  /// are excluded, so repair_ns / delta_recomputed is the average price of
  /// a repair under the current traffic.
  uint64_t repair_ns = 0;
  /// Serves refused because the user's current budget WINDOW was
  /// exhausted while the lifetime budget still had room
  /// (BudgetWindowPolicy). Under kDegrade, only the serves that could not
  /// even afford the degraded epsilon land here.
  uint64_t refused_window = 0;
  /// Serves completed at the degraded epsilon (release_epsilon /
  /// degrade_factor) because the window could not afford the full charge
  /// (BudgetWindowPolicy::Exhaustion::kDegrade). Also counted in `served`.
  uint64_t degraded_serves = 0;
  /// Budget-window rollovers observed across all users (each is one
  /// user's window spend resetting at a tumbling-window boundary).
  uint64_t window_refreshes = 0;
  /// Requests shed by the overload ladder before touching the shard mutex
  /// (OverloadPolicy): hard queue-depth cap or budget-aware shedding. Shed
  /// requests never reach the accountant, so they are not in served /
  /// refused_budget and spend no ε.
  uint64_t shed_overload = 0;
  /// Retry attempts the bounded-retry wrapper issued after a transient
  /// (kUnavailable) failure (RetryPolicy). Each retry is one extra pass
  /// through the serve path; the final outcome lands in the usual
  /// counters.
  uint64_t retries = 0;
  /// Serves whose cached entry was refreshed through the FORCED
  /// full-recompute fallback — the journal could not replay the window
  /// (journal_fallbacks) or an injected kRepairFail abandoned repair —
  /// as opposed to repair being structurally unavailable. The fallback is
  /// exact (fresh Compute against the pinned snapshot), so these serves
  /// release correct, fully calibrated answers; the counter tracks how
  /// often the degraded route ran, not an accuracy loss.
  uint64_t stale_fallback_serves = 0;
  /// Fault-point fires observed by this service: serve-path evaluations
  /// (kRepairFail, kShardStall, fail_serve admission faults) counted per
  /// shard, plus — folded in by stats() — the graph-layer fires
  /// (journal compaction, snapshot/projection patch failure) of the
  /// installed injector. 0 unless a FaultPlan is armed. When a WAL or
  /// ledger shares the injector, stats() folds their persist-layer fires
  /// (torn appends, checkpoint crashes) in here too.
  uint64_t injected_faults = 0;
  /// Durable ledger records appended by the ledger-before-release rule
  /// (ServiceOptions::budget_ledger). Equals the number of charged serves
  /// completed since the ledger was attached, except when a crash landed
  /// between the append and the release.
  uint64_t ledger_appends = 0;

  /// Adds every counter of `other`: the one place the fields are listed
  /// for summing (shards in stats(), both sides of an audit).
  ServiceStats& operator+=(const ServiceStats& other);
};

/// The production wrapper a deployment would put around this library:
/// serves private recommendations over a live (mutating) social graph,
/// with
///  - per-user privacy accounting (refuses service when a user's lifetime
///    budget is spent — the only sound failure mode),
///  - a utility-vector cache repaired precisely when a graph update can
///    change a cached vector (for the 2-hop utility families, an update
///    (u,v) affects target r only if u or v lies in {r} ∪ N(r); this
///    service is restricted to those utilities),
///  - exponential-mechanism releases calibrated to the utility's
///    sensitivity on the current graph.
///
/// Incremental maintenance (the mutation-heavy fast path; README
/// "Incremental maintenance"): AddEdge/RemoveEdge only mutate the
/// DynamicGraph — O(1), no cache sweep; the graph's edge-delta journal
/// carries the history. A cached entry whose version lags the shard's
/// pinned snapshot is repaired lazily on its next visit by draining the
/// journal between the two stamps, and then kept or recomputed:
///  - keep: the utility's exact keep test (EdgeDeltaWindowAffects,
///    evaluated over the whole window against the post-window snapshot —
///    Jaccard widens the structural rule by the cached support, Katz and
///    PPR test their walk cone) clears the window → the entry is kept
///    wholesale, frozen sampler and support index included: a cache-hit
///    serve after an unrelated toggle stays one O(1) alias draw plus, for
///    a zero-block pick, one O(log s) resolution (see Fast path);
///  - recompute: the window can change the vector → that one entry is
///    recomputed against the snapshot, its sampler re-frozen on demand and
///    its calibration re-anchored at the snapshot's Δf;
///  - fallback: journal compacted past the entry's version, AddNode in the
///    window, an injected kRepairFail, kNode, or a utility without
///    incremental support → full recompute of that entry (the baseline
///    path), still touching no other entry. A graph with journaling off
///    (DynamicGraph::SetJournalCapacity(0)) sends every stale visit here.
/// Eviction is journal-aware: at capacity, entries the journal floor
/// already passed (never again repairable) are purged first; LRU applies
/// only when every entry is still repairable.
/// Every kept or recomputed entry's vector equals a fresh Compute against
/// the pinned snapshot, so each release stays ε-DP calibrated to the
/// graph state it reflects; the calibration ratchet still covers
/// sensitivity drift for kept entries.
///
/// Serve flow: every Serve* method, audits included, runs the same steps in
/// the same order — dispatch (range check, shard, shed/retry ladder, shard
/// mutex) → admit (serve faults, then the budget rule) → pin (snapshot) →
/// entry (cache lookup or repair) → commit (ledger, then accountant) →
/// release. The single and list shapes differ only in their release (and
/// the list's up-front k checks), so no release can escape its charge.
///
/// Thread safety (sharded): users are striped across N shards by a mixed
/// hash of their id. Each shard owns its slice of the accountant map, the
/// utility-vector cache, one UtilityWorkspace, and one RNG stream, all
/// guarded by the shard's mutex, which is held for the duration of one
/// Serve call. Concurrent Serve/ServeList calls for users on different
/// shards never contend; calls for the same user serialize, which is what
/// makes budget accounting exact under races (charge and release happen in
/// one critical section). Graph mutations go through the thread-safe
/// DynamicGraph only; repair happens shard-locally under the shard mutex.
///
/// Fast path: the service never copies the graph — it rides the
/// DynamicGraph's RCU snapshot (lock-free atomic load when unmutated) —
/// and each cache entry carries a frozen RecommendationSampler plus a
/// node-sorted SupportIndex, so a cache-hit single recommendation is one
/// O(1) alias-table draw and, when the draw lands in the zero-utility
/// block (95-99% of picks on a sparse social graph), an O(log s)
/// binary-search resolution over the target's support of size s. The
/// index is built once per vector version, at 4 B per support entry, so
/// a hit's cost no longer grows linearly with the target's 2-hop
/// neighbourhood (serve latency is itself a side channel). The
/// sampler is rebuilt from the cached utilities only when the utility's
/// sensitivity drifted since it was frozen (a mutation elsewhere in the
/// graph can change the global Δf without touching this user's vector).
///
/// The Rng& overloads use the caller's generator (single-threaded
/// replay/debug path: the caller must not share one Rng across concurrent
/// calls); the Rng-less overloads use the shard's own stream and are the
/// concurrency-safe default.
class RecommendationService {
 public:
  /// `graph` and `utility` must outlive the service. The utility must be
  /// 2-hop local (common neighbors / Adamic-Adar / resource allocation /
  /// Jaccard); this is a documented contract, not something the type
  /// system can check.
  RecommendationService(DynamicGraph* graph,
                        std::unique_ptr<UtilityFunction> utility,
                        const ServiceOptions& options);

  /// Serves one ε-DP recommendation to `user`, charging their budget.
  /// FailedPrecondition when the budget is exhausted or the user has no
  /// candidates.
  Result<NodeId> ServeRecommendation(NodeId user, Rng& rng);

  /// Same, drawing randomness from the user's shard stream.
  Result<NodeId> ServeRecommendation(NodeId user);

  /// Serves a k-slot list via the peeling mechanism, charging the same
  /// release_epsilon total (split ε/k per slot inside).
  Result<TopKResult> ServeList(NodeId user, size_t k, Rng& rng);

  /// Same, drawing randomness from the user's shard stream.
  Result<TopKResult> ServeList(NodeId user, size_t k);

  /// Audit hook for the black-box DP auditor (eval/service_auditor.h):
  /// identical to ServeRecommendation(user, rng) through every real code
  /// path — shard routing, snapshot pinning, sensitivity memo, cache
  /// lookup, calibration ratchet, frozen-sampler draw, zero-block
  /// resolution — except that the user's lifetime budget is neither
  /// checked nor charged. An audit needs thousands of trials per user to
  /// estimate the output distribution; charging them would either exhaust
  /// the real budget (refusing the very trials the audit needs) or force
  /// the auditor onto a synthetic side path that is not the code being
  /// audited. Counted in ServiceStats::audit_serves, NOT in `served`, so
  /// budget-exactness invariants over `served` are unaffected. Production
  /// callers must not use this to bypass accounting — it exists so the
  /// audit can observe per-trial outcomes without double-charging the
  /// lifetime ε that the single real release already spent.
  Result<NodeId> ServeForAudit(NodeId user, Rng& rng);

  /// List-release analog of ServeForAudit: identical to
  /// ServeList(user, k, rng) through every real code path — candidate
  /// validation, cache lookup/repair, calibration ratchet, the peeling
  /// top-k mechanism — except that the lifetime budget is neither checked
  /// nor charged. Counted in ServiceStats::audit_list_serves, NOT in
  /// `served`. Same contract and caveats as ServeForAudit.
  Result<TopKResult> ServeListForAudit(NodeId user, size_t k, Rng& rng);

  /// Applies a graph mutation. O(1): the edge-delta journal records the
  /// toggle and stale cache entries are repaired lazily, per shard, on
  /// their next serve (no synchronous sweep). Mutating the DynamicGraph
  /// directly is equivalent — the journal sees those toggles too.
  Status AddEdge(NodeId u, NodeId v);
  Status RemoveEdge(NodeId u, NodeId v);

  /// Remaining lifetime ε for `user` (full budget if never served).
  double RemainingBudget(NodeId user) const;

  /// ε spent inside `user`'s CURRENT budget window (0 if never served or
  /// the window policy is disabled). Observability for the
  /// continual-observation tests and dashboards.
  double WindowSpent(NodeId user) const;

  /// Sum of the per-shard counters.
  ServiceStats stats() const;

  /// Writes a crash-consistent checkpoint of the current graph state to
  /// `dir` and prunes the durable journals behind it:
  ///  1. under the graph's writer lock (DynamicGraph::AtomicCheckpointView
  ///     — no mutation can land in between), flush + fsync the WAL
  ///     (group-commit buffer included) and capture {snapshot, last WAL
  ///     seq}, so the recorded seq is durable,
  ///  2. write the graph file + manifest durably (tmp + fsync + rename;
  ///     the manifest rename is the commit point),
  ///  3. truncate fully-covered WAL segments and compact the budget
  ///     ledger.
  /// Requires ServiceOptions::wal. On any failure the previous checkpoint
  /// (or none) stays authoritative — recovery just replays a longer WAL
  /// suffix.
  Status SaveCheckpoint(const std::string& dir);

  /// RECOVERY ONLY: seeds `user`'s accountant with a durably recorded
  /// lifetime spend (BudgetLedger::SpentByUser) after a restart. Routes to
  /// PrivacyAccountant::RestoreSpent — raises only, may exceed the budget
  /// (the accountant then refuses everything, the conservative posture).
  void ImportSpentBudget(NodeId user, double spent);

  /// Convenience over ImportSpentBudget for a whole recovered ledger map.
  void ImportSpentBudgets(const std::unordered_map<NodeId, double>& spent);

  size_t num_shards() const { return shards_.size(); }

 private:
  struct CacheEntry {
    /// A fresh entry for `utilities`, calibrated at `sensitivity`, with no
    /// sampler frozen yet. The only place a support index is built: every
    /// route that replaces a cached vector (miss, recompute of an affected
    /// entry, journal fallback, the kNode per-version recompute) assigns a
    /// newly constructed entry, so `support` always indexes `utilities`; a
    /// kept entry keeps both. `scratch` is the index sort's buffer.
    CacheEntry(UtilityVector vec, double sensitivity,
               std::vector<NodeId>& scratch)
        : utilities(std::move(vec)),
          support(utilities, scratch),
          calibration_sensitivity(sensitivity) {}

    UtilityVector utilities;
    /// Node-sorted support of `utilities`: zero-block resolution is a
    /// binary search (core/mechanism.h), 4 B per support entry.
    SupportIndex support;
    /// The Δf this entry's releases are calibrated at. Ratchets up to
    /// max(creation-time Δf, every Δf observed on later hits): a larger
    /// calibration only adds noise, so it stays ε-DP both for a still-valid
    /// entry (vector equals the current graph's) and for an entry caught in
    /// the mutation-to-invalidation-sweep window (vector reflects the
    /// pre-mutation graph) — without having to distinguish the two.
    double calibration_sensitivity = 0;
    /// Frozen alias sampler for the single-recommendation release
    /// (release_epsilon, sampler_sensitivity). Built lazily — only the
    /// single-recommendation path draws from it — and rebuilt from
    /// `utilities` when the calibration ratchets.
    std::optional<RecommendationSampler> sampler;
    double sampler_sensitivity = 0;
  };

  /// One cached user: the 32 B of metadata eviction scans, with the entry
  /// itself behind a pointer (see EvictIfNeededLocked).
  struct CacheSlot {
    NodeId user = 0;
    /// Graph version `entry->utilities` reflects (a snapshot stamp). A
    /// lagging stamp triggers journal repair on the next visit.
    uint64_t version = 0;
    /// The shard clock at the last visit; unique within a shard.
    uint64_t last_used = 0;
    std::unique_ptr<CacheEntry> entry;
  };

  struct Shard {
    mutable std::mutex mu;
    /// The utility-vector cache: one slot per cached user, densely packed
    /// in no particular order, and each user's index into it.
    std::vector<CacheSlot> cache;
    std::unordered_map<NodeId, uint32_t> slot_of;
    std::unordered_map<NodeId, PrivacyAccountant> accountants;
    UtilityWorkspace workspace;
    /// Radix-sort buffer for CacheEntry's support index; shard-local like
    /// the workspace, so steady-state index builds allocate nothing.
    std::vector<NodeId> index_scratch;
    /// The shard's private randomness stream (Rng-less overloads).
    Rng rng;
    uint64_t clock = 0;
    ServiceStats stats;
    /// Shard-pinned graph snapshot, revalidated against the atomic
    /// version() stamp each request: the steady-state serve path takes no
    /// graph-side lock and generates no shared refcount traffic.
    DynamicGraph::StampedSnapshot pinned;
    /// Per-shard sensitivity memo for pinned.version (recomputing Δf can
    /// cost an O(n) degree scan; shard-local so shards never share a memo
    /// cacheline).
    double sensitivity = 0;
    uint64_t sensitivity_version = 0;
    bool sensitivity_valid = false;
    /// Requests admitted (or queued on `mu`) but not yet finished. Read
    /// lock-free by the admission check; maintained by InflightGuard.
    std::atomic<uint32_t> inflight{0};
    /// Overload/retry tallies live outside `mu` (they are incremented
    /// before it is ever taken), hence atomics rather than ServiceStats
    /// fields; stats() folds them in.
    std::atomic<uint64_t> shed_overload{0};
    std::atomic<uint64_t> retries{0};
    /// Remaining-budget hints for budget-aware shedding. A side map, NOT
    /// the accountants: admission must not take `mu`, so it reads a
    /// cheap snapshot maintained after every charge/refusal under this
    /// dedicated mutex (lock order: mu -> budget_mu; admission takes
    /// budget_mu alone). Absent user => full per_user_budget.
    mutable std::mutex budget_mu;
    std::unordered_map<NodeId, double> remaining_hint;

    explicit Shard(uint64_t seed) : rng(seed) {}
  };

  Shard& ShardFor(NodeId user) {
    return *shards_[ShardIndex(user)];
  }
  const Shard& ShardFor(NodeId user) const {
    return *shards_[ShardIndex(user)];
  }
  size_t ShardIndex(NodeId user) const;

  /// The graph every serve-path read goes through: the degree-capped
  /// projected view under kNode (unless the uncap_projection trip-wire
  /// left the snapshot unprojected), the raw snapshot otherwise.
  /// Sensitivity, candidate counts, utility computation, and zero-block
  /// resolution must all read the SAME view — a mixed read de-calibrates
  /// the release.
  const CsrGraph& ServingView(const DynamicGraph::StampedSnapshot& snap) const;

  /// The utility's sensitivity for `snap`'s version, memoized per shard.
  /// Caller holds `shard.mu`.
  double SensitivityForLocked(Shard& shard,
                              const DynamicGraph::StampedSnapshot& snap);

  /// Finds (or creates) the user's accountant. Caller holds `shard.mu`.
  PrivacyAccountant& AccountantForLocked(Shard& shard, NodeId user);

  /// What admission decided: the ε the release is calibrated at (and, when
  /// charged, spends), and whether the budget window degraded it.
  struct Admission {
    double epsilon = 0;
    bool degraded = false;
    bool charged = true;  // false on the audit path: no accountant, no ledger
  };

  /// The one entry of every public Serve* method: range check, shard pick,
  /// then the overload ladder — admission (shed in O(1) before the mutex),
  /// `body(shard)` under the shard mutex, bounded retry with deterministic
  /// backoff on transient (kUnavailable) failures. Retries re-run
  /// admission: a shard that is still saturated sheds the retry too.
  /// Budget-neutral by construction — kUnavailable is returned before any
  /// charge.
  template <typename Body>
  std::invoke_result_t<Body&, Shard&> Dispatch(NodeId user, Body body);

  /// The first step under the shard mutex. Runs the injected serve faults
  /// (InjectServeFaultsLocked), then, for a charged serve, ticks the
  /// user's budget window and applies the lifetime and window rules:
  /// kDegrade falls back to release_epsilon / degrade_factor while that
  /// still fits, anything else is a refusal — counted in refused_budget or
  /// refused_window and returned with the accountant's message. Charges
  /// nothing. `reason` names the release in the accountant's records.
  Result<Admission> AdmitLocked(Shard& shard, NodeId user, bool charge_budget,
                                std::string_view reason);

  /// The shard's pinned snapshot, refreshed from the graph iff the atomic
  /// version stamp moved; InvalidArgument when it does not contain `user`.
  /// Caller holds `shard.mu`.
  Result<const DynamicGraph::StampedSnapshot*> PinLocked(Shard& shard,
                                                         NodeId user);

  /// Fetches (or computes and caches) the user's entry with its
  /// calibration ratcheted against `snap`'s sensitivity; freezes the alias
  /// sampler only when `need_sampler`. Stale entries are repaired first
  /// (RepairEntryLocked). Caller holds `shard.mu`.
  Result<CacheEntry*> GetEntryLocked(Shard& shard, NodeId user,
                                     const DynamicGraph::StampedSnapshot& snap,
                                     bool need_sampler);

  /// A fresh entry for `user`: Compute on ServingView(snap), calibrated at
  /// `sensitivity`. Every route that replaces a vector (miss, recompute,
  /// fallback) builds through here. Caller holds `shard.mu`.
  CacheEntry ComputeEntryLocked(Shard& shard, NodeId user,
                                const DynamicGraph::StampedSnapshot& snap,
                                double sensitivity);

  /// Brings an entry whose `version` lags `snap` up to date: journal-drain
  /// keep when the window cannot change it, recompute otherwise (see the
  /// class comment). Updates the delta_* / cache_* stats; the caller restamps
  /// the slot. Caller holds `shard.mu`.
  void RepairEntryLocked(Shard& shard, NodeId user,
                         const DynamicGraph::StampedSnapshot& snap,
                         double sensitivity, uint64_t version,
                         CacheEntry& entry);

  /// The last step before a release, after the shape's last failure check:
  /// ledger-before-release (the durable append, then the in-memory charge),
  /// then the budget hint. A failed append returns with nothing charged.
  /// No-op for an audit serve.
  Status CommitLocked(Shard& shard, NodeId user, const Admission& admission,
                      std::string_view reason);

  /// Counts one completed release: served (and degraded_serves) when
  /// charged, otherwise `audit_counter`, the shape's audit_* field.
  static void CountRelease(ServiceStats& stats, const Admission& admission,
                           uint64_t& audit_counter);

  /// The two release shapes. `charge_budget` == false is the audit path
  /// (ServeForAudit / ServeListForAudit).
  Result<NodeId> ServeLocked(Shard& shard, NodeId user, Rng& rng,
                             bool charge_budget = true);
  Result<TopKResult> ServeListLocked(Shard& shard, NodeId user, size_t k,
                                     Rng& rng, bool charge_budget = true);

  void EvictIfNeededLocked(Shard& shard);

  /// Evaluates the injector's serve-path faults for this request: a firing
  /// fail_serve rule returns kUnavailable (no fallback — the RetryPolicy's
  /// food), a firing kShardStall sleeps stall_micros under the shard
  /// mutex. Runs BEFORE any accountant work, so injected failures are
  /// budget-neutral. Caller holds `shard.mu`.
  Status InjectServeFaultsLocked(Shard& shard);

  /// Overload-ladder admission (OverloadPolicy), checked BEFORE the shard
  /// mutex. Returns true to admit; false to shed, with *shed_status set to
  /// kUnavailable and the shard's shed_overload bumped. Never touches the
  /// accountant.
  bool AdmitOrShed(Shard& shard, NodeId user, Status* shed_status);

  /// Refreshes the user's remaining-budget hint from their accountant.
  /// Caller holds `shard.mu` (takes budget_mu inside; lock order
  /// mu -> budget_mu).
  void UpdateBudgetHintLocked(Shard& shard, NodeId user);

  /// Deterministic linear backoff before retry attempt `attempt`
  /// (1-based): sleeps attempt * retry.backoff_micros.
  void DeterministicBackoff(uint32_t attempt) const;

  /// RAII in-flight tracking for the admission check's queue-depth read.
  struct InflightGuard {
    explicit InflightGuard(Shard& s) : shard(s) {
      shard.inflight.fetch_add(1, std::memory_order_acq_rel);
    }
    ~InflightGuard() {
      shard.inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
    Shard& shard;
  };

  DynamicGraph* graph_;
  std::unique_ptr<UtilityFunction> utility_;
  ServiceOptions options_;
  size_t per_shard_capacity_ = 1;
  size_t shard_mask_ = 0;  // shards_.size() - 1 (power of two)
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace privrec

#endif  // PRIVREC_SERVE_RECOMMENDATION_SERVICE_H_
