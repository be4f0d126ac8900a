#ifndef PRIVREC_SERVE_FAULT_INJECTION_H_
#define PRIVREC_SERVE_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

namespace privrec {

/// Named fault points compiled into the serving stack's hot paths. Each
/// point forces one specific fallback route the production code already
/// has — faults never invent behavior, they only make the rare path the
/// taken path, deterministically, so tests and audits can pin it down:
///  - kJournalCompaction: after a mutation's journal append, compact the
///    ring all the way to the current version. Every stale cache entry
///    pinned below it then sees OutOfRange and takes the full-recompute
///    fallback — the "journal undersized under a pinned window" production
///    incident.
///  - kSnapshotPatchFail: a mutation's publication skips the block-shared
///    PatchCsr splice as if it had reported an inconsistency, and publishes
///    a snapshot built from scratch (the flat CsrGraph constructor, sharing
///    no block; counted in DynamicGraph::snapshot_builds()).
///  - kProjectionPatchFail: the PatchProjectedCsr splice of the
///    degree-capped companion is skipped, forcing a full
///    ProjectDegreeCapped re-projection (node-DP serving's rebuild path).
///  - kRepairFail: RecommendationService::RepairEntryLocked abandons
///    journal repair for the visited entry and recomputes it against the
///    pinned snapshot (the exact baseline path).
///  - kShardStall: the serve path sleeps FaultRule::stall_micros while
///    holding the shard mutex — the deterministic slow-shard generator the
///    overload/admission tests are built on.
///
/// The crash points simulate a process death at a durability boundary,
/// in-process: the persist layer leaves its files exactly as a real crash
/// would (half a record fsync'd, a checkpoint without its manifest) and
/// the test/audit harness then recovers from those bytes:
///  - kWalTornWrite: WriteAheadLog::Append persists only the first half of
///    the record, marks the log crashed (every later durable operation
///    refuses), and fails the append — the mutation is rejected, so
///    applied state never runs ahead of durable state. Recovery must
///    truncate the torn tail.
///  - kLedgerPartialAppend: BudgetLedger::AppendCharge persists half a
///    record but REPORTS SUCCESS (a lying-fsync disk), and silently drops
///    all later appends. The service keeps charging and serving; recovery
///    then finds less durable spend than was charged — the one state
///    AuditAcrossRecovery must refuse to certify.
///  - kCheckpointCrash: WriteCheckpoint dies after writing the graph file
///    but before the manifest rename that commits it — the previous
///    checkpoint stays authoritative and recovery replays the longer WAL
///    suffix.
enum class FaultPoint : uint32_t {
  kJournalCompaction = 0,
  kSnapshotPatchFail = 1,
  kProjectionPatchFail = 2,
  kRepairFail = 3,
  kShardStall = 4,
  kWalTornWrite = 5,
  kLedgerPartialAppend = 6,
  kCheckpointCrash = 7,
};

inline constexpr size_t kNumFaultPoints = 8;

inline constexpr FaultPoint kAllFaultPoints[] = {
    FaultPoint::kJournalCompaction, FaultPoint::kSnapshotPatchFail,
    FaultPoint::kProjectionPatchFail, FaultPoint::kRepairFail,
    FaultPoint::kShardStall, FaultPoint::kWalTornWrite,
    FaultPoint::kLedgerPartialAppend, FaultPoint::kCheckpointCrash};

/// "journal_compaction" / "snapshot_patch_fail" / "projection_patch_fail" /
/// "repair_fail" / "shard_stall" / "wal_torn_write" /
/// "ledger_partial_append" / "checkpoint_crash".
const char* FaultPointName(FaultPoint point);

/// Inverse of FaultPointName (bench/CI --inject flags); nullopt on an
/// unknown name.
std::optional<FaultPoint> FaultPointFromName(std::string_view name);

/// When and how one fault point fires. Firing is a pure function of the
/// rule and the point's evaluation counter — no clocks, no randomness — so
/// two injectors with equal plans driven by equal call sequences fire
/// identically (the determinism contract the differential and audit
/// harnesses rely on).
struct FaultRule {
  bool enabled = false;
  /// Fire on every `period`-th evaluation (1 = every time; 0 behaves as 1).
  uint32_t period = 1;
  /// Evaluations to let pass unharmed before the first fire.
  uint32_t skip = 0;
  /// Total fires before the rule goes quiet (0 = unlimited).
  uint64_t max_fires = 0;
  /// "No fallback": instead of rerouting at the point's reroute site, the
  /// fault surfaces at serve admission as a transient kUnavailable error —
  /// the failure RetryPolicy exists to absorb. A rule with fail_serve set
  /// is evaluated ONLY by the serve-admission hook (ShouldFailServe);
  /// reroute hooks ignore it, so each rule has exactly one consumer and
  /// the evaluation counters stay deterministic.
  bool fail_serve = false;
  /// kShardStall only: deterministic delay injected under the shard mutex.
  uint32_t stall_micros = 0;

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

/// A full fault schedule: one rule per fault point. Value-semantic and
/// comparable so "identical plans on both sides of a neighboring pair" is
/// checkable, not aspirational.
struct FaultPlan {
  std::array<FaultRule, kNumFaultPoints> rules;

  FaultRule& rule(FaultPoint point) {
    return rules[static_cast<size_t>(point)];
  }
  const FaultRule& rule(FaultPoint point) const {
    return rules[static_cast<size_t>(point)];
  }

  /// Fluent enable: plan.Enable(kRepairFail).Enable(kShardStall, 3).
  FaultPlan& Enable(FaultPoint point, uint32_t period = 1, uint32_t skip = 0,
                    uint64_t max_fires = 0);

  /// Fluent "no fallback" enable (see FaultRule::fail_serve).
  FaultPlan& FailServe(FaultPoint point, uint32_t period = 1,
                       uint32_t skip = 0, uint64_t max_fires = 0);

  bool any_enabled() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Seedless, counter-deterministic fault injector. One instance is shared
/// by a DynamicGraph and the RecommendationService(s) riding it (install
/// via ServiceOptions::fault_injector, which also wires the graph).
///
/// Hot-path cost: every hook site starts with ShouldFire /
/// ShouldFailServe, whose disarmed fast path is ONE relaxed atomic load —
/// no branch history pollution, no lock, nothing else. Only an installed
/// plan pays the slow path (a small mutex around the per-point counters;
/// the counter mutex is what keeps concurrent shards' evaluations totally
/// ordered, which is what makes fire counts exact under TSAN).
///
/// Thread safety: all methods are safe from any thread. Determinism across
/// two injectors requires the two observed call sequences to match, which
/// single-threaded differential tests and the fault auditor's mirrored
/// drive loops guarantee by construction.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs (replaces) the active plan and resets all counters. A plan
  /// with nothing enabled disarms the injector.
  void Install(const FaultPlan& plan);

  /// Disarms and resets counters.
  void Clear();

  /// The active plan (default-constructed when disarmed).
  FaultPlan plan() const;

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Reroute-site hook: true when `point`'s rule (with fail_serve unset)
  /// fires on this evaluation. Disarmed cost: one relaxed atomic load.
  bool ShouldFire(FaultPoint point) {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return EvaluateSlow(point, /*fail_serve_site=*/false);
  }

  /// Serve-admission hook: scans the plan for fail_serve rules and returns
  /// the first point that fires (the serve then returns kUnavailable
  /// instead of rerouting). Disarmed cost: one relaxed atomic load.
  std::optional<FaultPoint> ShouldFailServe() {
    if (!armed_.load(std::memory_order_relaxed)) return std::nullopt;
    return FailServeSlow();
  }

  /// Fires recorded for `point` since the last Install/Clear.
  uint64_t fires(FaultPoint point) const;
  uint64_t total_fires() const;

  /// Fires at the graph-layer points (journal compaction + both patch
  /// fails): what RecommendationService::stats() folds into
  /// ServiceStats::injected_faults on top of its per-shard serve-path
  /// counts, so one counter covers the whole stack.
  uint64_t graph_fires() const;

  /// Fires at the persist-layer crash points (torn WAL write, partial
  /// ledger append, checkpoint crash): the durability analog of
  /// graph_fires(), folded into ServiceStats::injected_faults the same
  /// way.
  uint64_t persist_fires() const;

 private:
  bool EvaluateSlow(FaultPoint point, bool fail_serve_site);
  std::optional<FaultPoint> FailServeSlow();
  bool FireLocked(size_t index, bool fail_serve_site);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::array<uint64_t, kNumFaultPoints> evals_{};
  std::array<uint64_t, kNumFaultPoints> fires_{};
};

/// Per-shard admission control + budget-aware load shedding for
/// RecommendationService (the PR 2 follow-up in ROADMAP item 2). Requests
/// are checked BEFORE touching the shard mutex, so an overloaded (or
/// fault-stalled) shard sheds in O(1) instead of queueing unboundedly:
///  - over max_queue_depth: shed unconditionally (hard backstop);
///  - over max_inflight_per_shard: shed the requests whose user's
///    remaining lifetime budget is at or below shed_budget_fraction of
///    per_user_budget — the users closest to a budget refusal anyway, so
///    shedding them costs the least future service — while budget-rich
///    requests queue on the shard mutex.
/// Shed requests return kUnavailable, are counted in
/// ServiceStats::shed_overload, and never touch the accountant: budget
/// accounting stays exact under overload by construction.
/// Both caps at 0 (the default) admit everything.
struct OverloadPolicy {
  /// Admitted-or-waiting requests per shard above which budget-aware
  /// shedding starts (0 = no soft cap).
  uint32_t max_inflight_per_shard = 0;
  /// Fraction of per_user_budget at or below which a request is shed once
  /// the shard is over the soft cap.
  double shed_budget_fraction = 0.25;
  /// Hard cap: at this depth every new request is shed regardless of
  /// budget (0 = no hard cap).
  uint32_t max_queue_depth = 0;
};

/// Bounded retries with deterministic backoff for transient
/// (kUnavailable) serve failures — injected no-fallback faults and shed
/// requests. Retries happen in the public serve wrappers, outside the
/// shard mutex and BEFORE any budget charge (a refused attempt spends
/// nothing), so retrying is always privacy-neutral. Backoff is a fixed
/// linear schedule, no jitter: replayable by construction.
struct RetryPolicy {
  /// Additional attempts after the first (0 = fail fast).
  uint32_t max_retries = 0;
  /// Attempt i (1-based) sleeps i * backoff_micros before retrying.
  uint32_t backoff_micros = 50;
};

}  // namespace privrec

#endif  // PRIVREC_SERVE_FAULT_INJECTION_H_
