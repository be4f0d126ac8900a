#ifndef PRIVREC_GRAPH_DYNAMIC_GRAPH_H_
#define PRIVREC_GRAPH_DYNAMIC_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/edge_delta.h"
#include "serve/fault_injection.h"

namespace privrec {

class WriteAheadLog;  // persist/wal.h

/// Mutable graph for the dynamic-network setting the paper flags as future
/// work (Section 8: "Social networks clearly change over time (and rather
/// rapidly)"). Its state IS its latest published snapshot: every
/// successful mutation splices itself into that immutable CsrGraph and
/// publishes the result before it returns, and point reads (HasEdge,
/// OutDegree) query the same snapshot.
///
/// The privacy story for dynamic graphs is subtle (each re-released
/// recommendation spends budget — see PrivacyAccountant); this class only
/// supplies the substrate.
///
/// Thread safety (RCU-style snapshot publication):
///  - All methods are safe to call concurrently from any thread.
///  - Mutations (AddNode, AddEdge, RemoveEdge) serialize on a writer
///    mutex. Each one builds the next snapshot under it — a block-shared
///    splice of its toggle into the current CSR (graph/csr_patch.h) that
///    copies the top level of the block table and rebuilds at most the two
///    endpoints' blocks — and publishes it by swapping one pointer under a tiny
///    publication mutex, bumping version() and the counts in the same
///    critical section. snapshot_patches() / snapshot_builds() count the
///    splice and the from-scratch route (the initial snapshot and the
///    injected kSnapshotPatchFail); every successful mutation adds exactly
///    one to their sum before it returns, so read-your-writes holds.
///  - SharedSnapshot()/VersionedSnapshot() are one shared_ptr copy under
///    the publication mutex; no reader ever builds. (A hand-off mutex
///    instead of std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic
///    releases its read-side spinlock with a relaxed RMW, which
///    ThreadSanitizer — correctly, per the memory model — refuses to treat
///    as a happens-before edge. The mutex is just as cheap uncontended and
///    sanitizer-provable.) A reader that observes version() >= V and then
///    takes a snapshot gets one stamped >= V. Callers that need a truly
///    contention-free steady state pin the snapshot locally and revalidate
///    against the atomic version() stamp — one relaxed-cost atomic load
///    per request, no lock, no shared refcount traffic; that is what the
///    sharded RecommendationService does per shard.
///  - A published snapshot is immutable and stamped with the graph
///    version (and edge count) it was built at; the stamp and the CSR are
///    one allocation, so a reader can never observe a "torn" pair.
///  - Snapshots taken before a mutation remain valid and unchanged
///    afterwards; hold them as long as you like. A held snapshot shares
///    every block its successors did not rewrite, so it pins only the
///    blocks rewritten since (at most two per toggle) plus its table.
///
/// Incremental maintenance (see README "Incremental maintenance"):
///  - Every AddEdge/RemoveEdge is appended to an edge-delta journal — a
///    compacted ring buffer of EdgeDelta records keyed by the version
///    stamp each mutation produced. EdgeDeltasBetween(v0, v1) replays the
///    ordered toggles between two stamps, or reports OutOfRange when the
///    window has been compacted away (capacity overflow) or interrupted by
///    a non-edge version bump (AddNode clears the journal: a new node
///    changes every target's candidate count, which no edge delta
///    describes). Callers — the keep-or-recompute serving cache — fall
///    back to full recomputation on that error. The journal serves cache
///    repair only; snapshot publication never reads it.
///  - The journal is guarded by the writer mutex; all its accessors are
///    safe from any thread.
class DynamicGraph {
 public:
  /// An immutable CSR snapshot together with the graph version it
  /// materializes. `graph` and `projected` alias into the same control
  /// block, so holding either keeps both alive.
  struct StampedSnapshot {
    std::shared_ptr<const CsrGraph> graph;
    /// Degree-capped projected companion (graph/degree_cap.h), published
    /// at the same stamp when SetDegreeCap(D > 0) is active; null
    /// otherwise. Node-DP serving computes utilities and candidate sets
    /// against this view so one user's rewired neighborhood moves at most
    /// D arcs per list.
    std::shared_ptr<const CsrGraph> projected;
    /// version() at build time.
    uint64_t version = 0;
    /// num_edges() at build time (== graph->num_edges(); the redundancy
    /// lets tests assert the publication was not torn).
    uint64_t num_edges = 0;
  };

  /// Default bound on retained journal entries. Compaction past a pinned
  /// version only costs the reader a full recompute, so the buffer can be
  /// generous without correctness risk.
  static constexpr size_t kDefaultJournalCapacity = 1024;

  /// Empty graph on num_nodes nodes.
  DynamicGraph(NodeId num_nodes, bool directed);

  /// Imports an existing CSR as the initial snapshot, sharing its blocks
  /// (a copy of the table's top level, no per-arc work).
  explicit DynamicGraph(const CsrGraph& graph);

  NodeId num_nodes() const {
    return num_nodes_.load(std::memory_order_acquire);
  }
  uint64_t num_edges() const {
    return num_edges_.load(std::memory_order_acquire);
  }
  bool directed() const { return directed_; }

  /// Appends an isolated node; returns its id.
  NodeId AddNode();

  /// Adds edge u->v (both directions when undirected). InvalidArgument on
  /// self-loops/out-of-range; FailedPrecondition if already present.
  Status AddEdge(NodeId u, NodeId v);

  /// Removes edge u->v. FailedPrecondition if absent.
  Status RemoveEdge(NodeId u, NodeId v);

  /// Point reads against the current snapshot (false / 0 out of range).
  bool HasEdge(NodeId u, NodeId v) const;

  uint32_t OutDegree(NodeId v) const;

  /// Mutation counter; bumped by AddNode/AddEdge/RemoveEdge (only when the
  /// mutation succeeds, while the writer mutex is held).
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// The ordered edge toggles that move the graph from `from_version` to
  /// `to_version` (exclusive / inclusive). Empty when the stamps are
  /// equal. Errors:
  ///  - InvalidArgument: from > to, or to is a stamp the graph has never
  ///    reached.
  ///  - OutOfRange: the journal no longer covers the window — either ring
  ///    compaction discarded it or an AddNode (a non-edge mutation no
  ///    delta can describe) cleared it. Callers must treat this as "replay
  ///    impossible, recompute from the snapshot".
  Result<std::vector<EdgeDelta>> EdgeDeltasBetween(uint64_t from_version,
                                                   uint64_t to_version) const;

  /// Caps the number of retained journal entries (older deltas are
  /// compacted away; 0 disables journaling entirely, forcing every
  /// EdgeDeltasBetween onto the OutOfRange fallback). Takes effect
  /// immediately. Affects cache repair only, never publication.
  void SetJournalCapacity(size_t capacity);

  /// Versions currently replayable: EdgeDeltasBetween(v0, version()) is OK
  /// exactly for v0 >= journal_floor_version(). Exposed for tests,
  /// monitoring, and the serving cache's journal-aware eviction (which
  /// reads it on the serve path — hence lock-free); racing mutators can
  /// compact the floor forward at any time, so treat the value as a
  /// monotone lower bound.
  uint64_t journal_floor_version() const {
    return journal_floor_version_.load(std::memory_order_acquire);
  }

  /// The immutable CSR snapshot of the current state: one shared_ptr copy
  /// under the publication mutex. See the class comment for the
  /// publication protocol and the version()-revalidation pattern for
  /// lock-free steady-state callers.
  std::shared_ptr<const CsrGraph> SharedSnapshot() const {
    return VersionedSnapshot().graph;
  }

  /// SharedSnapshot plus the version stamp it was built at. The stamp is
  /// exactly the version the CSR materializes: callers that need
  /// "utilities and sensitivity from the same graph state" key off it.
  StampedSnapshot VersionedSnapshot() const;

  /// The current state as an owned CsrGraph value. It copies the top
  /// level of the block table and shares the blocks; prefer
  /// SharedSnapshot() unless the caller needs a value.
  CsrGraph Snapshot() const { return *SharedSnapshot(); }

  /// Number of snapshots published from scratch — the flat CsrGraph
  /// constructor, sharing no block with their predecessor: the initial
  /// snapshot, and each mutation whose splice failed (in practice only an
  /// injected kSnapshotPatchFail). Every published snapshot lands in
  /// exactly one of snapshot_builds() or snapshot_patches(), and every
  /// successful mutation publishes exactly one, before it returns.
  uint64_t snapshot_builds() const {
    return snapshot_builds_.load(std::memory_order_acquire);
  }

  /// Number of snapshots published as a block-shared splice of one
  /// mutation into the previous snapshot (graph/csr_patch.h; an AddNode
  /// shares every block and appends at most an empty one).
  uint64_t snapshot_patches() const {
    return snapshot_patches_.load(std::memory_order_acquire);
  }

  /// Enables (cap > 0) or disables (cap == 0) the degree-capped projected
  /// companion: snapshots carry StampedSnapshot::projected ==
  /// ProjectDegreeCapped(graph, cap). Changing the cap projects the
  /// current snapshot at once and republishes it at the same version;
  /// each later mutation keeps the projection current alongside PatchCsr
  /// (PatchProjectedCsr re-derives only the toggle endpoints' kept
  /// prefixes). Previously pinned snapshots keep their old (or absent)
  /// projection.
  void SetDegreeCap(uint32_t cap);

  /// The active projection cap (0 = no projected companion).
  uint32_t degree_cap() const {
    return degree_cap_.load(std::memory_order_acquire);
  }

  /// Number of from-scratch ProjectDegreeCapped projections (SetDegreeCap,
  /// injected kProjectionPatchFail) / block-shared PatchProjectedCsr
  /// splices, mirroring snapshot_builds() / snapshot_patches() for the
  /// projected companion.
  uint64_t projection_builds() const {
    return projection_builds_.load(std::memory_order_acquire);
  }
  uint64_t projection_patches() const {
    return projection_patches_.load(std::memory_order_acquire);
  }

  /// Installs (or, with nullptr, removes) the deterministic fault injector
  /// whose graph-layer points this class evaluates
  /// (serve/fault_injection.h): kJournalCompaction after each journal
  /// append, kSnapshotPatchFail / kProjectionPatchFail once per mutation's
  /// publication. The injector is not owned and must outlive its
  /// installation; when none is installed every hook site costs one
  /// relaxed atomic pointer load. RecommendationService installs its
  /// ServiceOptions::fault_injector here automatically.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Attaches (nullptr detaches) a write-ahead log. Once attached, every
  /// mutation is WAL-FIRST: validated, presence-checked, appended to the
  /// WAL, and only then applied — so the durable log never lags the
  /// applied state, and a failed append (torn write, crashed log) rejects
  /// the mutation outright. The log is not owned and must outlive the
  /// attachment; with none attached the mutation hot path is unchanged.
  /// Call only while the graph's state matches the log's tail (a fresh
  /// graph with a fresh log, or a recovered graph with the log it was
  /// replayed from).
  void AttachWal(WriteAheadLog* wal);

  /// A mutually consistent (snapshot, WAL position) pair for
  /// checkpointing: the snapshot materializes exactly the state after the
  /// WAL record `wal_seq`, taken atomically under the writer mutex so no
  /// mutation can slip between the two. The attached WAL is synced under
  /// the same mutex first, so wal_seq is always durable (a checkpoint
  /// manifest never claims a record a crash could still lose); the sync's
  /// error, if any, is returned. wal_seq is 0 when no WAL is attached.
  struct CheckpointView {
    StampedSnapshot snapshot;
    uint64_t wal_seq = 0;
  };
  Result<CheckpointView> AtomicCheckpointView() const;

 private:
  /// The unit the publication mutex hands off: stamp + CSR (+ projection)
  /// in one immutable allocation.
  struct VersionedCsr {
    uint64_t version;
    uint64_t num_edges;
    CsrGraph graph;
    /// Degree-capped projection of `graph`; engaged iff degree_cap > 0.
    std::optional<CsrGraph> projected;
  };

  Status ValidateEndpoints(NodeId u, NodeId v) const;

  /// Body of AddEdge/RemoveEdge. Caller must hold writer_mu_.
  Status ToggleLocked(NodeId u, NodeId v, bool added);

  /// Builds the successor of the current snapshot for the toggle `delta`,
  /// or for an AddNode when `delta` is null: a block-shared splice, or a
  /// from-scratch build when kSnapshotPatchFail fires; the projection
  /// follows at the same cap. Caller must hold writer_mu_.
  std::shared_ptr<const VersionedCsr> NextSnapshotLocked(
      const EdgeDelta* delta);

  /// Swaps `next` in as the current snapshot and stores its version and
  /// counts, all under snapshot_mu_; the superseded snapshot is released
  /// after the lock drops. Caller must hold writer_mu_.
  void PublishLocked(std::shared_ptr<const VersionedCsr> next);

  /// The current snapshot (one shared_ptr copy under snapshot_mu_).
  std::shared_ptr<const VersionedCsr> Current() const;

  /// The public view of `current`: aliasing pointers into its allocation.
  static StampedSnapshot Stamp(
      const std::shared_ptr<const VersionedCsr>& current);

  /// Appends one toggle to the journal and compacts to capacity. Caller
  /// must hold writer_mu_ and have already published the toggle.
  void JournalAppendLocked(const EdgeDelta& delta);

  /// Core of EdgeDeltasBetween — the one place that knows the journal's
  /// index math (entry i carries version journal_floor_version_ + i + 1).
  /// Caller must hold writer_mu_.
  Result<std::vector<EdgeDelta>> EdgeDeltasBetweenLocked(
      uint64_t from_version, uint64_t to_version) const;

  bool directed_;
  std::atomic<NodeId> num_nodes_{0};
  std::atomic<uint64_t> num_edges_{0};
  std::atomic<uint64_t> version_{0};

  /// Serializes mutators with each other; never taken by snapshot readers.
  mutable std::mutex writer_mu_;

  /// Edge-delta journal (guarded by writer_mu_): consecutive-version
  /// toggles with journal_floor_version_ the stamp just before the oldest
  /// retained entry. Invariant (whenever writer_mu_ is free):
  /// journal_floor_version_ + journal_.size() == version_. The floor is
  /// atomic so monitoring and the serving cache's eviction heuristic can
  /// read it without the writer mutex; writes still happen only under
  /// writer_mu_.
  std::deque<EdgeDelta> journal_;
  /// Write-ahead log (guarded by writer_mu_): null until AttachWal;
  /// wal_last_seq_ is the sequence of the last record this graph appended
  /// — the WAL position AtomicCheckpointView pairs with its snapshot.
  WriteAheadLog* wal_ = nullptr;
  uint64_t wal_last_seq_ = 0;
  std::atomic<uint64_t> journal_floor_version_{0};
  size_t journal_capacity_ = kDefaultJournalCapacity;
  /// Non-owning fault injector; null = no plan, hook sites cost one
  /// relaxed load (see SetFaultInjector).
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  /// Active projection cap; atomic so degree_cap() is lock-free, written
  /// only under writer_mu_.
  std::atomic<uint32_t> degree_cap_{0};

  /// Publication point: guards only the pointer hand-off (one shared_ptr
  /// copy or swap). Lock order: writer_mu_ before snapshot_mu_. The
  /// pointer is written only under both, so a mutator holding writer_mu_
  /// reads it without snapshot_mu_: the current snapshot is the master
  /// copy of the graph.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const VersionedCsr> snapshot_;
  std::atomic<uint64_t> snapshot_builds_{0};
  std::atomic<uint64_t> snapshot_patches_{0};
  std::atomic<uint64_t> projection_builds_{0};
  std::atomic<uint64_t> projection_patches_{0};
};

}  // namespace privrec

#endif  // PRIVREC_GRAPH_DYNAMIC_GRAPH_H_
