#ifndef PRIVREC_GRAPH_DYNAMIC_GRAPH_H_
#define PRIVREC_GRAPH_DYNAMIC_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/edge_delta.h"
#include "serve/fault_injection.h"

namespace privrec {

class WriteAheadLog;  // persist/wal.h

/// Mutable adjacency-set graph for the dynamic-network setting the paper
/// flags as future work (Section 8: "Social networks clearly change over
/// time (and rather rapidly)"). Supports O(1) expected edge insertion,
/// deletion, and membership, and snapshots to the immutable CsrGraph all
/// analysis code consumes.
///
/// The privacy story for dynamic graphs is subtle (each re-released
/// recommendation spends budget — see PrivacyAccountant); this class only
/// supplies the substrate.
///
/// Thread safety (RCU-style snapshot publication):
///  - All methods are safe to call concurrently from any thread.
///  - Mutations (AddNode, AddEdge, RemoveEdge) and point reads
///    (HasEdge, OutDegree) serialize on a small internal writer mutex;
///    version() is an atomic stamp bumped inside that critical section.
///  - SharedSnapshot()/VersionedSnapshot() never block behind a CSR
///    rebuild that is already current: the published pointer is handed
///    off under a tiny publication mutex whose critical section is one
///    shared_ptr copy. (A hand-off mutex instead of
///    std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic releases its
///    read-side spinlock with a relaxed RMW, which ThreadSanitizer —
///    correctly, per the memory model — refuses to treat as a
///    happens-before edge. The mutex is just as cheap uncontended and
///    sanitizer-provable.) Callers that need a truly contention-free
///    steady state pin the snapshot locally and revalidate against the
///    atomic version() stamp — one relaxed-cost atomic load per request,
///    no lock, no shared refcount traffic; that is what the sharded
///    RecommendationService does per shard.
///  - After a mutation, the first reader to ask materializes the next
///    snapshot under the writer mutex (which also excludes concurrent
///    mutators) and publishes the new version; the publication-mutex
///    re-check collapses concurrent materializers into one. Whenever the
///    edge-delta journal covers the window since the previous published
///    snapshot, materialization is an O(Δ) splice of that window into the
///    previous immutable CSR (graph/csr_patch.h) rather than an O(n+m)
///    rebuild from the adjacency sets; the journal capacity bounds that
///    window. AddNode, journal compaction (or journaling off, capacity 0)
///    or a splice inconsistency fall back to the full rebuild.
///    snapshot_patches() / snapshot_builds() count the two paths.
///  - A published snapshot is immutable and stamped with the graph
///    version (and edge count) it was built at; the stamp and the CSR are
///    one allocation, so a reader can never observe a "torn" pair.
///  - Snapshots taken before a mutation remain valid and unchanged
///    afterwards; hold them as long as you like.
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
///    back to full recomputation on that error.
///  - The journal is guarded by the writer mutex like the adjacency
///    itself; all its accessors are safe from any thread.
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

  /// Imports an existing snapshot.
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
  /// immediately.
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

  /// The cached immutable CSR snapshot of the current state. On an
  /// unmutated graph this is one shared_ptr copy under the publication
  /// mutex; the CSR is rebuilt (under the writer mutex) by the first
  /// caller after a mutation. See the class comment for the publication
  /// protocol and the version()-revalidation pattern for lock-free
  /// steady-state callers.
  std::shared_ptr<const CsrGraph> SharedSnapshot() const {
    return VersionedSnapshot().graph;
  }

  /// SharedSnapshot plus the version stamp it was built at. The stamp is
  /// exactly the version the CSR materializes: callers that need
  /// "utilities and sensitivity from the same graph state" key off it.
  StampedSnapshot VersionedSnapshot() const;

  /// Materializes the current state as an owned CSR copy. Prefer
  /// SharedSnapshot(): this exists for callers that need an independent
  /// mutable-lifetime copy and costs a full graph copy per call.
  CsrGraph Snapshot() const { return *SharedSnapshot(); }

  /// Number of times a CSR snapshot was materialized from scratch
  /// (GraphBuilder over the adjacency sets). Observable so tests and
  /// monitoring can assert that serving does not rebuild snapshots on
  /// unmutated graphs — and, since journal-driven patching landed, that
  /// the mutation path does not rebuild them either (it patches; see
  /// snapshot_patches()). Every snapshot materialization lands in exactly
  /// one of snapshot_builds() or snapshot_patches().
  uint64_t snapshot_builds() const {
    return snapshot_builds_.load(std::memory_order_acquire);
  }

  /// Number of times a snapshot was produced by splicing the journal
  /// window into the previous published CSR (graph/csr_patch.h) instead
  /// of rebuilding — the O(Δ) mutation-path publication.
  uint64_t snapshot_patches() const {
    return snapshot_patches_.load(std::memory_order_acquire);
  }

  /// Enables (cap > 0) or disables (cap == 0) the degree-capped projected
  /// companion: subsequent snapshots carry StampedSnapshot::projected ==
  /// ProjectDegreeCapped(graph, cap), maintained O(Δ) on the mutation path
  /// alongside PatchCsr (PatchProjectedCsr re-derives only the delta
  /// endpoints' kept prefixes). Changing the cap invalidates the published
  /// snapshot, so the next reader materializes a fresh pair; previously
  /// pinned snapshots keep their old (or absent) projection.
  void SetDegreeCap(uint32_t cap);

  /// The active projection cap (0 = no projected companion).
  uint32_t degree_cap() const {
    return degree_cap_.load(std::memory_order_acquire);
  }

  /// Number of from-scratch ProjectDegreeCapped materializations /
  /// O(Δ) PatchProjectedCsr splices, mirroring snapshot_builds() /
  /// snapshot_patches() for the projected companion.
  uint64_t projection_builds() const {
    return projection_builds_.load(std::memory_order_acquire);
  }
  uint64_t projection_patches() const {
    return projection_patches_.load(std::memory_order_acquire);
  }

  /// Installs (or, with nullptr, removes) the deterministic fault injector
  /// whose graph-layer points this class evaluates
  /// (serve/fault_injection.h): kJournalCompaction after each journal
  /// append, kSnapshotPatchFail / kProjectionPatchFail inside
  /// TryPatchLocked. The injector is not owned and must outlive its
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
  /// mutation can slip between the two. wal_seq is 0 when no WAL is
  /// attached.
  struct CheckpointView {
    StampedSnapshot snapshot;
    uint64_t wal_seq = 0;
  };
  CheckpointView AtomicCheckpointView() const;

 private:
  /// The unit the atomic pointer publishes: stamp + CSR (+ projection) in
  /// one immutable allocation.
  struct VersionedCsr {
    uint64_t version;
    uint64_t num_edges;
    CsrGraph graph;
    /// Degree-capped projection of `graph`; engaged iff degree_cap > 0.
    std::optional<CsrGraph> projected;
    /// The cap `projected` was derived at (0 = no projection). Recorded so
    /// TryPatchLocked refuses to splice across a cap change.
    uint32_t degree_cap = 0;
  };

  Status ValidateEndpoints(NodeId u, NodeId v) const;

  /// Appends one toggle to the journal and compacts to capacity. Caller
  /// must hold writer_mu_ and have already bumped version_.
  void JournalAppendLocked(NodeId u, NodeId v, bool added);

  /// Core of EdgeDeltasBetween — the one place that knows the journal's
  /// index math (entry i carries version journal_floor_version_ + i + 1).
  /// Caller must hold writer_mu_.
  Result<std::vector<EdgeDelta>> EdgeDeltasBetweenLocked(
      uint64_t from_version, uint64_t to_version) const;

  /// Builds the CSR for the current adjacency state. Caller must hold
  /// writer_mu_.
  std::shared_ptr<const VersionedCsr> BuildLocked() const;

  /// Attempts the O(Δ) publication path: splice the journal window
  /// (prev->version, version()] into `prev` via PatchCsr.
  /// Returns null — caller falls back to BuildLocked() — when `prev` is
  /// null, the node count moved (AddNode), the journal was compacted past
  /// prev->version (or journaling is off), or the splice reports an
  /// inconsistency. Caller must hold writer_mu_.
  std::shared_ptr<const VersionedCsr> TryPatchLocked(
      const std::shared_ptr<const VersionedCsr>& prev) const;

  /// The snapshot slow path factored out so AtomicCheckpointView can run
  /// it while already holding writer_mu_: re-checks the published
  /// pointer, patches or rebuilds, publishes, and returns the stamped
  /// view. Caller must hold writer_mu_.
  StampedSnapshot SnapshotWriterLocked() const;

  bool directed_;
  std::atomic<NodeId> num_nodes_{0};
  std::atomic<uint64_t> num_edges_{0};
  std::atomic<uint64_t> version_{0};

  /// Serializes mutators with each other and with snapshot rebuilds.
  /// Never taken by snapshot readers whose version is already published.
  mutable std::mutex writer_mu_;
  std::vector<std::unordered_set<NodeId>> adjacency_;

  /// Edge-delta journal (guarded by writer_mu_): consecutive-version
  /// toggles with journal_floor_version_ the stamp just before the oldest
  /// retained entry. Invariant: journal_floor_version_ + journal_.size()
  /// == version_. The floor is atomic so monitoring and the serving
  /// cache's eviction heuristic can read it without the writer mutex;
  /// writes still happen only under writer_mu_.
  std::deque<EdgeDelta> journal_;
  /// Write-ahead log (guarded by writer_mu_ like the adjacency): null
  /// until AttachWal; wal_last_seq_ is the sequence of the last record
  /// this graph appended — the WAL position AtomicCheckpointView pairs
  /// with its snapshot.
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
  /// copy). Lock order: writer_mu_ before snapshot_mu_; mutators never
  /// take snapshot_mu_.
  mutable std::mutex snapshot_mu_;
  mutable std::shared_ptr<const VersionedCsr> snapshot_;  // null until asked
  mutable std::atomic<uint64_t> snapshot_builds_{0};
  mutable std::atomic<uint64_t> snapshot_patches_{0};
  mutable std::atomic<uint64_t> projection_builds_{0};
  mutable std::atomic<uint64_t> projection_patches_{0};
};

}  // namespace privrec

#endif  // PRIVREC_GRAPH_DYNAMIC_GRAPH_H_
