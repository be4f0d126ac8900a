#include "graph/dynamic_graph.h"

#include "common/logging.h"
#include "graph/csr_patch.h"
#include "graph/degree_cap.h"
#include "graph/graph_builder.h"
#include "persist/wal.h"

namespace privrec {

DynamicGraph::DynamicGraph(NodeId num_nodes, bool directed)
    : directed_(directed), adjacency_(num_nodes) {
  num_nodes_.store(num_nodes, std::memory_order_release);
}

DynamicGraph::DynamicGraph(const CsrGraph& graph)
    : directed_(graph.directed()), adjacency_(graph.num_nodes()) {
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) adjacency_[u].insert(v);
  }
  num_nodes_.store(graph.num_nodes(), std::memory_order_release);
  num_edges_.store(graph.num_edges(), std::memory_order_release);
}

void DynamicGraph::AttachWal(WriteAheadLog* wal) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  wal_ = wal;
  wal_last_seq_ = wal == nullptr ? 0 : wal->next_seq() - 1;
}

NodeId DynamicGraph::AddNode() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (wal_ != nullptr) {
    // A node append cannot be rejected (no precondition can fail), so a
    // WAL that cannot take the record is fatal rather than reportable:
    // injected torn writes must target edge appends, which CAN refuse.
    Result<uint64_t> seq = wal_->Append(
        WalRecordKind::kAddNode, static_cast<uint32_t>(adjacency_.size()), 0);
    PRIVREC_CHECK_OK(seq.status());
    wal_last_seq_ = *seq;
  }
  adjacency_.emplace_back();
  const NodeId id = static_cast<NodeId>(adjacency_.size() - 1);
  // Version before node count: a reader that observes the new num_nodes()
  // (acquire) is then guaranteed to observe the bumped version too, so it
  // can never pass a bounds check against the grown graph while still
  // trusting a pinned pre-growth snapshot.
  version_.fetch_add(1, std::memory_order_acq_rel);
  num_nodes_.store(static_cast<NodeId>(adjacency_.size()),
                   std::memory_order_release);
  // A node addition is a version bump no edge delta can describe (it
  // changes every target's candidate count); clearing the journal makes
  // any replay window crossing it OutOfRange, which routes readers onto
  // the full-recompute fallback.
  journal_.clear();
  journal_floor_version_.store(version_.load(std::memory_order_relaxed),
                               std::memory_order_release);
  return id;
}

Status DynamicGraph::ValidateEndpoints(NodeId u, NodeId v) const {
  if (u == v) return Status::InvalidArgument("self-loop");
  if (u >= adjacency_.size() || v >= adjacency_.size()) {
    return Status::InvalidArgument("node id out of range");
  }
  return Status::OK();
}

void DynamicGraph::JournalAppendLocked(NodeId u, NodeId v, bool added) {
  if (journal_capacity_ == 0) {
    journal_floor_version_.store(version_.load(std::memory_order_relaxed),
                                 std::memory_order_release);
    return;
  }
  journal_.push_back(
      EdgeDelta{u, v, added, version_.load(std::memory_order_relaxed)});
  while (journal_.size() > journal_capacity_) {
    journal_.pop_front();
    journal_floor_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Injected ring compaction (FaultPoint::kJournalCompaction): discard the
  // whole retained window as if capacity had just overflowed past it.
  // Readers pinned below the new floor — stale cache entries, the snapshot
  // patcher — hit the same OutOfRange fallback a production undersized
  // journal produces, deterministically.
  if (FaultInjector* injector =
          fault_injector_.load(std::memory_order_acquire)) {
    if (injector->ShouldFire(FaultPoint::kJournalCompaction)) {
      journal_.clear();
      journal_floor_version_.store(version_.load(std::memory_order_relaxed),
                                   std::memory_order_release);
    }
  }
}

Status DynamicGraph::AddEdge(NodeId u, NodeId v) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  PRIVREC_RETURN_NOT_OK(ValidateEndpoints(u, v));
  if (wal_ == nullptr) {
    // No WAL: keep the single-hash-lookup hot path.
    if (!adjacency_[u].insert(v).second) {
      return Status::FailedPrecondition("edge already present");
    }
  } else {
    // WAL-first: presence-check without mutating, make the record durable,
    // THEN apply. A failed append (torn write, crashed log) rejects the
    // mutation, so applied state never runs ahead of the durable log.
    if (adjacency_[u].count(v) > 0) {
      return Status::FailedPrecondition("edge already present");
    }
    PRIVREC_ASSIGN_OR_RETURN(
        wal_last_seq_, wal_->Append(WalRecordKind::kAddEdge, u, v));
    adjacency_[u].insert(v);
  }
  if (!directed_) adjacency_[v].insert(u);
  num_edges_.fetch_add(1, std::memory_order_acq_rel);
  version_.fetch_add(1, std::memory_order_acq_rel);
  JournalAppendLocked(u, v, /*added=*/true);
  return Status::OK();
}

Status DynamicGraph::RemoveEdge(NodeId u, NodeId v) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  PRIVREC_RETURN_NOT_OK(ValidateEndpoints(u, v));
  if (wal_ == nullptr) {
    if (adjacency_[u].erase(v) == 0) {
      return Status::FailedPrecondition("edge not present");
    }
  } else {
    if (adjacency_[u].count(v) == 0) {
      return Status::FailedPrecondition("edge not present");
    }
    PRIVREC_ASSIGN_OR_RETURN(
        wal_last_seq_, wal_->Append(WalRecordKind::kRemoveEdge, u, v));
    adjacency_[u].erase(v);
  }
  if (!directed_) adjacency_[v].erase(u);
  num_edges_.fetch_sub(1, std::memory_order_acq_rel);
  version_.fetch_add(1, std::memory_order_acq_rel);
  JournalAppendLocked(u, v, /*added=*/false);
  return Status::OK();
}

bool DynamicGraph::HasEdge(NodeId u, NodeId v) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (u >= adjacency_.size() || v >= adjacency_.size()) return false;
  return adjacency_[u].count(v) > 0;
}

uint32_t DynamicGraph::OutDegree(NodeId v) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return static_cast<uint32_t>(adjacency_[v].size());
}

Result<std::vector<EdgeDelta>> DynamicGraph::EdgeDeltasBetween(
    uint64_t from_version, uint64_t to_version) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return EdgeDeltasBetweenLocked(from_version, to_version);
}

Result<std::vector<EdgeDelta>> DynamicGraph::EdgeDeltasBetweenLocked(
    uint64_t from_version, uint64_t to_version) const {
  if (from_version > to_version) {
    return Status::InvalidArgument("from_version > to_version");
  }
  if (to_version > version_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("to_version was never reached");
  }
  const uint64_t floor = journal_floor_version_.load(std::memory_order_relaxed);
  if (from_version < floor) {
    return Status::OutOfRange("journal compacted past from_version");
  }
  // Invariant: journal_ holds the consecutive-version deltas
  // (floor, version_]; the bounds checks above put the requested window
  // inside it.
  const size_t begin = static_cast<size_t>(from_version - floor);
  const size_t end = static_cast<size_t>(to_version - floor);
  return std::vector<EdgeDelta>(journal_.begin() + begin,
                                journal_.begin() + end);
}

void DynamicGraph::SetJournalCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  journal_capacity_ = capacity;
  while (journal_.size() > journal_capacity_) {
    journal_.pop_front();
    journal_floor_version_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void DynamicGraph::SetSnapshotPatchThreshold(size_t max_deltas) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  snapshot_patch_threshold_ = max_deltas;
}

void DynamicGraph::SetDegreeCap(uint32_t cap) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (degree_cap_.load(std::memory_order_relaxed) == cap) return;
  degree_cap_.store(cap, std::memory_order_release);
  // Invalidate the published snapshot so the next reader materializes one
  // whose projected companion matches the new cap. Dropping the pointer
  // (rather than re-projecting eagerly) keeps this O(1); the mutation-path
  // patch refuses stale caps via VersionedCsr::degree_cap anyway.
  std::lock_guard<std::mutex> publish_lock(snapshot_mu_);
  snapshot_.reset();
}

std::shared_ptr<const DynamicGraph::VersionedCsr> DynamicGraph::BuildLocked()
    const {
  GraphBuilder builder(directed_);
  builder.SetNumNodes(static_cast<NodeId>(adjacency_.size()));
  builder.Reserve(num_edges_.load(std::memory_order_relaxed));
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    for (NodeId v : adjacency_[u]) {
      if (!directed_ && v < u) continue;
      builder.AddEdge(u, v);
    }
  }
  CsrGraph forward = builder.Build();
  std::optional<CsrGraph> projected;
  const uint32_t cap = degree_cap_.load(std::memory_order_relaxed);
  if (cap > 0) {
    projected.emplace(ProjectDegreeCapped(forward, cap));
    projection_builds_.fetch_add(1, std::memory_order_acq_rel);
  }
  auto built = std::make_shared<VersionedCsr>(
      VersionedCsr{version_.load(std::memory_order_relaxed),
                   num_edges_.load(std::memory_order_relaxed),
                   std::move(forward), std::move(projected), cap});
  snapshot_builds_.fetch_add(1, std::memory_order_acq_rel);
  return built;
}

std::shared_ptr<const DynamicGraph::VersionedCsr> DynamicGraph::TryPatchLocked(
    const std::shared_ptr<const VersionedCsr>& prev) const {
  if (prev == nullptr || snapshot_patch_threshold_ == 0) return nullptr;
  FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
  // Injected splice failure (FaultPoint::kSnapshotPatchFail): behave as if
  // PatchCsr had reported an inconsistency — null routes the caller onto
  // the BuildLocked rebuild, the same exact fallback.
  if (injector != nullptr &&
      injector->ShouldFire(FaultPoint::kSnapshotPatchFail)) {
    return nullptr;
  }
  // AddNode clears the journal (the window check below fails too), but the
  // node-count comparison keeps the fallback decision independent of
  // journal bookkeeping.
  if (prev->graph.num_nodes() != adjacency_.size()) return nullptr;
  const uint64_t version = version_.load(std::memory_order_relaxed);
  if (prev->version >= version ||
      version - prev->version > snapshot_patch_threshold_) {
    return nullptr;
  }
  // One source of truth for the window index math; OutOfRange here is the
  // compaction/AddNode fallback. (The O(Δ) copy out of the deque is part
  // of the patch budget.)
  Result<std::vector<EdgeDelta>> window =
      EdgeDeltasBetweenLocked(prev->version, version);
  if (!window.ok()) return nullptr;
  Result<CsrGraph> forward = PatchCsr(prev->graph, *window);
  if (!forward.ok()) return nullptr;
  // Projected companion: O(Δ) splice when the previous snapshot projected
  // at the same cap, full re-projection otherwise (cap just turned on or
  // changed — the snapshot reset in SetDegreeCap makes that path rare).
  std::optional<CsrGraph> projected;
  const uint32_t cap = degree_cap_.load(std::memory_order_relaxed);
  if (cap > 0) {
    // Injected projection-splice failure (kProjectionPatchFail): skip the
    // PatchProjectedCsr attempt so the companion takes the full
    // ProjectDegreeCapped re-projection below — the node-DP rebuild path.
    const bool force_projection_rebuild =
        injector != nullptr &&
        injector->ShouldFire(FaultPoint::kProjectionPatchFail);
    if (!force_projection_rebuild && prev->projected.has_value() &&
        prev->degree_cap == cap) {
      Result<CsrGraph> patched_projection =
          PatchProjectedCsr(*prev->projected, *forward, *window, cap);
      if (patched_projection.ok()) {
        projected.emplace(*std::move(patched_projection));
        projection_patches_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    if (!projected.has_value()) {
      projected.emplace(ProjectDegreeCapped(*forward, cap));
      projection_builds_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  auto built = std::make_shared<VersionedCsr>(
      VersionedCsr{version, num_edges_.load(std::memory_order_relaxed),
                   *std::move(forward), std::move(projected), cap});
  // The patched CSR must materialize exactly the journal's idea of the
  // current edge count; a disagreement would be a journal bug, not a
  // recoverable condition.
  PRIVREC_CHECK_EQ(built->graph.num_edges(), built->num_edges);
  snapshot_patches_.fetch_add(1, std::memory_order_acq_rel);
  return built;
}

namespace {

DynamicGraph::StampedSnapshot MakeStamped(
    std::shared_ptr<const void> owner, const CsrGraph* graph,
    const CsrGraph* projected, uint64_t version, uint64_t num_edges) {
  return DynamicGraph::StampedSnapshot{
      std::shared_ptr<const CsrGraph>(owner, graph),
      projected == nullptr
          ? std::shared_ptr<const CsrGraph>()
          : std::shared_ptr<const CsrGraph>(std::move(owner), projected),
      version, num_edges};
}

}  // namespace

DynamicGraph::StampedSnapshot DynamicGraph::VersionedSnapshot() const {
  // Fast path: copy the published pointer under the (tiny) publication
  // mutex and compare its stamp to the atomic version. If a mutator bumps
  // version_ concurrently we either fall through to the rebuild or return
  // the pre-mutation snapshot — both linearizable; the stamp and CSR can
  // never disagree because they share one immutable allocation.
  std::shared_ptr<const VersionedCsr> current;
  {
    std::lock_guard<std::mutex> publish_lock(snapshot_mu_);
    current = snapshot_;
  }
  if (current != nullptr &&
      current->version == version_.load(std::memory_order_acquire)) {
    const CsrGraph* projected =
        current->projected.has_value() ? &*current->projected : nullptr;
    return MakeStamped(current, &current->graph, projected, current->version,
                       current->num_edges);
  }
  // Slow path: rebuild under the writer mutex (excludes mutators, and
  // collapses concurrent rebuilders into one build via the re-check).
  std::lock_guard<std::mutex> lock(writer_mu_);
  return SnapshotWriterLocked();
}

DynamicGraph::StampedSnapshot DynamicGraph::SnapshotWriterLocked() const {
  std::shared_ptr<const VersionedCsr> current;
  {
    std::lock_guard<std::mutex> publish_lock(snapshot_mu_);
    current = snapshot_;
  }
  if (current == nullptr ||
      current->version != version_.load(std::memory_order_acquire)) {
    // O(Δ) journal splice into the previous published CSR when possible;
    // from-scratch rebuild otherwise (first snapshot, AddNode, compacted
    // or over-threshold window).
    auto patched = TryPatchLocked(current);
    current = patched != nullptr ? std::move(patched) : BuildLocked();
    std::lock_guard<std::mutex> publish_lock(snapshot_mu_);
    snapshot_ = current;
  }
  const CsrGraph* projected =
      current->projected.has_value() ? &*current->projected : nullptr;
  return MakeStamped(current, &current->graph, projected, current->version,
                     current->num_edges);
}

DynamicGraph::CheckpointView DynamicGraph::AtomicCheckpointView() const {
  // Writer mutex held across BOTH the snapshot materialization and the
  // WAL-position read: no mutation can land between them, so the pair is
  // exact — the snapshot is the graph state immediately after WAL record
  // wal_seq.
  std::lock_guard<std::mutex> lock(writer_mu_);
  CheckpointView view;
  view.snapshot = SnapshotWriterLocked();
  view.wal_seq = wal_last_seq_;
  return view;
}

}  // namespace privrec
