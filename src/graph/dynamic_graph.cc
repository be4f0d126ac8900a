#include "graph/dynamic_graph.h"

#include "common/logging.h"
#include "graph/csr_patch.h"
#include "graph/degree_cap.h"
#include "graph/graph_builder.h"
#include "persist/wal.h"

namespace privrec {
namespace {

/// The from-scratch publication route: GraphBuilder over `prev`'s arcs
/// with `delta` applied (an appended node when `delta` is null), through
/// the flat CsrGraph constructor — sharing no block with `prev` and no
/// code with the splice it stands in for.
CsrGraph BuildFromScratch(const CsrGraph& prev, const EdgeDelta* delta) {
  const bool directed = prev.directed();
  // Whether u -> v is the arc (or, undirected, the edge) `delta` removes.
  const auto removed = [&](NodeId u, NodeId v) {
    if (delta == nullptr || delta->added) return false;
    return (u == delta->u && v == delta->v) ||
           (!directed && u == delta->v && v == delta->u);
  };
  GraphBuilder builder(directed);
  builder.SetNumNodes(prev.num_nodes() + (delta == nullptr ? 1 : 0));
  builder.Reserve(prev.num_edges() + 1);
  for (NodeId u = 0; u < prev.num_nodes(); ++u) {
    for (NodeId v : prev.OutNeighbors(u)) {
      if ((!directed && v < u) || removed(u, v)) continue;
      builder.AddEdge(u, v);
    }
  }
  if (delta != nullptr && delta->added) builder.AddEdge(delta->u, delta->v);
  return builder.Build();
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes, bool directed)
    : DynamicGraph(CsrGraph::Empty(num_nodes, directed)) {}

DynamicGraph::DynamicGraph(const CsrGraph& graph)
    : directed_(graph.directed()),
      snapshot_(std::make_shared<const VersionedCsr>(
          VersionedCsr{0, graph.num_edges(), graph, std::nullopt})) {
  num_nodes_.store(graph.num_nodes(), std::memory_order_release);
  num_edges_.store(graph.num_edges(), std::memory_order_release);
  snapshot_builds_.store(1, std::memory_order_release);
}

void DynamicGraph::AttachWal(WriteAheadLog* wal) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  wal_ = wal;
  wal_last_seq_ = wal == nullptr ? 0 : wal->next_seq() - 1;
}

NodeId DynamicGraph::AddNode() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const NodeId id = snapshot_->graph.num_nodes();
  if (wal_ != nullptr) {
    // A node append cannot be rejected (no precondition can fail), so a
    // WAL that cannot take the record is fatal rather than reportable:
    // injected torn writes must target edge appends, which CAN refuse.
    Result<uint64_t> seq = wal_->Append(WalRecordKind::kAddNode, id, 0);
    PRIVREC_CHECK_OK(seq.status());
    wal_last_seq_ = *seq;
  }
  PublishLocked(NextSnapshotLocked(/*delta=*/nullptr));
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
  const NodeId n = snapshot_->graph.num_nodes();
  if (u >= n || v >= n) {
    return Status::InvalidArgument("node id out of range");
  }
  return Status::OK();
}

void DynamicGraph::JournalAppendLocked(const EdgeDelta& delta) {
  if (journal_capacity_ == 0) {
    journal_floor_version_.store(version_.load(std::memory_order_relaxed),
                                 std::memory_order_release);
    return;
  }
  journal_.push_back(delta);
  while (journal_.size() > journal_capacity_) {
    journal_.pop_front();
    journal_floor_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Injected ring compaction (FaultPoint::kJournalCompaction): discard the
  // whole retained window as if capacity had just overflowed past it.
  // Readers pinned below the new floor — stale cache entries — hit the
  // same OutOfRange fallback a production undersized journal produces,
  // deterministically.
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
  return ToggleLocked(u, v, /*added=*/true);
}

Status DynamicGraph::RemoveEdge(NodeId u, NodeId v) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return ToggleLocked(u, v, /*added=*/false);
}

Status DynamicGraph::ToggleLocked(NodeId u, NodeId v, bool added) {
  PRIVREC_RETURN_NOT_OK(ValidateEndpoints(u, v));
  if (snapshot_->graph.HasEdge(u, v) == added) {
    return Status::FailedPrecondition(added ? "edge already present"
                                            : "edge not present");
  }
  if (wal_ != nullptr) {
    // WAL-first: the presence check above mutated nothing; make the record
    // durable, THEN publish. A failed append (torn write, crashed log)
    // rejects the mutation, so applied state never runs ahead of the log.
    PRIVREC_ASSIGN_OR_RETURN(
        wal_last_seq_,
        wal_->Append(added ? WalRecordKind::kAddEdge
                           : WalRecordKind::kRemoveEdge,
                     u, v));
  }
  const EdgeDelta delta{u, v, added, snapshot_->version + 1};
  PublishLocked(NextSnapshotLocked(&delta));
  JournalAppendLocked(delta);
  return Status::OK();
}

std::shared_ptr<const DynamicGraph::VersionedCsr>
DynamicGraph::NextSnapshotLocked(const EdgeDelta* delta) {
  const VersionedCsr& prev = *snapshot_;
  FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
  // Each CSR takes its block-shared splice unless `fault` fires (the
  // injected splice failure) or the splice reports an inconsistency; then
  // it is built from scratch. Counts the route taken.
  const auto next_csr = [&](FaultPoint fault, auto splice, auto scratch,
                            std::atomic<uint64_t>& patches,
                            std::atomic<uint64_t>& builds) -> CsrGraph {
    if (injector == nullptr || !injector->ShouldFire(fault)) {
      Result<CsrGraph> spliced = splice();
      if (spliced.ok()) {
        patches.fetch_add(1, std::memory_order_acq_rel);
        return *std::move(spliced);
      }
    }
    builds.fetch_add(1, std::memory_order_acq_rel);
    return scratch();
  };
  // AddNode's splice: every block shared, at most one empty block added.
  const auto with_added_node = [](CsrGraph graph) -> Result<CsrGraph> {
    graph.AddNode();
    return graph;
  };

  CsrGraph graph = next_csr(
      FaultPoint::kSnapshotPatchFail,
      [&] {
        return delta == nullptr ? with_added_node(prev.graph)
                                : PatchCsr(prev.graph, *delta);
      },
      [&] { return BuildFromScratch(prev.graph, delta); }, snapshot_patches_,
      snapshot_builds_);
  std::optional<CsrGraph> projected;
  const uint32_t cap = degree_cap_.load(std::memory_order_relaxed);
  if (cap > 0) {
    // The projection's from-scratch route is ProjectDegreeCapped, the
    // call SetDegreeCap makes — node-DP serving's rebuild path.
    projected = next_csr(
        FaultPoint::kProjectionPatchFail,
        [&] {
          return delta == nullptr
                     ? with_added_node(*prev.projected)
                     : PatchProjectedCsr(*prev.projected, graph, *delta, cap);
        },
        [&] { return ProjectDegreeCapped(graph, cap); }, projection_patches_,
        projection_builds_);
  }

  const uint64_t num_edges =
      delta == nullptr ? prev.num_edges
                       : (delta->added ? prev.num_edges + 1
                                       : prev.num_edges - 1);
  auto next = std::make_shared<const VersionedCsr>(VersionedCsr{
      prev.version + 1, num_edges, std::move(graph), std::move(projected)});
  // Either route must materialize exactly the expected edge count; a
  // disagreement is a splice bug, not a recoverable condition.
  PRIVREC_CHECK_EQ(next->graph.num_edges(), next->num_edges);
  return next;
}

void DynamicGraph::PublishLocked(std::shared_ptr<const VersionedCsr> next) {
  {
    std::lock_guard<std::mutex> publish_lock(snapshot_mu_);
    snapshot_.swap(next);
    // Stored under the publication mutex, so a reader that observes the
    // new version() (acquire) and then takes a snapshot gets this one or
    // a later one. Version before node count: a reader that observes the
    // new num_nodes() also observes the bumped version, so it never
    // passes a bounds check against the grown graph while trusting a
    // pinned pre-growth snapshot.
    version_.store(snapshot_->version, std::memory_order_release);
    num_edges_.store(snapshot_->num_edges, std::memory_order_release);
    num_nodes_.store(snapshot_->graph.num_nodes(), std::memory_order_release);
  }
  // `next` now holds the superseded snapshot; dropping it here (outside
  // snapshot_mu_) frees its unshared blocks when no reader pins it.
}

std::shared_ptr<const DynamicGraph::VersionedCsr> DynamicGraph::Current()
    const {
  std::lock_guard<std::mutex> publish_lock(snapshot_mu_);
  return snapshot_;
}

bool DynamicGraph::HasEdge(NodeId u, NodeId v) const {
  const std::shared_ptr<const VersionedCsr> current = Current();
  const NodeId n = current->graph.num_nodes();
  return u < n && v < n && current->graph.HasEdge(u, v);
}

uint32_t DynamicGraph::OutDegree(NodeId v) const {
  const std::shared_ptr<const VersionedCsr> current = Current();
  return v < current->graph.num_nodes() ? current->graph.OutDegree(v) : 0;
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

void DynamicGraph::SetDegreeCap(uint32_t cap) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (degree_cap_.load(std::memory_order_relaxed) == cap) return;
  degree_cap_.store(cap, std::memory_order_release);
  // Republish the current state at the same version with the projection
  // the new cap asks for, so every later mutation can splice it.
  const VersionedCsr& current = *snapshot_;
  std::optional<CsrGraph> projected;
  if (cap > 0) {
    projected.emplace(ProjectDegreeCapped(current.graph, cap));
    projection_builds_.fetch_add(1, std::memory_order_acq_rel);
  }
  PublishLocked(std::make_shared<const VersionedCsr>(
      VersionedCsr{current.version, current.num_edges, current.graph,
                   std::move(projected)}));
}

DynamicGraph::StampedSnapshot DynamicGraph::Stamp(
    const std::shared_ptr<const VersionedCsr>& current) {
  return StampedSnapshot{
      std::shared_ptr<const CsrGraph>(current, &current->graph),
      current->projected.has_value()
          ? std::shared_ptr<const CsrGraph>(current, &*current->projected)
          : nullptr,
      current->version, current->num_edges};
}

DynamicGraph::StampedSnapshot DynamicGraph::VersionedSnapshot() const {
  return Stamp(Current());
}

Result<DynamicGraph::CheckpointView> DynamicGraph::AtomicCheckpointView()
    const {
  // Writer mutex held across the WAL sync, the snapshot read and the
  // WAL-position read: no mutation can land between them, so the pair is
  // exact — the snapshot is the graph state immediately after WAL record
  // wal_seq — and wal_seq is durable even under group commit.
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (wal_ != nullptr) {
    PRIVREC_RETURN_NOT_OK(wal_->Sync());
  }
  return CheckpointView{Stamp(snapshot_), wal_last_seq_};
}

}  // namespace privrec
