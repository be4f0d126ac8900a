#include "graph/degree_cap.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"

namespace privrec {

CsrGraph ProjectDegreeCapped(const CsrGraph& graph, uint32_t cap) {
  PRIVREC_CHECK_GT(cap, 0u);
  const NodeId n = graph.num_nodes();
  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(std::min<uint64_t>(graph.num_arcs(),
                                     static_cast<uint64_t>(n) * cap));
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const NodeId> neighbors = graph.OutNeighbors(v);
    const size_t kept = std::min<size_t>(neighbors.size(), cap);
    targets.insert(targets.end(), neighbors.begin(),
                   neighbors.begin() + kept);
    offsets[v + 1] = targets.size();
  }
  return CsrGraph(std::move(offsets), std::move(targets), graph.directed());
}

Result<CsrGraph> PatchProjectedCsr(const CsrGraph& prev_projected,
                                   const CsrGraph& new_base,
                                   const EdgeDelta& delta, uint32_t cap) {
  if (cap == 0) return Status::InvalidArgument("degree cap must be positive");
  if (prev_projected.num_nodes() != new_base.num_nodes()) {
    return Status::InvalidArgument(
        "node count changed under the toggle; re-project from scratch");
  }
  if (delta.u >= new_base.num_nodes() || delta.v >= new_base.num_nodes()) {
    return Status::InvalidArgument("delta endpoint out of range");
  }
  CsrGraph next = prev_projected;
  for (const NodeId node : {delta.u, delta.v}) {
    // Re-derive this node's kept prefix from the patched base: the
    // selection rule reads nothing but the node's own sorted list.
    const std::span<const NodeId> neighbors = new_base.OutNeighbors(node);
    const std::span<const NodeId> kept =
        neighbors.first(std::min<size_t>(neighbors.size(), cap));
    if (!std::ranges::equal(kept, next.OutNeighbors(node))) {
      next.SetOutNeighbors(node, kept);
    }
  }
  return next;
}

}  // namespace privrec
