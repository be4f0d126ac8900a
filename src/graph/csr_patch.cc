#include "graph/csr_patch.h"

#include <algorithm>
#include <vector>

namespace privrec {
namespace {

/// Replaces src's list in `graph` with the same list plus (insert) or
/// minus dst. The caller has checked that the arc is absent / present.
void SpliceArc(CsrGraph& graph, NodeId src, NodeId dst, bool insert) {
  const std::span<const NodeId> old = graph.OutNeighbors(src);
  const auto at = std::lower_bound(old.begin(), old.end(), dst);
  std::vector<NodeId> list;
  list.reserve(old.size() + 1);
  list.insert(list.end(), old.begin(), at);
  if (insert) list.push_back(dst);
  list.insert(list.end(), insert ? at : at + 1, old.end());
  graph.SetOutNeighbors(src, list);
}

}  // namespace

Result<CsrGraph> PatchCsr(const CsrGraph& prev, const EdgeDelta& delta) {
  if (delta.u >= prev.num_nodes() || delta.v >= prev.num_nodes()) {
    return Status::InvalidArgument("delta endpoint out of range");
  }
  if (delta.u == delta.v) return Status::InvalidArgument("self-loop delta");
  // Both arcs are checked before either is spliced, so a CSR whose mirror
  // arcs disagree is rejected rather than half-patched.
  const bool present = prev.HasEdge(delta.u, delta.v);
  if (!prev.directed() && prev.HasEdge(delta.v, delta.u) != present) {
    return Status::InvalidArgument("undirected CSR lacks the mirror arc");
  }
  if (delta.added && present) {
    return Status::InvalidArgument("insertion of a present arc");
  }
  if (!delta.added && !present) {
    return Status::InvalidArgument("deletion of an absent arc");
  }
  CsrGraph next = prev;
  SpliceArc(next, delta.u, delta.v, delta.added);
  if (!prev.directed()) SpliceArc(next, delta.v, delta.u, delta.added);
  return next;
}

}  // namespace privrec
