#include "graph/edge_delta.h"

namespace privrec {

bool EdgeDeltaAffectsTarget(const CsrGraph& graph, const EdgeDelta& delta,
                            NodeId target) {
  if (target == delta.u) return true;
  if (graph.directed()) {
    return graph.HasEdge(target, delta.u);
  }
  return target == delta.v || graph.HasEdge(target, delta.u) ||
         graph.HasEdge(target, delta.v);
}

}  // namespace privrec
