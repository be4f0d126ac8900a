#include "graph/edge_delta.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

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

bool WindowWithinWalkCone(const CsrGraph& graph,
                          std::span<const EdgeDelta> window, NodeId target,
                          int max_hops) {
  if (window.empty()) return false;
  // Tails whose out-lists the window changed, and the union-graph arc
  // injections (every window arc, added or removed: the union covers every
  // intermediate state the cone test must be conservative against).
  std::unordered_map<NodeId, std::vector<NodeId>> injected;
  std::unordered_set<NodeId> tails;
  for (const EdgeDelta& delta : window) {
    tails.insert(delta.u);
    injected[delta.u].push_back(delta.v);
    if (!graph.directed()) {
      tails.insert(delta.v);
      injected[delta.v].push_back(delta.u);
    }
  }
  if (tails.count(target) > 0) return true;
  if (max_hops <= 0) return false;

  // Bounded BFS from the target over post-graph ∪ injected arcs; visited
  // is a hash set so the cost is the cone, not O(n).
  std::unordered_set<NodeId> visited{target};
  std::vector<NodeId> frontier{target}, next;
  for (int hop = 1; hop <= max_hops && !frontier.empty(); ++hop) {
    next.clear();
    for (const NodeId v : frontier) {
      const auto expand = [&](NodeId w) -> bool {
        if (!visited.insert(w).second) return false;
        if (tails.count(w) > 0) return true;
        next.push_back(w);
        return false;
      };
      for (const NodeId w : graph.OutNeighbors(v)) {
        if (expand(w)) return true;
      }
      const auto it = injected.find(v);
      if (it != injected.end()) {
        for (const NodeId w : it->second) {
          if (expand(w)) return true;
        }
      }
    }
    std::swap(frontier, next);
  }
  return false;
}

}  // namespace privrec
