// Test-held reference model for the snapshot mirror tests: the logical
// edge set a DynamicGraph should hold, mutated in lockstep with it and
// rebuilt from scratch with GraphBuilder for comparison.

#ifndef PRIVREC_TESTS_EDGE_SET_MODEL_H_
#define PRIVREC_TESTS_EDGE_SET_MODEL_H_

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "random/rng.h"

namespace privrec {

/// The logical edge set ({min, max} pairs when undirected) plus the node
/// count.
struct EdgeSetModel {
  bool directed = false;
  NodeId nodes = 0;
  std::set<std::pair<NodeId, NodeId>> edges;

  static EdgeSetModel Of(const CsrGraph& graph) {
    EdgeSetModel model{graph.directed(), graph.num_nodes(), {}};
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      for (NodeId v : graph.OutNeighbors(u)) {
        model.edges.insert(model.Key(u, v));
      }
    }
    return model;
  }
  std::pair<NodeId, NodeId> Key(NodeId u, NodeId v) const {
    if (!directed && v < u) std::swap(u, v);
    return {u, v};
  }
  /// A fresh from-scratch build of the model.
  CsrGraph Build() const {
    GraphBuilder builder(directed);
    builder.SetNumNodes(nodes);
    for (const auto& [u, v] : edges) builder.AddEdge(u, v);
    return builder.Build();
  }
};

/// One random mutation applied to both `graph` and `model`: mostly
/// toggles (half of them removals of a present edge), sometimes an
/// AddNode. Returns false when the drawn pair was a self-loop.
inline bool MutateBoth(DynamicGraph& graph, EdgeSetModel& model, Rng& rng,
                double add_node_rate) {
  if (rng.NextBernoulli(add_node_rate)) {
    EXPECT_EQ(graph.AddNode(), model.nodes);
    ++model.nodes;
    return true;
  }
  if (!model.edges.empty() && rng.NextBernoulli(0.5)) {
    auto it = model.edges.begin();
    std::advance(it, rng.NextBounded(model.edges.size()));
    const auto [u, v] = *it;
    model.edges.erase(it);
    EXPECT_TRUE(graph.RemoveEdge(u, v).ok());
    return true;
  }
  const NodeId u = static_cast<NodeId>(rng.NextBounded(model.nodes));
  const NodeId v = static_cast<NodeId>(rng.NextBounded(model.nodes));
  if (u == v) return false;
  if (model.edges.erase(model.Key(u, v)) > 0) {
    EXPECT_TRUE(graph.RemoveEdge(u, v).ok());
  } else {
    model.edges.insert(model.Key(u, v));
    EXPECT_TRUE(graph.AddEdge(u, v).ok());
  }
  return true;
}

}  // namespace privrec

#endif  // PRIVREC_TESTS_EDGE_SET_MODEL_H_
