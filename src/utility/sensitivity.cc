#include "utility/sensitivity.h"

#include <algorithm>
#include <cmath>

#include "graph/transforms.h"

namespace privrec {

double UtilityVectorL1Distance(const UtilityVector& a, const UtilityVector& b,
                               UtilityWorkspace& workspace) {
  // The counter doubles as the union-of-supports accumulator; Resize keeps
  // the largest backing array across calls, so the loop below allocates
  // nothing in steady state.
  NodeId max_node = 0;
  for (const UtilityEntry& e : a.nonzero()) max_node = std::max(max_node, e.node);
  for (const UtilityEntry& e : b.nonzero()) max_node = std::max(max_node, e.node);
  SparseCounter& diff = workspace.counter(0);
  diff.Clear();
  if (diff.num_nodes() <= max_node) diff.Resize(max_node + 1);
  for (const UtilityEntry& e : a.nonzero()) diff.Add(e.node, e.utility);
  for (const UtilityEntry& e : b.nonzero()) diff.Add(e.node, -e.utility);
  double l1 = 0;
  for (NodeId v : diff.touched()) l1 += std::fabs(diff.Get(v));
  diff.Clear();
  return l1;
}

double UtilityL1Distance(const UtilityFunction& utility, const CsrGraph& a,
                         const CsrGraph& b, NodeId target,
                         UtilityWorkspace& workspace) {
  const UtilityVector ua = utility.Compute(a, target, workspace);
  const UtilityVector ub = utility.Compute(b, target, workspace);
  return UtilityVectorL1Distance(ua, ub, workspace);
}

double UtilityL1Distance(const UtilityFunction& utility, const CsrGraph& a,
                         const CsrGraph& b, NodeId target) {
  UtilityWorkspace workspace;
  return UtilityL1Distance(utility, a, b, target, workspace);
}

SensitivityEstimate EstimateEdgeSensitivity(const CsrGraph& graph,
                                            const UtilityFunction& utility,
                                            NodeId target, size_t num_samples,
                                            Rng& rng, bool relaxed,
                                            UtilityWorkspace& workspace) {
  SensitivityEstimate estimate;
  const NodeId n = graph.num_nodes();
  if (n < 3) return estimate;
  // One perturbed-CSR materialization per sample is inherent — the
  // utility needs post-toggle neighbor views. The base vector, the
  // workspace and the diff accumulator are shared across samples.
  const UtilityVector base = utility.Compute(graph, target, workspace);
  double total = 0;
  size_t done = 0;
  size_t attempts = 0;
  const size_t max_attempts = num_samples * 50 + 100;
  while (done < num_samples && ++attempts < max_attempts) {
    const NodeId x = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId y = static_cast<NodeId>(rng.NextBounded(n));
    if (x == y) continue;
    if (relaxed && (x == target || y == target)) continue;
    const bool added = !graph.HasEdge(x, y);
    auto perturbed_graph =
        added ? WithEdgeAdded(graph, x, y) : WithEdgeRemoved(graph, x, y);
    if (!perturbed_graph.ok()) continue;
    const UtilityVector perturbed =
        utility.Compute(*perturbed_graph, target, workspace);
    const double l1 = UtilityVectorL1Distance(base, perturbed, workspace);
    estimate.max_l1 = std::max(estimate.max_l1, l1);
    total += l1;
    ++done;
  }
  estimate.samples = done;
  estimate.mean_l1 = done > 0 ? total / static_cast<double>(done) : 0;
  return estimate;
}

SensitivityEstimate EstimateEdgeSensitivity(const CsrGraph& graph,
                                            const UtilityFunction& utility,
                                            NodeId target, size_t num_samples,
                                            Rng& rng, bool relaxed) {
  UtilityWorkspace workspace;
  return EstimateEdgeSensitivity(graph, utility, target, num_samples, rng,
                                 relaxed, workspace);
}

}  // namespace privrec
