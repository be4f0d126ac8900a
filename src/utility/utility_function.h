#ifndef PRIVREC_UTILITY_UTILITY_FUNCTION_H_
#define PRIVREC_UTILITY_UTILITY_FUNCTION_H_

#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/edge_delta.h"
#include "utility/utility_vector.h"
#include "utility/utility_workspace.h"

namespace privrec {

/// A graph link-analysis utility function (Section 3.1): assigns each
/// candidate node a goodness score for being recommended to a target,
/// computed from the structure of the graph only. Implementations must
/// satisfy the exchangeability axiom by construction (scores depend only on
/// graph structure, never on node identity).
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// Short stable identifier ("common_neighbors", "weighted_paths[g=0.05]").
  virtual std::string name() const = 0;

  /// Computes the utility vector for `target`. The candidate set excludes
  /// `target` and its existing out-neighbors (the paper's experimental
  /// convention). Directed graphs are traversed along out-edges.
  ///
  /// Convenience form: allocates a throwaway workspace. Batch callers
  /// (EvaluateTargets, RecommendationService) use the workspace overload so
  /// the O(n) scratch buffers are paid once per thread, not per target.
  UtilityVector Compute(const CsrGraph& graph, NodeId target) const {
    UtilityWorkspace workspace;
    return Compute(graph, target, workspace);
  }

  /// Workspace form: all scratch state lives in `workspace`, which may be
  /// reused across targets and graphs (one per thread; see
  /// UtilityWorkspace). Produces bit-identical results to the convenience
  /// form — implementations perform the same arithmetic in the same order
  /// regardless of where the buffers came from.
  virtual UtilityVector Compute(const CsrGraph& graph, NodeId target,
                                UtilityWorkspace& workspace) const = 0;

  /// Conservative global L1 sensitivity Δf = max ||u^G - u^{G'}||_1 over
  /// neighboring graphs differing in one edge *not incident to the target*
  /// (the relaxed edge-DP of Section 3.2, which is what the experiments
  /// use). This calibrates the Laplace/Exponential mechanisms.
  virtual double SensitivityBound(const CsrGraph& graph) const = 0;

  /// Conservative L1 sensitivity under the NODE neighboring relation
  /// (Appendix A: one node's entire neighborhood rewired), evaluated
  /// against the degree-capped projected view the node-DP serving mode
  /// computes on (`projected` = ProjectDegreeCapped(base, degree_cap), so
  /// every adjacency list the utility reads has length <= degree_cap).
  ///
  /// Default: degree_cap · Δf_edge(projected). Rewiring node x changes at
  /// most degree_cap kept arcs out of x plus degree_cap kept arcs into x
  /// per side; for the 2-hop weighted-count family each arc's influence is
  /// bounded by the edge sensitivity, giving the D·Δf_edge envelope the
  /// ISSUE names. This is an engineering bound, not a closed-form optimum
  /// — the audit harness (eval/service_auditor.h, node-rewiring pairs)
  /// empirically certifies that serving calibrated this way stays <= ε;
  /// utilities with tighter closed forms override (personalized PageRank's
  /// bound is cap-independent: rewiring one node's out-list changes a
  /// single row of the walk matrix).
  virtual double NodeSensitivityBound(const CsrGraph& projected,
                                      uint32_t degree_cap) const {
    return static_cast<double>(degree_cap) * SensitivityBound(projected);
  }

  /// Cache-repair capability (README "The keep-test contract"): true iff
  /// this utility's keep test meets the contract on EdgeDeltaAffects, so
  /// the serving cache may keep an entry the test clears and recompute
  /// only the ones it flags. Common neighbors, Adamic-Adar and resource
  /// allocation opt in with the structural default; every other utility
  /// leaves this false and recomputes its entries on every graph change.
  virtual bool SupportsIncrementalUpdate() const { return false; }

  /// Keep test: whether `delta` can change the target's vector, given the
  /// cached pre-delta vector. A keep test an opted-in utility uses must
  ///  - be exact: an entry it clears equals a fresh Compute on the
  ///    post-window snapshot, bit for bit (flagging an unchanged entry
  ///    only costs a recompute);
  ///  - read only the target's own adjacency and the window's endpoints.
  ///    Both are equal on the two sides of a relaxed edge-DP pair
  ///    (Section 3.2: the graphs differ in an edge not incident to the
  ///    target), so whether an entry is kept or recomputed, and with it
  ///    the serve's latency, cannot depend on the private edge. A test
  ///    that also reads `cached`, candidate degrees or the graph beyond
  ///    the target's neighbors breaks this even when it is exact.
  /// The default is the structural 2-hop rule (EdgeDeltaAffectsTarget),
  /// which meets both for utilities of the Σ weight(deg(intermediate))
  /// form. Evaluated against the post-batch snapshot with the same
  /// whole-window caveat as EdgeDeltaAffectsTarget.
  virtual bool EdgeDeltaAffects(const CsrGraph& graph, const EdgeDelta& delta,
                                NodeId target,
                                const UtilityVector& cached) const {
    (void)cached;
    return EdgeDeltaAffectsTarget(graph, delta, target);
  }

  /// Whole-window form of EdgeDeltaAffects, under the same contract; cache
  /// repair decides through this one. The default ORs the per-delta test,
  /// which is exact for the structural rule.
  virtual bool EdgeDeltaWindowAffects(const CsrGraph& graph,
                                      std::span<const EdgeDelta> deltas,
                                      NodeId target,
                                      const UtilityVector& cached) const {
    for (const EdgeDelta& delta : deltas) {
      if (EdgeDeltaAffects(graph, delta, target, cached)) return true;
    }
    return false;
  }

  /// Former patch hooks. No library code calls these four: cache repair
  /// keeps or recomputes. They stay only because perfbench's tracing
  /// wrapper (perfbench/trace.cc) overrides them, until a benchmark change
  /// drops those overrides. The defaults recompute (ApplyEdgeDelta,
  /// ApplyEdgeDeltaBatch), report no batch support, and append the whole
  /// window (FilterAffectingWindow), which meets the filter's contract —
  /// never drop a delta that can change the vector — trivially.
  virtual UtilityVector ApplyEdgeDelta(const CsrGraph& graph,
                                       const EdgeDelta& delta, NodeId target,
                                       const UtilityVector& cached,
                                       UtilityWorkspace& workspace) const {
    (void)delta;
    (void)cached;
    return Compute(graph, target, workspace);
  }
  virtual bool SupportsIncrementalBatch() const { return false; }
  virtual UtilityVector ApplyEdgeDeltaBatch(const CsrGraph& graph,
                                            std::span<const EdgeDelta> deltas,
                                            NodeId target,
                                            const UtilityVector& cached,
                                            UtilityWorkspace& workspace) const {
    (void)deltas;
    (void)cached;
    return Compute(graph, target, workspace);
  }
  virtual void FilterAffectingWindow(const CsrGraph& graph,
                                     std::span<const EdgeDelta> deltas,
                                     NodeId target,
                                     const UtilityVector& cached,
                                     std::vector<EdgeDelta>& out) const {
    (void)graph;
    (void)target;
    (void)cached;
    out.insert(out.end(), deltas.begin(), deltas.end());
  }

  /// The paper's per-target edge-alteration count t used in Corollary 1:
  /// the number of edge additions/removals sufficient to turn a
  /// least-likely candidate into the unique highest-utility node
  /// (Section 7.1 gives the exact expressions per utility function).
  virtual double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                                  const UtilityVector& utilities) const = 0;
};

}  // namespace privrec

#endif  // PRIVREC_UTILITY_UTILITY_FUNCTION_H_
