#ifndef PRIVREC_UTILITY_PERSONALIZED_PAGERANK_H_
#define PRIVREC_UTILITY_PERSONALIZED_PAGERANK_H_

#include "utility/utility_function.h"

namespace privrec {

/// Personalized-PageRank utility (the third utility family suggested by
/// the paper after Liben-Nowell & Kleinberg): u_i is the stationary
/// probability of a random walk from the target with restart probability
/// `restart`, computed by `iterations` rounds of sparse power iteration.
///
/// Scores are scaled by 1/restart so they are O(1) rather than O(restart),
/// which keeps exponential-mechanism weights in a sane numeric range;
/// accuracy is scale-invariant (Definition 2) so this is harmless.
class PersonalizedPageRankUtility : public UtilityFunction {
 public:
  explicit PersonalizedPageRankUtility(double restart = 0.15,
                                       int iterations = 30);

  std::string name() const override;

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override;

  /// There is no tight closed-form edge sensitivity for PPR; we use the
  /// standard coarse bound ||Δppr||_1 <= 2/restart · (1-restart) scaled by
  /// our 1/restart normalization. Prefer EmpiricalSensitivity (sensitivity.h)
  /// when calibrating on a concrete graph.
  double SensitivityBound(const CsrGraph& graph) const override;

  /// Tighter-than-default node bound, independent of the degree cap:
  /// rewiring one node's neighborhood changes that node's out-list — ONE
  /// row of the walk's transition matrix — no matter how many arcs inside
  /// the row move, and the coupling argument behind the edge bound (walks
  /// agree until they first leave the changed row) bounds ||Δppr||_1 by
  /// the same 2(1-α)/α. The default D·Δf_edge envelope would be D times
  /// looser for no reason. (The projected view is still required: the cap
  /// bounds how much probability mass one rewired row can redirect per
  /// step in the multi-release composition the auditor measures.)
  double NodeSensitivityBound(const CsrGraph& projected,
                              uint32_t degree_cap) const override;

  // Not incremental: an exact keep test must follow the walk past the
  // target's own adjacency, so its verdict would depend on edges the
  // relaxed edge-DP keeps private. Every graph change recomputes.

  /// Promotion argument as for common neighbors: wiring the promoted node
  /// to all of r's neighbors captures the bulk of 2-hop PPR mass; +2
  /// bookkeeping edges.
  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override;

 private:
  double restart_;
  int iterations_;
};

}  // namespace privrec

#endif  // PRIVREC_UTILITY_PERSONALIZED_PAGERANK_H_
