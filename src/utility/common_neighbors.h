#ifndef PRIVREC_UTILITY_COMMON_NEIGHBORS_H_
#define PRIVREC_UTILITY_COMMON_NEIGHBORS_H_

#include "utility/utility_function.h"

namespace privrec {

/// Number-of-common-neighbors utility (the paper's running example;
/// Liben-Nowell & Kleinberg's strongest simple link predictor):
///   u_i = C(i, r) = |N(r) ∩ N(i)|.
/// On directed graphs this counts length-2 directed paths r -> a -> i,
/// i.e. follows edges out of the target, matching Section 7.1's treatment
/// of the Twitter network.
class CommonNeighborsUtility : public UtilityFunction {
 public:
  std::string name() const override { return "common_neighbors"; }

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override;

  /// The structural keep test (EdgeDeltaAffectsTarget) is exact for this
  /// Σ weight(deg(intermediate)) utility.
  bool SupportsIncrementalUpdate() const override { return true; }

  /// Relaxed edge DP: an edge (x,y) with x,y != r changes C(y,r) by one if
  /// x ~ r and C(x,r) by one if y ~ r, so Δf = 2 (1 on directed graphs,
  /// where only the head's utility moves).
  double SensitivityBound(const CsrGraph& graph) const override;

  /// Section 7.1: t = u_max + 1 + 1[u_max == d_r]. Rationale: connect the
  /// promoted node to u_max+1 of r's neighbors to strictly beat the current
  /// best; when u_max == d_r there is no (u_max+1)-th neighbor, so one
  /// extra edge first grows r's neighborhood.
  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override;
};

}  // namespace privrec

#endif  // PRIVREC_UTILITY_COMMON_NEIGHBORS_H_
