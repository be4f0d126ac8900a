#ifndef PRIVREC_UTILITY_ADAMIC_ADAR_H_
#define PRIVREC_UTILITY_ADAMIC_ADAR_H_

#include <algorithm>
#include <cmath>

#include "utility/utility_function.h"

namespace privrec {

/// Adamic-Adar's per-intermediate weight, clamped so degree-1
/// intermediates (ln 1 = 0) contribute the max weight. Compute's 2-hop
/// kernel and SensitivityBound's degree-shift term both evaluate it.
inline double InverseLogDegreeWeight(uint32_t degree) {
  return 1.0 / std::log(std::max<uint32_t>(degree, 2));
}

/// Adamic–Adar utility (an extension beyond the paper's two experimental
/// functions; listed in its "other utility functions" future work):
///   u_i = Σ_{z ∈ N(r) ∩ N(i)} 1 / ln(deg(z))
/// Common neighbors are weighted inversely by how promiscuous they are.
/// Degree-1 hubs contribute 1/ln(2) (clamped) to avoid division by zero.
class AdamicAdarUtility : public UtilityFunction {
 public:
  std::string name() const override { return "adamic_adar"; }

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override;

  /// The structural keep test (EdgeDeltaAffectsTarget) is exact for this
  /// Σ weight(deg(intermediate)) utility.
  bool SupportsIncrementalUpdate() const override { return true; }

  /// One non-target edge contributes, per orientation, (a) one new
  /// common-neighbor term worth at most 1/ln 2 and (b) a degree shift of
  /// the intermediate's weight across every path through it, maximized at
  /// degree 2: 2·(1/ln 2 - 1/ln 3). Total ≈ 2.51 per orientation, doubled
  /// on undirected graphs.
  double SensitivityBound(const CsrGraph& graph) const override;

  /// Same promotion argument as common neighbors: connect the promoted
  /// node to all of r's neighbors (+2 bookkeeping edges).
  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override;
};

}  // namespace privrec

#endif  // PRIVREC_UTILITY_ADAMIC_ADAR_H_
