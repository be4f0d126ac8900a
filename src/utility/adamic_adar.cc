#include "utility/adamic_adar.h"

#include <cmath>

#include "utility/two_hop_kernels.h"

namespace privrec {

UtilityVector AdamicAdarUtility::Compute(const CsrGraph& graph, NodeId target,
                                         UtilityWorkspace& workspace) const {
  // Frontier kernel: the per-intermediate weights accumulate in the same
  // mid-major CSR order as the naive scatter, so the float sums are
  // bit-identical (see the bitwise-exactness contract in
  // utility/two_hop_kernels.h).
  return ComputeTwoHopUtility(graph, target, workspace,
                              &InverseLogDegreeWeight,
                              /*constant_weight=*/false);
}

double AdamicAdarUtility::SensitivityBound(const CsrGraph& graph) const {
  // One new edge (x,y) away from the target changes, per orientation:
  //  (a) one new common-neighbor term, worth at most 1/ln 2;
  //  (b) the weight of intermediate x for every path through it, because
  //      deg(x) grew by one: d·(1/ln d - 1/ln(d+1)), maximized at the
  //      clamp boundary d = 2 (degree-1 intermediates are clamped to the
  //      same weight as degree-2, so d = 1 contributes zero shift).
  const double new_term = 1.0 / std::log(2.0);
  double degree_shift = 0;
  for (uint32_t d = 2; d <= 16; ++d) {
    degree_shift = std::max(
        degree_shift, d * (1.0 / std::log(static_cast<double>(d)) -
                           1.0 / std::log(static_cast<double>(d) + 1.0)));
  }
  return (graph.directed() ? 1.0 : 2.0) * (new_term + degree_shift);
}

double AdamicAdarUtility::EdgeAlterationsT(
    const CsrGraph& graph, NodeId target,
    const UtilityVector& /*utilities*/) const {
  return static_cast<double>(graph.OutDegree(target)) + 2.0;
}

}  // namespace privrec
