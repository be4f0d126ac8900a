#include "utility/common_neighbors.h"

#include "utility/two_hop_kernels.h"

namespace privrec {
namespace {

double UnitWeight(uint32_t /*degree*/) { return 1.0; }

}  // namespace

UtilityVector CommonNeighborsUtility::Compute(
    const CsrGraph& graph, NodeId target, UtilityWorkspace& workspace) const {
  // Frontier kernel (utility/two_hop_kernels.h): bitwise-identical to the
  // retained NaiveTwoHopReference scatter loop, branch-free expansion +
  // bitmap finalize.
  return ComputeTwoHopUtility(graph, target, workspace, &UnitWeight,
                              /*constant_weight=*/true);
}

double CommonNeighborsUtility::SensitivityBound(const CsrGraph& graph) const {
  return graph.directed() ? 1.0 : 2.0;
}

double CommonNeighborsUtility::EdgeAlterationsT(
    const CsrGraph& graph, NodeId target,
    const UtilityVector& utilities) const {
  const double u_max = utilities.max_utility();
  const double d_r = graph.OutDegree(target);
  return u_max + 1.0 + (u_max == d_r ? 1.0 : 0.0);
}

}  // namespace privrec
