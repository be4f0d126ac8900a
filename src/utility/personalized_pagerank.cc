#include "utility/personalized_pagerank.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "graph/traversal.h"

namespace privrec {

PersonalizedPageRankUtility::PersonalizedPageRankUtility(double restart,
                                                          int iterations)
    : restart_(restart), iterations_(iterations) {
  PRIVREC_CHECK(restart > 0.0 && restart < 1.0);
  PRIVREC_CHECK_GT(iterations, 0);
}

std::string PersonalizedPageRankUtility::name() const {
  return "personalized_pagerank[a=" + FormatDouble(restart_, 2) +
         ",iters=" + std::to_string(iterations_) + "]";
}

UtilityVector PersonalizedPageRankUtility::Compute(
    const CsrGraph& graph, NodeId target, UtilityWorkspace& workspace) const {
  workspace.PrepareFor(graph);
  // Sparse push power iteration: mass stays on the touched set only, so a
  // few iterations from one source never go O(n) on large graphs. The walk
  // ping-pongs between two workspace counters.
  SparseCounter& accumulated = workspace.counter(0);
  SparseCounter* current = &workspace.counter(1);
  SparseCounter* next = &workspace.counter(2);
  current->Add(target, 1.0);
  double dangling_restart = 0;  // mass that re-teleports to the target

  for (int iter = 0; iter < iterations_; ++iter) {
    for (NodeId v : current->touched()) {
      const double mass = current->Get(v);
      if (mass == 0) continue;
      accumulated.Add(v, restart_ * mass);
      const double push = (1.0 - restart_) * mass;
      const uint32_t degree = graph.OutDegree(v);
      if (degree == 0) {
        dangling_restart += push;  // dangling node: walk restarts
        continue;
      }
      const double share = push / degree;
      for (NodeId w : graph.OutNeighbors(v)) next->Add(w, share);
    }
    next->Add(target, dangling_restart);
    dangling_restart = 0;
    current->Clear();
    std::swap(current, next);
  }
  // Residual walk mass ((1-restart)^iterations, < 1% at the default 30
  // iterations) is dropped: attributing it anywhere would bias scores, and
  // accuracy is scale-invariant so uniform truncation is harmless.

  return FinalizeUtilityScores(graph, target, accumulated, workspace,
                               /*scale=*/1.0 / restart_);
}

double PersonalizedPageRankUtility::SensitivityBound(
    const CsrGraph& /*graph*/) const {
  return 2.0 * (1.0 - restart_) / restart_;
}

double PersonalizedPageRankUtility::NodeSensitivityBound(
    const CsrGraph& projected, uint32_t /*degree_cap*/) const {
  // One rewired row of the transition matrix: the edge bound's coupling
  // argument applies unchanged (see header).
  return SensitivityBound(projected);
}

double PersonalizedPageRankUtility::EdgeAlterationsT(
    const CsrGraph& graph, NodeId target,
    const UtilityVector& /*utilities*/) const {
  return static_cast<double>(graph.OutDegree(target)) + 2.0;
}

}  // namespace privrec
