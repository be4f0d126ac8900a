#include "utility/link_predictors.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "graph/traversal.h"
#include "utility/two_hop_kernels.h"

namespace privrec {
namespace {

/// Resource allocation's per-intermediate weight; the degree-0 guard only
/// matters on directed graphs (an out-neighbor can have no out-edges) and
/// mirrors Compute's `continue`.
double InverseDegreeWeight(uint32_t degree) {
  return degree == 0 ? 0.0 : 1.0 / static_cast<double>(degree);
}

}  // namespace

// ----------------------------------------------------------------- Jaccard

UtilityVector JaccardUtility::Compute(const CsrGraph& graph, NodeId target,
                                      UtilityWorkspace& workspace) const {
  // Frontier kernel with a fused union-term emit: the intersection counts
  // accumulate in the same order as the naive two-counter pass
  // (NaiveJaccardReference), and the drain applies the identical
  // uni > 0 guard and inter/uni float expression per candidate — so the
  // result is bitwise-identical while touching each candidate once
  // instead of three times.
  workspace.PrepareFor(graph);
  TwoHopScratch& scratch = workspace.two_hop();
  uint64_t expansion = 0;
  for (const NodeId mid : graph.OutNeighbors(target)) {
    expansion += graph.OutDegree(mid);
  }
  scratch.PrepareFor(graph.num_nodes(), expansion);
  const size_t frontier_size = ExpandTwoHopFrontier(
      graph, target, scratch, nullptr, /*constant_weight=*/true);
  SetNeighborBits(graph, target, scratch);
  std::vector<UtilityEntry>& nonzero = workspace.entries();
  nonzero.reserve(frontier_size);
  uint32_t* const counts = scratch.counts.data();
  const NodeId* const frontier = scratch.frontier.data();
  const double d_r = graph.OutDegree(target);
  for (size_t k = 0; k < frontier_size; ++k) {
    const NodeId v = frontier[k];
    const double inter = static_cast<double>(counts[v]);
    counts[v] = 0;
    if (v == target) continue;
    const double uni =
        d_r + static_cast<double>(graph.OutDegree(v)) - inter;
    if (!(uni > 0)) continue;
    const double score = inter / uni;
    if (TestNeighborBit(scratch, v)) continue;
    if (score > 0) nonzero.push_back({v, score});
  }
  ClearNeighborBits(graph, target, scratch);
  const uint64_t num_candidates =
      static_cast<uint64_t>(graph.num_nodes()) - 1 - graph.OutDegree(target);
  return UtilityVector(target, num_candidates, nonzero);
}

double JaccardUtility::SensitivityBound(const CsrGraph& graph) const {
  return graph.directed() ? 2.0 : 4.0;
}

double JaccardUtility::EdgeAlterationsT(
    const CsrGraph& graph, NodeId target,
    const UtilityVector& /*utilities*/) const {
  return static_cast<double>(graph.OutDegree(target)) + 2.0;
}

// -------------------------------------------------- PreferentialAttachment

UtilityVector PreferentialAttachmentUtility::Compute(
    const CsrGraph& graph, NodeId target, UtilityWorkspace& workspace) const {
  workspace.PrepareFor(graph);
  SparseCounter& scores = workspace.counter(0);
  const double d_r = graph.OutDegree(target);
  if (d_r > 0) {
    // Only 2-hop-reachable candidates are materialized: scoring all n
    // nodes would make the vector dense and the mechanism pointless. This
    // matches how PA is used in practice (re-ranking a candidate pool).
    for (NodeId mid : graph.OutNeighbors(target)) {
      for (NodeId far : graph.OutNeighbors(mid)) {
        if (far == target || scores.Get(far) > 0) continue;
        scores.Add(far, d_r * static_cast<double>(graph.OutDegree(far)));
      }
    }
  }
  return FinalizeUtilityScores(graph, target, scores, workspace);
}

double PreferentialAttachmentUtility::SensitivityBound(
    const CsrGraph& graph) const {
  const double d_max = graph.MaxOutDegree();
  const double per_orientation = d_max * (d_max + 2.0);
  return (graph.directed() ? 1.0 : 2.0) * per_orientation;
}

double PreferentialAttachmentUtility::EdgeAlterationsT(
    const CsrGraph& graph, NodeId /*target*/,
    const UtilityVector& /*utilities*/) const {
  return static_cast<double>(graph.MaxOutDegree()) + 2.0;
}

// ------------------------------------------------------ ResourceAllocation

UtilityVector ResourceAllocationUtility::Compute(
    const CsrGraph& graph, NodeId target, UtilityWorkspace& workspace) const {
  // Frontier kernel; InverseDegreeWeight returns 0 for degree-0
  // intermediates, which the kernel prunes — the same skip the naive loop
  // took (and bitwise-identical sums either way).
  return ComputeTwoHopUtility(graph, target, workspace, &InverseDegreeWeight,
                              /*constant_weight=*/false);
}

double ResourceAllocationUtility::SensitivityBound(
    const CsrGraph& graph) const {
  return graph.directed() ? 1.0 : 2.0;
}

double ResourceAllocationUtility::EdgeAlterationsT(
    const CsrGraph& graph, NodeId target,
    const UtilityVector& /*utilities*/) const {
  return static_cast<double>(graph.OutDegree(target)) + 2.0;
}

// --------------------------------------------------------------------- Katz

KatzUtility::KatzUtility(double beta, int max_length)
    : beta_(beta), max_length_(max_length) {
  PRIVREC_CHECK_GT(beta, 0.0);
  PRIVREC_CHECK(max_length >= 2 && max_length <= 6);
}

std::string KatzUtility::name() const {
  return "katz[beta=" + FormatDouble(beta_, 3) +
         ",L=" + std::to_string(max_length_) + "]";
}

UtilityVector KatzUtility::Compute(const CsrGraph& graph, NodeId target,
                                   UtilityWorkspace& workspace) const {
  workspace.PrepareFor(graph);
  SparseCounter& scores = workspace.counter(0);
  // Ping-pong between two workspace counters instead of allocating a fresh
  // frontier per step.
  SparseCounter* frontier = &workspace.counter(1);
  SparseCounter* next = &workspace.counter(2);
  frontier->Add(target, 1.0);
  double weight = 1.0;
  for (int step = 1; step <= max_length_; ++step) {
    weight *= beta_;
    for (NodeId v : frontier->touched()) {
      const double walks = frontier->Get(v);
      for (NodeId w : graph.OutNeighbors(v)) {
        if (w == target) continue;  // walks avoid r as an intermediate
        next->Add(w, walks);
      }
    }
    for (NodeId w : next->touched()) scores.Add(w, weight * next->Get(w));
    frontier->Clear();
    std::swap(frontier, next);
  }
  return FinalizeUtilityScores(graph, target, scores, workspace);
}

double KatzUtility::SensitivityBound(const CsrGraph& graph) const {
  // Each truncated walk through the toggled edge has weight <= β^l; the
  // number of length-l walks through a fixed edge is <= l·d_max^{l-2}.
  // Sum over l = 1..L and both orientations.
  const double d_max = graph.MaxOutDegree();
  double bound = 0;
  double beta_pow = 1.0;
  for (int l = 1; l <= max_length_; ++l) {
    beta_pow *= beta_;
    bound += beta_pow * static_cast<double>(l) *
             std::pow(d_max, std::max(0, l - 2));
  }
  return (graph.directed() ? 1.0 : 2.0) * bound;
}

double KatzUtility::EdgeAlterationsT(
    const CsrGraph& graph, NodeId target,
    const UtilityVector& /*utilities*/) const {
  return static_cast<double>(graph.OutDegree(target)) + 2.0;
}

}  // namespace privrec
