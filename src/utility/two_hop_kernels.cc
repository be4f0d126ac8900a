#include "utility/two_hop_kernels.h"

#include <vector>

#include "common/radix_sort.h"
#include "graph/traversal.h"

namespace privrec {

size_t ExpandTwoHopFrontier(const CsrGraph& graph, NodeId target,
                            TwoHopScratch& scratch, DegreeWeightFn weight,
                            bool constant_weight) {
  NodeId* const frontier = scratch.frontier.data();
  size_t size = 0;
  if (constant_weight) {
    // Constant-weight fast path: exact integer counts in the half-width
    // accumulator (uint32 -> double is exact, so the emitted values are
    // bit-identical to summing 1.0 per hit); the smaller working set
    // keeps the random scatter in closer cache.
    uint32_t* const counts = scratch.counts.data();
    for (const NodeId mid : graph.OutNeighbors(target)) {
      for (const NodeId far : graph.OutNeighbors(mid)) {
        // Branch-free first-touch capture: the slot joins the frontier
        // exactly when its accumulator was still zero. This is
        // SparseCounter::Add without the unpredictable push_back branch.
        const uint32_t prev = counts[far];
        frontier[size] = far;
        size += static_cast<size_t>(prev == 0);
        counts[far] = prev + 1;
      }
    }
    return size;
  }
  double* const acc = scratch.acc.data();
  for (const NodeId mid : graph.OutNeighbors(target)) {
    const double w = weight(graph.OutDegree(mid));
    if (w == 0.0) continue;  // zero-weight midpoint prune (RA, deg 0)
    for (const NodeId far : graph.OutNeighbors(mid)) {
      // Same first-touch capture over the weighted accumulator (weights
      // are > 0 here, so a touched slot can never return to zero
      // mid-pass).
      const double prev = acc[far];
      frontier[size] = far;
      size += static_cast<size_t>(prev == 0.0);
      acc[far] = prev + w;
    }
  }
  return size;
}

void SetNeighborBits(const CsrGraph& graph, NodeId target,
                     TwoHopScratch& scratch) {
  uint64_t* const bits = scratch.bits.data();
  for (const NodeId v : graph.OutNeighbors(target)) {
    bits[v >> 6] |= (uint64_t{1} << (v & 63));
  }
}

void ClearNeighborBits(const CsrGraph& graph, NodeId target,
                       TwoHopScratch& scratch) {
  uint64_t* const bits = scratch.bits.data();
  for (const NodeId v : graph.OutNeighbors(target)) {
    bits[v >> 6] = 0;
  }
}

UtilityVector ComputeTwoHopUtility(const CsrGraph& graph, NodeId target,
                                   UtilityWorkspace& workspace,
                                   DegreeWeightFn weight,
                                   bool constant_weight) {
  workspace.PrepareFor(graph);
  TwoHopScratch& scratch = workspace.two_hop();
  uint64_t expansion = 0;
  for (const NodeId mid : graph.OutNeighbors(target)) {
    expansion += graph.OutDegree(mid);
  }
  scratch.PrepareFor(graph.num_nodes(), expansion);
  const size_t frontier_size =
      ExpandTwoHopFrontier(graph, target, scratch, weight, constant_weight);
  SetNeighborBits(graph, target, scratch);
  std::vector<UtilityEntry>& nonzero = workspace.entries();
  nonzero.reserve(frontier_size);
  const NodeId* const frontier = scratch.frontier.data();
  if (constant_weight) {
    // Integer-count finalize with a branch-free radix pre-sort. The
    // UtilityVector comparator (utility desc, node asc) is a unique total
    // order — no two entries share a node — so ANY algorithm producing
    // that order yields the identical vector; pre-sorting here turns the
    // constructor's comparison sort (the serve path's mispredict
    // hotspot: tie-heavy doubles) into a cheap pass over already-sorted
    // input. Keys pack (count, node) so ascending-key order reversed is
    // exactly (count desc, node asc).
    uint32_t* const counts = scratch.counts.data();
    const uint64_t last = graph.num_nodes() - 1;
    std::vector<uint64_t>& keys = scratch.keys;
    keys.clear();
    keys.reserve(frontier_size);
    for (size_t k = 0; k < frontier_size; ++k) {
      const NodeId v = frontier[k];
      const uint32_t c = counts[v];
      counts[v] = 0;  // restore the all-zero rest state as we go
      if (v == target) continue;
      if (TestNeighborBit(scratch, v)) continue;
      if (c > 0) {
        keys.push_back((static_cast<uint64_t>(c) << 32) | (last - v));
      }
    }
    RadixSortKeys(keys, scratch.keys_tmp);
    for (size_t k = keys.size(); k-- > 0;) {
      const uint64_t key = keys[k];
      nonzero.push_back(
          {static_cast<NodeId>(last - (key & 0xffffffffu)),
           static_cast<double>(key >> 32)});
    }
  } else {
    double* const acc = scratch.acc.data();
    // Single drain pass in first-touch order — the same emission order as
    // FinalizeUtilityScores walking SparseCounter::touched(), with the
    // O(log d) HasEdge filter replaced by the O(1) neighbor-bitmap probe.
    for (size_t k = 0; k < frontier_size; ++k) {
      const NodeId v = frontier[k];
      const double u = acc[v];
      acc[v] = 0.0;
      if (v == target) continue;
      if (TestNeighborBit(scratch, v)) continue;
      if (u > 0) nonzero.push_back({v, u});
    }
  }
  ClearNeighborBits(graph, target, scratch);
  const uint64_t num_candidates =
      static_cast<uint64_t>(graph.num_nodes()) - 1 - graph.OutDegree(target);
  return UtilityVector(target, num_candidates, nonzero);
}

UtilityVector NaiveTwoHopReference(const CsrGraph& graph, NodeId target,
                                   UtilityWorkspace& workspace,
                                   DegreeWeightFn weight,
                                   bool constant_weight) {
  workspace.PrepareFor(graph);
  SparseCounter& counter = workspace.counter(0);
  for (const NodeId mid : graph.OutNeighbors(target)) {
    double w = 1.0;
    if (!constant_weight) {
      w = weight(graph.OutDegree(mid));
      if (w == 0.0) continue;
    }
    for (const NodeId far : graph.OutNeighbors(mid)) {
      if (far == target) continue;
      counter.Add(far, w);
    }
  }
  return FinalizeUtilityScores(graph, target, counter, workspace);
}

UtilityVector NaiveJaccardReference(const CsrGraph& graph, NodeId target,
                                    UtilityWorkspace& workspace) {
  workspace.PrepareFor(graph);
  SparseCounter& common = workspace.counter(0);
  for (const NodeId mid : graph.OutNeighbors(target)) {
    for (const NodeId far : graph.OutNeighbors(mid)) {
      if (far == target) continue;
      common.Add(far, 1.0);
    }
  }
  SparseCounter& scores = workspace.counter(1);
  const double d_r = graph.OutDegree(target);
  for (const NodeId v : common.touched()) {
    const double inter = common.Get(v);
    const double uni = d_r + static_cast<double>(graph.OutDegree(v)) - inter;
    if (uni > 0) scores.Add(v, inter / uni);
  }
  return FinalizeUtilityScores(graph, target, scores, workspace);
}

}  // namespace privrec
