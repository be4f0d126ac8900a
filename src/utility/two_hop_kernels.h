#ifndef PRIVREC_UTILITY_TWO_HOP_KERNELS_H_
#define PRIVREC_UTILITY_TWO_HOP_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/csr_graph.h"
#include "utility/utility_vector.h"
#include "utility/utility_workspace.h"

namespace privrec {

/// Per-intermediate degree weight of a 2-hop utility, evaluated at an
/// out-degree.
using DegreeWeightFn = double (*)(uint32_t degree);

/// How one sorted-list intersection is executed. The kernels pick a
/// strategy per call (ChooseIntersectStrategy); benches and tests force
/// each one explicitly.
enum class IntersectStrategy {
  /// Classic two-pointer merge: O(|a| + |b|), best when the lists are of
  /// comparable length and too short to amortize anything cleverer.
  kLinearMerge,
  /// Iterate the shorter list, exponential-probe + binary-search the
  /// longer one from a moving lower bound: O(small · log(large/small)),
  /// the winner when one list dominates (hub vs leaf).
  kGalloping,
  /// Merge in fixed 4x4 blocks of all-pairs equality tests. The 16
  /// compares per step are branch-free and independent — compilers
  /// auto-vectorize them (no intrinsics; opt into wider vectors with
  /// -DPRIVREC_NATIVE_ARCH=ON). Best for two long lists of comparable
  /// length, where kLinearMerge's per-element branch mispredicts.
  kBlockedMerge,
};

/// Adaptive pick (the "degree-ordered" part of the kernel contract: the
/// caller may pass a and b in either order; the chooser only looks at
/// sizes). Heuristic: gallop when one list is >= 16x the other, block-merge
/// when both are >= 16 elements, linear merge otherwise.
IntersectStrategy ChooseIntersectStrategy(size_t size_a, size_t size_b);

/// |a ∩ b| over sorted, duplicate-free id lists with a forced strategy.
uint32_t IntersectCount(std::span<const NodeId> a, std::span<const NodeId> b,
                        IntersectStrategy strategy);

/// Adaptive |a ∩ b|.
inline uint32_t IntersectCount(std::span<const NodeId> a,
                               std::span<const NodeId> b) {
  return IntersectCount(a, b, ChooseIntersectStrategy(a.size(), b.size()));
}

/// Σ_{z ∈ a ∩ b} weight(out-deg(z)) with a forced strategy. Every strategy
/// emits matches in ascending id order, so the float accumulation order —
/// and therefore the result, bit for bit — is independent of the strategy
/// and identical to a naive probe loop over the shorter list.
double IntersectWeightedDegreeSum(const CsrGraph& graph,
                                  std::span<const NodeId> a,
                                  std::span<const NodeId> b,
                                  DegreeWeightFn weight,
                                  IntersectStrategy strategy);

/// Adaptive weighted intersection.
inline double IntersectWeightedDegreeSum(const CsrGraph& graph,
                                         std::span<const NodeId> a,
                                         std::span<const NodeId> b,
                                         DegreeWeightFn weight) {
  return IntersectWeightedDegreeSum(
      graph, a, b, weight, ChooseIntersectStrategy(a.size(), b.size()));
}

/// Per-candidate intersection-form score: Σ_{z ∈ N_out(target), z→node}
/// weight(out-deg(z)) — the score a fresh Compute of the Σ-weight family
/// would assign `node`. Undirected graphs intersect the two sorted
/// neighbor lists with the adaptive kernel (degree-ordered: the shorter
/// list drives); directed graphs probe each intermediate's list (the
/// in-adjacency needed for a merge is not available here). Bitwise-equal
/// to the naive probe loop (matches accumulate in ascending intermediate
/// order either way).
double ScoreCandidateTwoHop(const CsrGraph& graph, NodeId target, NodeId node,
                            DegreeWeightFn weight);

/// Whether `target` 2-hop-reaches `node` post-window: ∃ z ∈ N_out(target)
/// with the arc z→node. Degree-ordered midpoint pruning: intermediates are
/// probed smallest-list-first so a hit on a cheap list short-circuits the
/// expensive ones (the common case for JaccardUtility's directed
/// hidden-support test, which calls this once per zero-crossing tail).
bool TwoHopReaches(const CsrGraph& graph, NodeId target, NodeId node);

/// Pass 1 of the full-vector kernel: expands the 2-hop frontier of
/// `target` into `scratch` (which the caller must have PrepareFor'd with
/// the expansion size): the accumulator — scratch.counts (exact integer
/// hit counts, half-width) when `constant_weight`, scratch.acc otherwise
/// — gathers Σ weight(out-deg(z)) over
/// intermediates z in the SAME mid-major, CSR-ascending order as the naive
/// scatter loops — the accumulation-order half of the bitwise-exactness
/// contract — and frontier[0..returned) lists the distinct touched nodes
/// in first-touch order (exactly what SparseCounter::touched() would
/// record), captured branch-free. `target` itself may appear in the
/// frontier; emit passes skip it. Zero-weight intermediates are pruned
/// (resource allocation's directed degree-0 guard). The caller MUST drain
/// acc back to zero over the returned frontier (the emit helpers do).
size_t ExpandTwoHopFrontier(const CsrGraph& graph, NodeId target,
                            TwoHopScratch& scratch, DegreeWeightFn weight,
                            bool constant_weight);

/// Sets the bits of N_out(target) in scratch.bits — the O(1)-probe
/// neighbor filter the emit pass uses instead of FinalizeUtilityScores'
/// O(log d) binary searches (the dense-target fast path; cheap enough that
/// every target takes it). Pair with ClearNeighborBits to restore the
/// all-zero rest state.
void SetNeighborBits(const CsrGraph& graph, NodeId target,
                     TwoHopScratch& scratch);
void ClearNeighborBits(const CsrGraph& graph, NodeId target,
                       TwoHopScratch& scratch);

inline bool TestNeighborBit(const TwoHopScratch& scratch, NodeId v) {
  return (scratch.bits[v >> 6] >> (v & 63)) & 1;
}

/// Full-vector 2-hop kernel: ExpandTwoHopFrontier + bitset finalize, the
/// drop-in replacement for the naive scatter loops of common neighbors
/// (weight ≡ 1, constant_weight = true), Adamic-Adar, and resource
/// allocation. Bitwise-exactness contract: the returned vector is
/// bit-identical to NaiveTwoHopReference — same candidate count, same
/// support, same doubles — because the accumulation order, the candidate
/// filters, and every float expression are preserved exactly
/// (tests/two_hop_kernels_test.cc holds the property over random graphs).
UtilityVector ComputeTwoHopUtility(const CsrGraph& graph, NodeId target,
                                   UtilityWorkspace& workspace,
                                   DegreeWeightFn weight,
                                   bool constant_weight);

/// The pre-kernel scatter loop, retained verbatim as the differential
/// reference: SparseCounter scatter-add + FinalizeUtilityScores, exactly
/// as CommonNeighborsUtility / AdamicAdarUtility / ResourceAllocation
/// computed before the kernel rewire. Tests assert the kernel is
/// bitwise-identical to this; bench/two_hop_kernels.cc reports the
/// kernel's speedup over it.
UtilityVector NaiveTwoHopReference(const CsrGraph& graph, NodeId target,
                                   UtilityWorkspace& workspace,
                                   DegreeWeightFn weight,
                                   bool constant_weight);

/// Naive Jaccard reference (the pre-kernel two-counter pass), same role as
/// NaiveTwoHopReference for JaccardUtility::Compute.
UtilityVector NaiveJaccardReference(const CsrGraph& graph, NodeId target,
                                    UtilityWorkspace& workspace);

}  // namespace privrec

#endif  // PRIVREC_UTILITY_TWO_HOP_KERNELS_H_
