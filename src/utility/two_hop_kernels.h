#ifndef PRIVREC_UTILITY_TWO_HOP_KERNELS_H_
#define PRIVREC_UTILITY_TWO_HOP_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "graph/csr_graph.h"
#include "utility/utility_vector.h"
#include "utility/utility_workspace.h"

namespace privrec {

/// Per-intermediate degree weight of a 2-hop utility, evaluated at an
/// out-degree.
using DegreeWeightFn = double (*)(uint32_t degree);

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
