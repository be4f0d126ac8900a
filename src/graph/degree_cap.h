#ifndef PRIVREC_GRAPH_DEGREE_CAP_H_
#define PRIVREC_GRAPH_DEGREE_CAP_H_

#include <cstdint>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/edge_delta.h"

namespace privrec {

/// Degree-capped projection for node-DP serving (the paper's Appendix A
/// setting: a node's entire neighborhood is the protected object, so
/// sensitivity must be bounded by a degree cap D rather than by one edge).
///
/// Selection rule: each node keeps its first min(deg, D) out-neighbors in
/// CSR (sorted ascending id) order — the D smallest neighbor ids. The rule
/// is
///  - deterministic: a pure function of the node's own neighbor set, with
///    no randomness and no cross-node state, so neighboring graphs project
///    consistently (the auditor relies on this: rewiring node x leaves the
///    projected lists of every node not adjacent to x — on either side —
///    bit-identical, and the target's own projected list is unchanged by
///    construction of MakeNodeRewiringPair, so both sides share one
///    candidate set);
///  - stable: toggling one edge (u, v) changes only u's (and, undirected,
///    v's) kept prefix, by at most one insertion/eviction at the cap
///    boundary — which is what lets the patch below rebuild at most the
///    endpoints' blocks;
///  - degree-bounding: every projected out-degree is <= D, which is the
///    fact node-sensitivity accounting (UtilityFunction::
///    NodeSensitivityBound) charges against.
///
/// The projection preserves the base graph's directed() flag. For an
/// undirected base the kept arcs can be mildly asymmetric (y may keep a
/// high-degree x while x evicted y): the serving stack only ever reads
/// out-neighbor lists, and keeping the undirected flag keeps every
/// utility's two-orientation (conservative) sensitivity constants. Note
/// num_edges() on such a view is arcs/2 — an accounting convention, not a
/// claim of symmetry.
CsrGraph ProjectDegreeCapped(const CsrGraph& graph, uint32_t cap);

/// Block-shared companion to PatchCsr for the projected view: given the
/// previous projected CSR, the base CSR after the toggle `delta`, and the
/// toggle itself, re-derives the kept prefixes of the toggle's endpoints
/// from `new_base` and shares every other block of `prev_projected` — the
/// selection rule is per-node-local, so nothing else can change. An
/// endpoint whose kept prefix is unchanged (a toggle past the cap, or the
/// head of a directed arc) costs no block at all. InvalidArgument when the
/// cap is 0, the node counts disagree, or an endpoint is out of range;
/// DynamicGraph then re-projects with ProjectDegreeCapped.
Result<CsrGraph> PatchProjectedCsr(const CsrGraph& prev_projected,
                                   const CsrGraph& new_base,
                                   const EdgeDelta& delta, uint32_t cap);

}  // namespace privrec

#endif  // PRIVREC_GRAPH_DEGREE_CAP_H_
