#ifndef PRIVREC_GRAPH_CSR_PATCH_H_
#define PRIVREC_GRAPH_CSR_PATCH_H_

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/edge_delta.h"

namespace privrec {

/// Block-shared CSR splice (README "Block-shared CSR snapshots"): returns
/// the CSR of `prev` with the one toggle `delta` applied — arc u -> v, plus
/// the mirror arc v -> u when `prev` is undirected (undirected CSRs store
/// each edge as two arcs).
///
/// The result copies the top level of `prev`'s two-level block table and
/// rebuilds only the blocks holding the toggled endpoints, each with a
/// copy of its chunk of the table (CsrGraph::SetOutNeighbors); every other
/// block and chunk is shared, and `prev` itself stays intact for whoever
/// still reads it. Cost: one pointer per chunk of 4,096 nodes plus at most
/// two blocks and two chunks — no per-arc work outside the endpoints'
/// blocks. DynamicGraph publishes every successful AddEdge /
/// RemoveEdge through this splice; perfbench's traced churn run reports
/// the mutation's cost (`graph.mutate_svc_p50_us`) and the share of
/// publications the splice serves (`graph.patch_share`).
///
/// Errors (InvalidArgument) when the toggle is inconsistent with `prev`:
/// an insertion of a present arc, a deletion of an absent arc, or an
/// endpoint out of range (or a self-loop, which no CSR stores).
Result<CsrGraph> PatchCsr(const CsrGraph& prev, const EdgeDelta& delta);

}  // namespace privrec

#endif  // PRIVREC_GRAPH_CSR_PATCH_H_
