#ifndef PRIVREC_GRAPH_CSR_PATCH_H_
#define PRIVREC_GRAPH_CSR_PATCH_H_

#include <span>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/edge_delta.h"

namespace privrec {

/// Journal-driven CSR patching (the "incrementally-patched CSR snapshots"
/// of README "Incremental maintenance"): applies the ordered edge-delta
/// window `deltas` to the immutable CSR `prev` and returns the CSR of the
/// post-window graph, without rebuilding from adjacency sets. Each delta
/// toggles arc u -> v; when `prev` is undirected the mirror arc v -> u
/// toggles too (undirected CSRs store each edge as two arcs).
///
/// One pass over the node range: the offset array is re-based with a
/// running arc shift, untouched nodes' target spans are bulk-memcpy'd, and
/// each touched node's sorted neighbor list is spliced against its (also
/// sorted) net insertions/deletions. Deltas that cancel inside the window
/// (add then remove of the same arc) net to nothing. Cost beyond the
/// unavoidable O(n + m) array copy of an immutable snapshot:
/// O(Δ log Δ + Σ deg(touched)) — no hashing, no global sort, no
/// per-arc dedup, which is what makes a patched publication several times
/// cheaper than GraphBuilder::Build on the same state. perfbench's traced
/// churn run reports its cost per toggle (`graph.publish_us`) and the
/// share of publications it serves (`graph.patch_share`).
///
/// Errors (InvalidArgument) when the window is inconsistent with `prev`
/// after cancellation — a net insertion of an arc already present, a net
/// deletion of an arc absent, an endpoint out of range, or a net count
/// outside ±1 (a malformed journal). Callers treat any error as "patch
/// impossible, rebuild from scratch"; DynamicGraph does exactly that.
Result<CsrGraph> PatchCsr(const CsrGraph& prev,
                          std::span<const EdgeDelta> deltas);

}  // namespace privrec

#endif  // PRIVREC_GRAPH_CSR_PATCH_H_
