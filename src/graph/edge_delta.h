#ifndef PRIVREC_GRAPH_EDGE_DELTA_H_
#define PRIVREC_GRAPH_EDGE_DELTA_H_

#include <cstdint>

#include "graph/csr_graph.h"

namespace privrec {

/// One recorded edge mutation of a DynamicGraph (see the edge-delta
/// journal in graph/dynamic_graph.h). For undirected graphs the delta
/// toggles the single logical edge {u, v} (both arcs).
struct EdgeDelta {
  NodeId u = 0;
  NodeId v = 0;
  /// true for AddEdge, false for RemoveEdge.
  bool added = true;
  /// DynamicGraph::version() immediately AFTER this mutation applied; the
  /// journal invariant is that retained deltas carry consecutive versions.
  uint64_t version = 0;
};

/// Whether toggling edge (delta.u, delta.v) can change the utility vector
/// of `target` under any 2-hop utility of the form
///   u_r[i] = sum over common/intermediate neighbors z of w(out-deg(z))
/// (common neighbors, Adamic-Adar, resource allocation), including changes
/// to the candidate set (the paper's convention excludes N(r) and r).
///
/// `graph` must be a snapshot taken at or after the delta (the post-batch
/// state). Evaluating the membership test against a later snapshot is
/// sound as long as EVERY delta between the cached vector's version and
/// the snapshot is tested: if some delta made `target` affected through an
/// adjacency that a later delta removed again, that later delta has
/// `target` as an endpoint and flags it itself.
///
/// Directed graphs: target r is affected iff r == u (its first-hop set or
/// candidate set changed) or r has the arc r -> u (paths through u gain /
/// lose i = v and u's out-degree weight shifts). The head v is NOT
/// affected: its out-neighborhood, out-degree, and candidate set are all
/// untouched (paths v -> u -> * involve the separate arc v -> u).
/// Undirected graphs: both arcs toggle, so the rule applies to both
/// endpoints: affected iff r is an endpoint or adjacent to one.
///
/// This structural test is exact ONLY for the pure two-hop weighted-count
/// family, and it reads only the target's own adjacency and the delta's
/// endpoints, which is what makes it safe as a cache keep test (see
/// UtilityFunction::EdgeDeltaAffects). Cache repair goes through that
/// virtual, not this function directly.
bool EdgeDeltaAffectsTarget(const CsrGraph& graph, const EdgeDelta& delta,
                            NodeId target);

}  // namespace privrec

#endif  // PRIVREC_GRAPH_EDGE_DELTA_H_
