#ifndef PRIVREC_GRAPH_EDGE_DELTA_H_
#define PRIVREC_GRAPH_EDGE_DELTA_H_

#include <cstdint>
#include <span>

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
/// family. Utilities whose scores also read candidate-side state (Jaccard's
/// union term uses candidate degrees) have a wider blast radius; they
/// override UtilityFunction::EdgeDeltaAffects, and callers deciding cache
/// repairs must go through that virtual, not this function directly.
bool EdgeDeltaAffectsTarget(const CsrGraph& graph, const EdgeDelta& delta,
                            NodeId target);

/// Exact keep test for truncated-walk utilities (Katz, personalized
/// PageRank): true iff some window delta's changed out-list can be READ by
/// a walk of at most `max_hops` arcs from `target` — i.e. some delta TAIL
/// (the arc's source; both endpoints on undirected graphs) is the target
/// itself or reachable from it within `max_hops` hops. Reachability runs
/// over the UNION of the post-window snapshot's arcs and every window arc
/// (injected regardless of add/remove): the union is a supergraph of every
/// intermediate state, so "tail unreachable in the union" proves no walk in
/// ANY state of the window touches a changed list — the cached vector is
/// exactly current and may be kept.
///
/// BFS never re-expands `target`, which matches both walk conventions:
/// Katz walks avoid the target as an intermediate, and for PPR (walks may
/// revisit the target) any walk through the target has a suffix from the
/// target at most as long, so plain BFS reachability is equivalent.
bool WindowWithinWalkCone(const CsrGraph& graph,
                          std::span<const EdgeDelta> window, NodeId target,
                          int max_hops);

}  // namespace privrec

#endif  // PRIVREC_GRAPH_EDGE_DELTA_H_
