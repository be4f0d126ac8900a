// Property tests for the degree-capped projection layer (graph/degree_cap.h)
// that node-DP serving reads through:
//  - node-pair differential locality: rewiring node x leaves the projected
//    out-list of every node not adjacent to x (on either side) bit-identical,
//    at every cap — the structural fact the node-sensitivity bound
//    D * Δf_edge charges against;
//  - determinism: the projected view is a pure function of the base graph
//    and the cap — identical across repeated materializations and across
//    service shard counts;
//  - patched-vs-rebuilt equality: a mutation-heavy DynamicGraph whose
//    projected companions are block-shared splices (PatchProjectedCsr)
//    publishes, after every mutation, the projection of a from-scratch
//    build of a test-held edge set, through AddNode growth.

#include <gtest/gtest.h>

#include <vector>

#include "edge_set_model.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "gen/neighboring.h"
#include "graph/degree_cap.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/link_predictors.h"

namespace privrec {
namespace {

constexpr uint32_t kCaps[] = {1, 2, 3, 8};

bool SameOutList(const CsrGraph& a, const CsrGraph& b, NodeId v) {
  const auto la = a.OutNeighbors(v);
  const auto lb = b.OutNeighbors(v);
  if (la.size() != lb.size()) return false;
  for (size_t i = 0; i < la.size(); ++i) {
    if (la[i] != lb[i]) return false;
  }
  return true;
}

// ------------------------------------------- node-pair differential locality

TEST(DegreeCapProjectionTest, NodePairDifferentialLocalityAtEveryCap) {
  // For a node-rewiring pair (G, G') differing in node x's neighborhood,
  // and any cap D: a node w whose adjacency contains x on NEITHER side has
  // a bit-identical projected out-list on both sides. This is the
  // selection rule's per-node locality (each kept prefix is a pure
  // function of the node's own neighbor set), and it is what confines a
  // rewiring's blast radius to x and x's (old or new) neighbors.
  Rng rng(901);
  auto graph = ErdosRenyiGnm(30, 120, /*directed=*/false, rng);
  ASSERT_TRUE(graph.ok());
  for (uint32_t cap : kCaps) {
    for (int trial = 0; trial < 8; ++trial) {
      const NodeId x = static_cast<NodeId>(1 + rng.NextBounded(29));
      auto pair = MakeNodeRewiringPair(*graph, /*target=*/0, x, rng);
      ASSERT_TRUE(pair.ok());
      const CsrGraph base_proj = ProjectDegreeCapped(pair->base, cap);
      const CsrGraph rewired_proj = ProjectDegreeCapped(pair->neighbor, cap);
      for (NodeId w = 0; w < base_proj.num_nodes(); ++w) {
        // Every projected out-degree honors the cap — the degree bound
        // node-sensitivity accounting charges against.
        EXPECT_LE(base_proj.OutDegree(w), cap);
        EXPECT_LE(rewired_proj.OutDegree(w), cap);
        if (w == x) continue;
        const bool touches_x =
            pair->base.HasEdge(w, x) || pair->neighbor.HasEdge(w, x);
        if (touches_x) continue;
        EXPECT_TRUE(SameOutList(base_proj, rewired_proj, w))
            << "cap " << cap << ": node " << w
            << " is not adjacent to rewired node " << x
            << " on either side but its projected out-list moved";
      }
    }
  }
}

TEST(DegreeCapProjectionTest, WorstCasePairSwingBoundedByCap) {
  // On the trip-wire fixture (x's whole adjacency removed), the projected
  // candidate utilities can move by at most the capped prefix the target
  // actually kept — spot-check the arithmetic the bench's honest rows rely
  // on: r keeps exactly min(zs, D) z's, and each z's list loses exactly
  // the one arc to x.
  const NeighboringPair pair = MakeNodeAuditRewiringPair();
  for (uint32_t cap : kCaps) {
    const CsrGraph base_proj = ProjectDegreeCapped(pair.base, cap);
    const CsrGraph rewired_proj = ProjectDegreeCapped(pair.neighbor, cap);
    EXPECT_EQ(base_proj.OutDegree(0), std::min<uint32_t>(32, cap));
    EXPECT_TRUE(SameOutList(base_proj, rewired_proj, 0))
        << "target r's projected prefix must not move under x's rewiring";
    EXPECT_EQ(rewired_proj.OutDegree(1), 0u);  // x emptied
    for (NodeId z = 3; z < 35; ++z) {
      // z's raw adjacency is {r, x} -> {r}; both fit under every cap.
      EXPECT_EQ(base_proj.OutDegree(z), std::min<uint32_t>(2, cap));
      EXPECT_EQ(rewired_proj.OutDegree(z), std::min<uint32_t>(1, cap));
    }
  }
}

// ----------------------------------------------------------- determinism

TEST(DegreeCapProjectionTest, DeterministicAcrossMaterializations) {
  Rng rng(902);
  auto graph = ErdosRenyiGnm(40, 160, /*directed=*/false, rng);
  ASSERT_TRUE(graph.ok());
  for (uint32_t cap : kCaps) {
    const CsrGraph once = ProjectDegreeCapped(*graph, cap);
    const CsrGraph twice = ProjectDegreeCapped(*graph, cap);
    EXPECT_TRUE(once.Equals(twice));
  }
}

TEST(DegreeCapProjectionTest, DeterministicAcrossServiceShardCounts) {
  // Two kNode services over the same graph with different shard counts
  // must serve off Equals()-identical projected views: the projection is
  // published once per DynamicGraph snapshot, not per shard, and equals
  // the pure-function materialization. (Guards against a future "each
  // shard projects its own stripe" optimization changing the view.)
  Rng rng(903);
  auto graph = ErdosRenyiGnm(64, 256, /*directed=*/false, rng);
  ASSERT_TRUE(graph.ok());
  const CsrGraph expected = ProjectDegreeCapped(*graph, 4);
  for (size_t shards : {size_t{1}, size_t{8}}) {
    DynamicGraph dynamic(*graph);
    ServiceOptions options;
    options.release_epsilon = 0.5;
    options.per_user_budget = 100.0;
    options.num_shards = shards;
    options.privacy_model = PrivacyModel::kNode;
    options.degree_cap = 4;
    RecommendationService service(
        &dynamic, std::make_unique<ResourceAllocationUtility>(), options);
    // Touch every shard so each pins its snapshot through the serve path.
    Rng serve_rng(904);
    for (NodeId user = 0; user < 16; ++user) {
      ASSERT_TRUE(service.ServeForAudit(user, serve_rng).ok());
    }
    const DynamicGraph::StampedSnapshot snap = dynamic.VersionedSnapshot();
    ASSERT_NE(snap.projected, nullptr);
    EXPECT_TRUE(snap.projected->Equals(expected))
        << shards << "-shard service projected view diverged";
  }
}

// ---------------------------------------- patched vs rebuilt projections

TEST(ProjectionSnapshotPatchTest, RandomizedMutationsEqualFromScratch) {
  // Mirror harness: every mutation publishes a projected companion spliced
  // from its predecessor (PatchProjectedCsr, or a shared-block extension
  // on AddNode). After every step the published snapshot must Equals() a
  // from-scratch GraphBuilder build of a test-held edge set, and its
  // projection must Equals() ProjectDegreeCapped of that build — on
  // directed and undirected graphs spanning two blocks, with AddNode
  // growing them across a block boundary.
  for (bool directed : {false, true}) {
    for (uint32_t cap : {2u, 8u}) {
      Rng rng(920 + cap + (directed ? 100 : 0));
      auto base = ErdosRenyiGnm(2 * CsrGraph::kBlockNodes - 3, 700, directed,
                                rng);
      ASSERT_TRUE(base.ok());
      DynamicGraph graph(*base);
      graph.SetDegreeCap(cap);
      EdgeSetModel model = EdgeSetModel::Of(*base);
      for (int step = 0; step < 500; ++step) {
        if (!MutateBoth(graph, model, rng, /*add_node_rate=*/0.02)) continue;
        const DynamicGraph::StampedSnapshot snap = graph.VersionedSnapshot();
        ASSERT_NE(snap.projected, nullptr);
        const CsrGraph expected = model.Build();
        ASSERT_TRUE(snap.graph->Equals(expected))
            << "cap " << cap << ": CSR diverged at step " << step;
        ASSERT_TRUE(snap.projected->Equals(ProjectDegreeCapped(expected, cap)))
            << (directed ? "directed" : "undirected") << " cap " << cap
            << ": projected CSR diverged at step " << step;
      }
      EXPECT_GT(model.nodes, 2 * CsrGraph::kBlockNodes)
          << "AddNode never crossed the block boundary";
      // SetDegreeCap projected once from scratch; every mutation since
      // spliced.
      EXPECT_EQ(graph.projection_builds(), 1u);
      EXPECT_GT(graph.projection_patches(), 0u);
    }
  }
}

}  // namespace
}  // namespace privrec
