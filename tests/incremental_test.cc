// Incremental-maintenance suite (ctest label `incremental`): the
// edge-delta journal and patched snapshot publication on DynamicGraph, the
// exactness of every utility's keep test (an entry EdgeDeltaWindowAffects
// clears equals a fresh Compute, bit for bit), and the keep-or-recompute
// serving cache (differential vs the full-recompute baseline,
// journal-compaction fallback, frozen-sampler survival, and a TSAN-facing
// concurrent mutate/repair stress — ci/sanitize.sh runs this label under
// ThreadSanitizer and the whole suite under ASan+UBSan).

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/privacy_accountant.h"
#include "edge_set_model.h"
#include "eval/parallel.h"
#include "gen/generators.h"
#include "graph/csr_patch.h"
#include "graph/degree_cap.h"
#include "graph/dynamic_graph.h"
#include "graph/edge_delta.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/adamic_adar.h"
#include "utility/common_neighbors.h"
#include "utility/link_predictors.h"
#include "utility/personalized_pagerank.h"
#include "utility/sensitivity.h"

namespace privrec {
namespace {

// ------------------------------------------------------------------ journal

TEST(EdgeDeltaJournalTest, ReplayReconstructsTheGraph) {
  for (bool directed : {false, true}) {
    Rng rng(directed ? 3u : 4u);
    auto base = ErdosRenyiGnm(20, 40, directed, rng);
    ASSERT_TRUE(base.ok());
    DynamicGraph graph(*base);
    const DynamicGraph::StampedSnapshot before = graph.VersionedSnapshot();

    for (int i = 0; i < 50; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(20));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(20));
      if (u == v) continue;
      if (graph.HasEdge(u, v)) {
        ASSERT_TRUE(graph.RemoveEdge(u, v).ok());
      } else {
        ASSERT_TRUE(graph.AddEdge(u, v).ok());
      }
    }
    const DynamicGraph::StampedSnapshot after = graph.VersionedSnapshot();

    auto deltas = graph.EdgeDeltasBetween(before.version, after.version);
    ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
    // Consecutive version stamps, replaying exactly onto the old snapshot.
    DynamicGraph replay(*before.graph);
    uint64_t expected_version = before.version;
    for (const EdgeDelta& delta : *deltas) {
      EXPECT_EQ(delta.version, ++expected_version);
      ASSERT_TRUE((delta.added ? replay.AddEdge(delta.u, delta.v)
                               : replay.RemoveEdge(delta.u, delta.v))
                      .ok());
    }
    EXPECT_EQ(expected_version, after.version);
    EXPECT_TRUE(replay.Snapshot().Equals(*after.graph));
    // Empty window is fine; inverted or future windows are not.
    EXPECT_TRUE(graph.EdgeDeltasBetween(after.version, after.version)->empty());
    EXPECT_TRUE(graph.EdgeDeltasBetween(after.version, before.version)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(graph.EdgeDeltasBetween(0, after.version + 1)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(EdgeDeltaJournalTest, CompactionAndAddNodeForceTheFallback) {
  DynamicGraph graph(10, /*directed=*/false);
  graph.SetJournalCapacity(4);
  for (NodeId v = 1; v <= 8; ++v) {
    ASSERT_TRUE(graph.AddEdge(0, v).ok());
  }
  // Only the last 4 of 8 toggles are retained.
  EXPECT_EQ(graph.journal_floor_version(), 4u);
  EXPECT_TRUE(graph.EdgeDeltasBetween(0, 8).status().IsOutOfRange());
  EXPECT_TRUE(graph.EdgeDeltasBetween(3, 8).status().IsOutOfRange());
  auto tail = graph.EdgeDeltasBetween(4, 8);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 4u);

  // AddNode is a version bump no edge delta can describe: every window
  // crossing it must fail, windows after it work again.
  graph.AddNode();
  EXPECT_EQ(graph.version(), 9u);
  EXPECT_TRUE(graph.EdgeDeltasBetween(8, 9).status().IsOutOfRange());
  ASSERT_TRUE(graph.AddEdge(10, 3).ok());
  auto after_node = graph.EdgeDeltasBetween(9, 10);
  ASSERT_TRUE(after_node.ok());
  EXPECT_EQ(after_node->size(), 1u);

  // Capacity 0 disables journaling outright.
  graph.SetJournalCapacity(0);
  ASSERT_TRUE(graph.AddEdge(10, 4).ok());
  EXPECT_TRUE(graph.EdgeDeltasBetween(graph.version() - 1, graph.version())
                  .status()
                  .IsOutOfRange());
}

// --------------------------------------------------------- snapshot patching

TEST(CsrPatchTest, SplicesInsertionsDeletionsAndCancelledPairs) {
  GraphBuilder builder(/*directed=*/true);
  builder.SetNumNodes(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 3);
  builder.AddEdge(2, 4);
  builder.AddEdge(5, 0);
  const CsrGraph original = builder.Build();
  // Toggles, one splice each: insert 0->2 (between 1 and 3), delete 2->4,
  // toggle 4->5 on and off again, insert 3->1.
  const std::vector<EdgeDelta> toggles = {
      {0, 2, true, 1}, {2, 4, false, 2}, {4, 5, true, 3},
      {4, 5, false, 4}, {3, 1, true, 5},
  };
  // A copy that shares no block or chunk with `g`.
  const auto unshared = [](const CsrGraph& g) {
    std::vector<uint64_t> offsets = {0};
    std::vector<NodeId> targets;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      targets.insert(targets.end(), g.OutNeighbors(v).begin(),
                     g.OutNeighbors(v).end());
      offsets.push_back(targets.size());
    }
    return CsrGraph(std::move(offsets), std::move(targets), g.directed());
  };
  CsrGraph graph = original;
  for (const EdgeDelta& delta : toggles) {
    const CsrGraph before = unshared(graph);
    auto patched = PatchCsr(graph, delta);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    // The input is never written, though the output shares its blocks.
    EXPECT_TRUE(graph.Equals(before));
    graph = *std::move(patched);
  }
  GraphBuilder expect_builder(/*directed=*/true);
  expect_builder.SetNumNodes(6);
  expect_builder.AddEdge(0, 1);
  expect_builder.AddEdge(0, 2);
  expect_builder.AddEdge(0, 3);
  expect_builder.AddEdge(5, 0);
  expect_builder.AddEdge(3, 1);
  EXPECT_TRUE(graph.Equals(expect_builder.Build()));
}

TEST(CsrPatchTest, InconsistentTogglesAreRejected) {
  GraphBuilder builder(/*directed=*/false);
  builder.SetNumNodes(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const CsrGraph prev = builder.Build();
  // Insertion of a present edge / deletion of an absent one.
  EXPECT_TRUE(PatchCsr(prev, {0, 1, true, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(PatchCsr(prev, {0, 3, false, 1}).status().IsInvalidArgument());
  // Endpoint out of range (an AddNode happened after the stamp), and a
  // self-loop, which no CSR stores.
  EXPECT_TRUE(PatchCsr(prev, {0, 9, true, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(PatchCsr(prev, {2, 2, true, 1}).status().IsInvalidArgument());
  // An undirected CSR whose mirror arc is missing is rejected before
  // either arc is spliced.
  const CsrGraph lopsided({0, 1, 1}, {1}, /*directed=*/false);
  EXPECT_TRUE(
      PatchCsr(lopsided, {0, 1, false, 1}).status().IsInvalidArgument());
  // A consistent single insertion still patches, both arcs.
  auto patched = PatchCsr(prev, {0, 2, true, 1});
  ASSERT_TRUE(patched.ok());
  EXPECT_TRUE(patched->HasEdge(0, 2));
  EXPECT_TRUE(patched->HasEdge(2, 0));
  EXPECT_EQ(patched->num_edges(), prev.num_edges() + 1);
}

TEST(SnapshotPatchTest, RandomizedMutationsEqualFromScratchRebuilds) {
  // The tentpole property: every snapshot a mutation publishes — a
  // block-shared splice of its predecessor — Equals() a from-scratch
  // GraphBuilder build of a test-held edge set, after every step. The
  // graph spans two blocks, toggles land inside one block and across
  // two, and AddNode grows it across a block boundary.
  for (bool directed : {false, true}) {
    Rng rng(directed ? 211u : 212u);
    auto base = ErdosRenyiGnm(2 * CsrGraph::kBlockNodes - 3, 600, directed,
                              rng);
    ASSERT_TRUE(base.ok());
    DynamicGraph graph(*base);
    EdgeSetModel model = EdgeSetModel::Of(*base);
    for (int step = 0; step < 600; ++step) {
      if (!MutateBoth(graph, model, rng, /*add_node_rate=*/0.02)) continue;
      const DynamicGraph::StampedSnapshot snap = graph.VersionedSnapshot();
      ASSERT_EQ(snap.version, graph.version());
      ASSERT_EQ(snap.num_edges, model.edges.size());
      ASSERT_TRUE(snap.graph->Equals(model.Build()))
          << (directed ? "directed" : "undirected")
          << " CSR diverged at step " << step;
    }
    EXPECT_GT(model.nodes, 2 * CsrGraph::kBlockNodes)
        << "AddNode never crossed the block boundary";
    EXPECT_EQ(graph.snapshot_builds(), 1u);  // the initial import only
  }
}

TEST(SnapshotPatchTest, EveryMutationPublishesExactlyOnce) {
  // The publication contract: each successful mutation — edge toggle or
  // AddNode, journal on or off — adds exactly one to snapshot_builds() +
  // snapshot_patches() before it returns; failed mutations and snapshot
  // reads add nothing.
  DynamicGraph g(10, /*directed=*/false);
  const auto publications = [&] {
    return g.snapshot_builds() + g.snapshot_patches();
  };
  EXPECT_EQ(g.snapshot_builds(), 1u);  // the initial snapshot
  EXPECT_EQ(g.snapshot_patches(), 0u);
  const auto expect_one = [&](auto mutate) {
    const uint64_t before = publications();
    mutate();
    EXPECT_EQ(publications(), before + 1);
    const uint64_t after = publications();
    (void)g.VersionedSnapshot();
    (void)g.SharedSnapshot();
    (void)g.HasEdge(0, 1);
    EXPECT_EQ(publications(), after) << "a read published";
  };
  expect_one([&] { ASSERT_TRUE(g.AddEdge(0, 1).ok()); });
  expect_one([&] { ASSERT_TRUE(g.AddEdge(0, 2).ok()); });
  expect_one([&] { ASSERT_TRUE(g.RemoveEdge(0, 1).ok()); });
  expect_one([&] { g.AddNode(); });
  g.SetJournalCapacity(0);  // the journal no longer affects publication
  expect_one([&] { ASSERT_TRUE(g.AddEdge(1, 10).ok()); });
  // Every one of them spliced; none was built from scratch.
  EXPECT_EQ(g.snapshot_builds(), 1u);
  EXPECT_EQ(g.snapshot_patches(), 5u);

  const uint64_t before = publications();
  EXPECT_TRUE(g.AddEdge(0, 2).IsFailedPrecondition());
  EXPECT_TRUE(g.RemoveEdge(3, 4).IsFailedPrecondition());
  EXPECT_TRUE(g.AddEdge(5, 5).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(0, 99).IsInvalidArgument());
  EXPECT_EQ(publications(), before);
}

TEST(SnapshotPatchTest, PinnedSnapshotSurvivesSharedBlockChurn) {
  // Block sharing allows one new fault: a splice that writes into a block
  // an older snapshot still reads. Pin a snapshot (and its projection) of
  // a Chung-Lu graph, hammer its first blocks with toggles and AddNode,
  // and check that the pinned pair still equals its saved flat lists.
  Rng rng(4411);
  const std::vector<double> weights = PowerLawWeights(2000, 2.2);
  auto base = ChungLu(weights, weights, 8000, /*directed=*/false, rng);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  DynamicGraph graph(*base);
  graph.SetDegreeCap(3);
  const DynamicGraph::StampedSnapshot pinned = graph.VersionedSnapshot();
  ASSERT_NE(pinned.projected, nullptr);
  const auto flatten = [](const CsrGraph& g) {
    std::vector<std::vector<NodeId>> lists(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      lists[v].assign(g.OutNeighbors(v).begin(), g.OutNeighbors(v).end());
    }
    return lists;
  };
  const auto saved_graph = flatten(*pinned.graph);
  const auto saved_projection = flatten(*pinned.projected);

  // Skewed onto the first blocks: 3/4 of the toggles keep both endpoints
  // in the first four blocks.
  const NodeId hot = 4 * CsrGraph::kBlockNodes;
  int toggles = 0;
  while (toggles < 3000) {
    if (rng.NextBernoulli(0.002)) {
      graph.AddNode();
      continue;
    }
    const NodeId range = rng.NextBernoulli(0.75) ? hot : graph.num_nodes();
    const NodeId u = static_cast<NodeId>(rng.NextBounded(range));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(range));
    if (u == v) continue;
    ASSERT_TRUE(graph.HasEdge(u, v) ? graph.RemoveEdge(u, v).ok()
                                    : graph.AddEdge(u, v).ok());
    ++toggles;
  }
  EXPECT_EQ(flatten(*pinned.graph), saved_graph);
  EXPECT_EQ(flatten(*pinned.projected), saved_projection);
  EXPECT_EQ(pinned.num_edges, pinned.graph->num_edges());
  // The live graph moved on, and its projection still follows the rule.
  const DynamicGraph::StampedSnapshot live = graph.VersionedSnapshot();
  EXPECT_FALSE(live.graph->Equals(*pinned.graph));
  EXPECT_TRUE(live.projected->Equals(ProjectDegreeCapped(*live.graph, 3)));
}

// ------------------------------------------------- affected-set completeness

/// Bitwise equality of two utility vectors: bitwise-equal scores sort
/// identically (ties break on node id), so the descending entry arrays must
/// agree position by position.
void ExpectVectorsIdentical(const UtilityVector& a, const UtilityVector& b) {
  ASSERT_EQ(a.num_candidates(), b.num_candidates());
  ASSERT_EQ(a.nonzero().size(), b.nonzero().size());
  for (size_t i = 0; i < a.nonzero().size(); ++i) {
    EXPECT_EQ(a.nonzero()[i].node, b.nonzero()[i].node) << "entry " << i;
    EXPECT_EQ(a.nonzero()[i].utility, b.nonzero()[i].utility)
        << "entry " << i;
  }
}

TEST(AffectedTargetsTest, MembershipTestIsComplete) {
  // Brute force over every target: one the structural test clears must
  // have IDENTICAL fresh vectors across the toggle, for both the
  // constant-weight and the degree-weighted utility.
  for (bool directed : {false, true}) {
    Rng rng(directed ? 21u : 22u);
    auto base = ErdosRenyiGnm(30, 70, directed, rng);
    ASSERT_TRUE(base.ok());
    DynamicGraph graph(*base);
    CommonNeighborsUtility cn;
    AdamicAdarUtility aa;
    UtilityWorkspace workspace;
    for (int i = 0; i < 25; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(30));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(30));
      if (u == v) continue;
      const DynamicGraph::StampedSnapshot before = graph.VersionedSnapshot();
      const bool added = !graph.HasEdge(u, v);
      ASSERT_TRUE((added ? graph.AddEdge(u, v) : graph.RemoveEdge(u, v)).ok());
      const DynamicGraph::StampedSnapshot after = graph.VersionedSnapshot();
      const EdgeDelta delta{u, v, added, after.version};
      for (NodeId target = 0; target < 30; ++target) {
        if (EdgeDeltaAffectsTarget(*after.graph, delta, target)) continue;
        ExpectVectorsIdentical(cn.Compute(*before.graph, target, workspace),
                               cn.Compute(*after.graph, target, workspace));
        ExpectVectorsIdentical(aa.Compute(*before.graph, target, workspace),
                               aa.Compute(*after.graph, target, workspace));
      }
    }
  }
}

// ---------------------------------------------------- keep-test exactness

/// Drives windows of 1–8 toggles, skewed toward a hot third of the node
/// space, against a cache of every target's vector — the service's repair
/// in miniature. After each window, every target the utility's
/// EdgeDeltaWindowAffects flags is recomputed, and every target it clears
/// keeps its cached vector, which must equal a fresh Compute bit for bit:
/// a kept vector is the one the serving cache releases from. Kept vectors
/// carry over into the next window, so a keep that should have been a
/// recompute stays wrong until the comparison catches it. The drive only
/// certifies something if it both keeps and flags, so it asserts both.
void RunKeepTestIsExactProperty(const UtilityFunction& utility, bool directed,
                                uint64_t seed) {
  ASSERT_TRUE(utility.SupportsIncrementalUpdate()) << utility.name();
  Rng rng(seed);
  constexpr NodeId kNodes = 60;
  constexpr NodeId kHot = kNodes / 3;
  auto base = ErdosRenyiGnm(kNodes, 80, directed, rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  UtilityWorkspace workspace;

  std::vector<UtilityVector> cached;
  cached.reserve(kNodes);
  const DynamicGraph::StampedSnapshot initial = graph.VersionedSnapshot();
  for (NodeId target = 0; target < kNodes; ++target) {
    cached.push_back(utility.Compute(*initial.graph, target, workspace));
  }

  uint64_t kept = 0;
  uint64_t flagged = 0;
  for (int round = 0; round < 20; ++round) {
    const size_t window_size = 1 + rng.NextBounded(8);
    std::vector<EdgeDelta> window;
    while (window.size() < window_size) {
      // Skew: most toggles land inside the hot pool.
      const NodeId span = rng.NextBounded(4) == 0 ? kNodes : kHot;
      const NodeId u = static_cast<NodeId>(rng.NextBounded(span));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(span));
      if (u == v) continue;
      const bool added = !graph.HasEdge(u, v);
      ASSERT_TRUE((added ? graph.AddEdge(u, v) : graph.RemoveEdge(u, v)).ok());
      window.push_back(EdgeDelta{u, v, added, graph.version()});
    }
    const DynamicGraph::StampedSnapshot snap = graph.VersionedSnapshot();
    for (NodeId target = 0; target < kNodes; ++target) {
      const UtilityVector fresh =
          utility.Compute(*snap.graph, target, workspace);
      if (utility.EdgeDeltaWindowAffects(*snap.graph, window, target,
                                         cached[target])) {
        ++flagged;
        cached[target] = fresh;
        continue;
      }
      ++kept;
      ExpectVectorsIdentical(cached[target], fresh);
      if (::testing::Test::HasFailure()) {
        FAIL() << utility.name() << (directed ? " directed" : " undirected")
               << ": kept vector differs from a fresh Compute at round "
               << round << " (window " << window.size() << ") target "
               << target;
      }
    }
  }
  EXPECT_GT(kept, 0u) << utility.name() << ": the keep test never cleared";
  EXPECT_GT(flagged, 0u) << utility.name() << ": the keep test never flagged";
}

TEST(KeepTestTest, CommonNeighborsKeepsOnlyExactEntries) {
  CommonNeighborsUtility cn;
  RunKeepTestIsExactProperty(cn, /*directed=*/false, 131);
  RunKeepTestIsExactProperty(cn, /*directed=*/true, 132);
}

TEST(KeepTestTest, AdamicAdarKeepsOnlyExactEntries) {
  AdamicAdarUtility aa;
  RunKeepTestIsExactProperty(aa, /*directed=*/false, 133);
  RunKeepTestIsExactProperty(aa, /*directed=*/true, 134);
}

TEST(KeepTestTest, ResourceAllocationKeepsOnlyExactEntries) {
  ResourceAllocationUtility ra;
  RunKeepTestIsExactProperty(ra, /*directed=*/false, 135);
  RunKeepTestIsExactProperty(ra, /*directed=*/true, 136);
}

TEST(KeepTestTest, JaccardKeepsOnlyExactEntries) {
  // Jaccard widens the structural rule by the cached support (candidate
  // degrees enter the union term) and, on directed graphs, by the
  // hidden-support clause; a missed dependence would keep a stale vector.
  JaccardUtility jaccard;
  RunKeepTestIsExactProperty(jaccard, /*directed=*/false, 137);
  RunKeepTestIsExactProperty(jaccard, /*directed=*/true, 138);
}

TEST(KeepTestTest, KatzKeepsOnlyExactEntries) {
  // The walk-cone test (depth L - 1) replaces the 2-hop rule.
  KatzUtility katz(0.05, 3);
  RunKeepTestIsExactProperty(katz, /*directed=*/false, 139);
  RunKeepTestIsExactProperty(katz, /*directed=*/true, 140);
}

TEST(KeepTestTest, PersonalizedPageRankKeepsOnlyExactEntries) {
  // The push-cone test (depth iterations - 1), dangling restarts included.
  PersonalizedPageRankUtility ppr(0.2, 4);
  RunKeepTestIsExactProperty(ppr, /*directed=*/false, 141);
  RunKeepTestIsExactProperty(ppr, /*directed=*/true, 142);
}

TEST(KeepTestTest, JaccardDirectedHiddenSupportSurfacesAcrossWindow) {
  // Regression: candidate 5 has arcs 1->5 and 2->5, out-degree 0, and full
  // intersection with target 0 (N_out(0) = {1,2}) — suppressed by
  // Compute's uni > 0 guard, hence absent from the cached support. A
  // window {add 5->3, add 5->4} moves 5's out-degree 0 -> 2 without any
  // structural contact with target 0; a per-delta OutDegree test sees 2
  // for both deltas and would KEEP the stale vector, but the window form
  // nets the arcs back to the pre-window degree 0 and must flag it.
  GraphBuilder builder(/*directed=*/true);
  builder.SetNumNodes(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 5);
  builder.AddEdge(2, 5);
  DynamicGraph graph(builder.Build());
  JaccardUtility jaccard;
  UtilityWorkspace workspace;
  const DynamicGraph::StampedSnapshot before = graph.VersionedSnapshot();
  const UtilityVector cached = jaccard.Compute(*before.graph, 0, workspace);
  EXPECT_TRUE(cached.nonzero().empty()) << "candidate 5 must start hidden";
  ASSERT_TRUE(graph.AddEdge(5, 3).ok());
  ASSERT_TRUE(graph.AddEdge(5, 4).ok());
  const DynamicGraph::StampedSnapshot after = graph.VersionedSnapshot();
  const std::vector<EdgeDelta> window = {{5, 3, true, after.version - 1},
                                         {5, 4, true, after.version}};
  ASSERT_TRUE(
      jaccard.EdgeDeltaWindowAffects(*after.graph, window, 0, cached))
      << "window form missed the 0 -> 2 out-degree crossing";
  EXPECT_FALSE(jaccard.Compute(*after.graph, 0, workspace).nonzero().empty())
      << "candidate 5 should have surfaced";
}

TEST(KeepTestTest, FormerPatchHooksDefaultToTheFullRecompute) {
  // The base-class patch hooks stay for out-of-library wrappers; their
  // defaults must remain correct: recompute, no batch support, and a
  // filter that keeps the whole window.
  Rng rng(37);
  auto base = ErdosRenyiGnm(15, 30, /*directed=*/false, rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  PreferentialAttachmentUtility pa;
  EXPECT_FALSE(pa.SupportsIncrementalUpdate());
  EXPECT_FALSE(pa.SupportsIncrementalBatch());
  UtilityWorkspace workspace;
  const DynamicGraph::StampedSnapshot before = graph.VersionedSnapshot();
  const UtilityVector cached = pa.Compute(*before.graph, 0, workspace);
  ASSERT_TRUE(graph.AddEdge(3, 9).ok() || graph.RemoveEdge(3, 9).ok());
  const DynamicGraph::StampedSnapshot after = graph.VersionedSnapshot();
  const EdgeDelta delta{3, 9, true, after.version};
  ExpectVectorsIdentical(
      pa.ApplyEdgeDelta(*after.graph, delta, 0, cached, workspace),
      pa.Compute(*after.graph, 0, workspace));
  ExpectVectorsIdentical(
      pa.ApplyEdgeDeltaBatch(*after.graph,
                             std::span<const EdgeDelta>(&delta, 1), 0, cached,
                             workspace),
      pa.Compute(*after.graph, 0, workspace));
  std::vector<EdgeDelta> filtered;
  pa.FilterAffectingWindow(*after.graph, std::span<const EdgeDelta>(&delta, 1),
                           0, cached, filtered);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].u, delta.u);
  EXPECT_EQ(filtered[0].v, delta.v);
}

// ------------------------------------------------- sensitivity-probe parity

TEST(SensitivityProbeTest, WorkspaceOverloadAgreesWithConvenienceForm) {
  Rng graph_rng(41);
  auto g = ErdosRenyiGnm(20, 45, /*directed=*/false, graph_rng);
  ASSERT_TRUE(g.ok());
  CommonNeighborsUtility cn;
  UtilityWorkspace workspace;
  // Identical rng seeds → identical probe pairs → identical estimates
  // (both forms run the same Computes, so even max/mean agree exactly).
  Rng rng_a(43), rng_b(43);
  const SensitivityEstimate with_ws =
      EstimateEdgeSensitivity(*g, cn, 0, 25, rng_a, /*relaxed=*/true,
                              workspace);
  const SensitivityEstimate convenience =
      EstimateEdgeSensitivity(*g, cn, 0, 25, rng_b, /*relaxed=*/true);
  EXPECT_EQ(with_ws.samples, convenience.samples);
  EXPECT_DOUBLE_EQ(with_ws.max_l1, convenience.max_l1);
  EXPECT_DOUBLE_EQ(with_ws.mean_l1, convenience.mean_l1);
  EXPECT_LE(with_ws.max_l1, cn.SensitivityBound(*g));
}

// ---------------------------------------------------- service differential

ServiceOptions IncrementalServiceOptions() {
  ServiceOptions options;
  options.release_epsilon = 0.25;
  options.per_user_budget = 1e6;
  options.cache_capacity = 256;
  options.num_shards = 4;
  options.seed = 2026;
  return options;
}

TEST(IncrementalServiceTest, DeltaModeServesIdenticallyToBaseline) {
  // Common neighbors has a graph-independent Δf and an exact keep test, so
  // the delta-repaired service and the recompute-everything baseline must
  // serve BYTE-IDENTICAL sequences from identical seeds — the strongest
  // possible statement that repair changes cost, not outcomes.
  Rng graph_rng(51);
  auto weights = PowerLawWeights(200, 2.2);
  auto base = ChungLu(weights, weights, 900, /*directed=*/false, graph_rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph_delta(*base);
  DynamicGraph graph_baseline(*base);
  // Journaling off: every stale visit takes the exact fallback recompute.
  graph_baseline.SetJournalCapacity(0);
  RecommendationService delta_service(
      &graph_delta, std::make_unique<CommonNeighborsUtility>(),
      IncrementalServiceOptions());
  RecommendationService baseline_service(
      &graph_baseline, std::make_unique<CommonNeighborsUtility>(),
      IncrementalServiceOptions());

  Rng ops_rng(53);
  for (int op = 0; op < 1200; ++op) {
    if (ops_rng.NextBernoulli(0.12)) {
      const NodeId u = static_cast<NodeId>(ops_rng.NextBounded(200));
      const NodeId v = static_cast<NodeId>(ops_rng.NextBounded(200));
      if (u == v) continue;
      if (graph_delta.HasEdge(u, v)) {
        ASSERT_TRUE(delta_service.RemoveEdge(u, v).ok());
        ASSERT_TRUE(baseline_service.RemoveEdge(u, v).ok());
      } else {
        ASSERT_TRUE(delta_service.AddEdge(u, v).ok());
        ASSERT_TRUE(baseline_service.AddEdge(u, v).ok());
      }
    } else if (ops_rng.NextBernoulli(0.2)) {
      const NodeId user = static_cast<NodeId>(ops_rng.NextBounded(200));
      auto list_a = delta_service.ServeList(user, 3);
      auto list_b = baseline_service.ServeList(user, 3);
      ASSERT_EQ(list_a.ok(), list_b.ok()) << "op " << op;
      if (!list_a.ok()) continue;
      ASSERT_EQ(list_a->picks.size(), list_b->picks.size());
      for (size_t p = 0; p < list_a->picks.size(); ++p) {
        ASSERT_EQ(list_a->picks[p].node, list_b->picks[p].node)
            << "op " << op << " pick " << p;
      }
    } else {
      const NodeId user = static_cast<NodeId>(ops_rng.NextBounded(200));
      auto rec_a = delta_service.ServeRecommendation(user);
      auto rec_b = baseline_service.ServeRecommendation(user);
      ASSERT_EQ(rec_a.ok(), rec_b.ok()) << "op " << op;
      if (rec_a.ok()) ASSERT_EQ(*rec_a, *rec_b) << "op " << op;
    }
  }

  const ServiceStats delta_stats = delta_service.stats();
  const ServiceStats baseline_stats = baseline_service.stats();
  EXPECT_EQ(delta_stats.served, baseline_stats.served);
  EXPECT_EQ(delta_stats.refused_budget, baseline_stats.refused_budget);
  // The differential is only meaningful if the repair paths actually ran.
  EXPECT_GT(delta_stats.delta_kept, 0u);
  EXPECT_GT(delta_stats.delta_recomputed, 0u);
  EXPECT_EQ(delta_stats.delta_patched, 0u);
  EXPECT_EQ(delta_stats.cache_invalidations, 0u);
  EXPECT_EQ(baseline_stats.delta_kept, 0u);
  EXPECT_EQ(baseline_stats.delta_recomputed, 0u);
  EXPECT_GT(baseline_stats.cache_invalidations, 0u);
  // Delta repair converts baseline recompute-misses into kept hits; both
  // sides account every lookup exactly once.
  EXPECT_EQ(delta_stats.cache_hits + delta_stats.cache_misses,
            baseline_stats.cache_hits + baseline_stats.cache_misses);
  EXPECT_GT(delta_stats.cache_hits, baseline_stats.cache_hits);
}

/// One graph plus the service over it, for multi-service differentials.
struct ServiceReplica {
  ServiceReplica(const CsrGraph& base, const ServiceOptions& options)
      : graph(base),
        service(&graph, std::make_unique<CommonNeighborsUtility>(), options) {}
  DynamicGraph graph;
  RecommendationService service;
};

TEST(IncrementalServiceTest, EveryRepairRouteServesIdenticallyToBaseline) {
  // Sibling of DeltaModeServesIdenticallyToBaseline that drives EVERY
  // route a stale entry can take — keeps, recomputes of affected entries,
  // journal fallbacks after compaction and after AddNode — and still
  // serves byte-identically to the recompute-everything baseline. Each
  // replacement must rebuild the entry's support index: a stale index lets
  // a node whose utility turned positive through as a uniform zero pick
  // (or rejects one whose utility dropped to zero), which moves the
  // resolver's accept/reject decisions off the baseline's for as long as
  // the entry lives.
  Rng graph_rng(51);
  auto weights = PowerLawWeights(200, 2.2);
  auto base = ChungLu(weights, weights, 900, /*directed=*/false, graph_rng);
  ASSERT_TRUE(base.ok());
  ServiceReplica delta(*base, IncrementalServiceOptions());
  ServiceReplica baseline(*base, IncrementalServiceOptions());
  delta.graph.SetJournalCapacity(24);
  baseline.graph.SetJournalCapacity(0);
  ServiceReplica* const replicas[] = {&delta, &baseline};

  // A small hot set is served often enough to lag a few relevant deltas
  // (keeps and recomputes) and toggled often enough to also lag many
  // (compaction fallback); the rest of the users mostly fall back. The hot
  // users are the 16 lowest-weight nodes: their small supports leave large
  // zero blocks, so most of their picks go through the support index.
  constexpr NodeId kHot = 16;
  constexpr NodeId kFirstHot = 200 - kHot;
  Rng ops_rng(57);
  auto pick_user = [&](double hot_share, NodeId n) {
    return static_cast<NodeId>(ops_rng.NextBernoulli(hot_share)
                                   ? kFirstHot + ops_rng.NextBounded(kHot)
                                   : ops_rng.NextBounded(n));
  };
  auto toggle = [&](NodeId u, NodeId v) {
    if (u == v) return;
    const bool remove = delta.graph.HasEdge(u, v);
    for (ServiceReplica* r : replicas) {
      ASSERT_TRUE(remove ? r->service.RemoveEdge(u, v).ok()
                         : r->service.AddEdge(u, v).ok());
    }
  };
  auto serve = [&](NodeId user, int op) {
    if (ops_rng.NextBernoulli(0.2)) {
      auto expected = baseline.service.ServeList(user, 3);
      auto list = delta.service.ServeList(user, 3);
      ASSERT_EQ(list.ok(), expected.ok()) << "op " << op;
      if (!list.ok()) return;
      ASSERT_EQ(list->picks.size(), expected->picks.size());
      for (size_t p = 0; p < list->picks.size(); ++p) {
        ASSERT_EQ(list->picks[p].node, expected->picks[p].node)
            << "op " << op << " pick " << p;
      }
      return;
    }
    auto expected = baseline.service.ServeRecommendation(user);
    auto rec = delta.service.ServeRecommendation(user);
    ASSERT_EQ(rec.ok(), expected.ok()) << "op " << op;
    if (rec.ok()) {
      ASSERT_EQ(*rec, *expected) << "op " << op;
    }
  };
  auto run_ops = [&](int first, int last) {
    for (int op = first; op < last; ++op) {
      const NodeId n = delta.graph.num_nodes();
      if (ops_rng.NextBernoulli(0.15)) {
        // A burst of 1-4 toggles, half of them on a hot user's edges.
        const uint64_t burst = 1 + ops_rng.NextBounded(4);
        for (uint64_t b = 0; b < burst; ++b) {
          const NodeId u = pick_user(0.5, n);
          toggle(u, static_cast<NodeId>(ops_rng.NextBounded(n)));
          if (::testing::Test::HasFatalFailure()) return;
        }
        continue;
      }
      serve(pick_user(0.7, n), op);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  run_ops(0, 1500);
  ASSERT_FALSE(HasFatalFailure());
  const ServiceStats mid = delta.service.stats();
  EXPECT_GT(mid.delta_kept, 0u);
  EXPECT_GT(mid.delta_recomputed, 0u);
  EXPECT_EQ(mid.delta_patched, 0u);
  EXPECT_GT(mid.journal_fallbacks, 0u) << "the journal never compacted";

  // AddNode clears the journal: the next visit of a cached hot user falls
  // back.
  for (ServiceReplica* r : replicas) r->graph.AddNode();
  serve(kFirstHot, 1500);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(delta.service.stats().journal_fallbacks,
            mid.journal_fallbacks + 1);
  run_ops(1501, 2000);
  ASSERT_FALSE(HasFatalFailure());

  const uint64_t served = baseline.service.stats().served;
  EXPECT_GT(served, 1000u);
  EXPECT_EQ(delta.service.stats().served, served);
  EXPECT_EQ(delta.service.stats().delta_patched, 0u);
}

TEST(IncrementalServiceTest, CompactedJournalFallsBackAndKeepsServing) {
  Rng graph_rng(61);
  auto base = ErdosRenyiGnm(60, 180, /*directed=*/false, graph_rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  // A 2-entry journal: any burst of 3+ toggles between two serves of the
  // same user outruns it.
  graph.SetJournalCapacity(2);
  RecommendationService service(&graph,
                                std::make_unique<CommonNeighborsUtility>(),
                                IncrementalServiceOptions());
  Rng rng(63);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  Rng mut_rng(65);
  int toggles = 0;
  while (toggles < 6) {
    const NodeId u = static_cast<NodeId>(mut_rng.NextBounded(60));
    const NodeId v = static_cast<NodeId>(mut_rng.NextBounded(60));
    if (u == v) continue;
    if (graph.HasEdge(u, v)) {
      ASSERT_TRUE(service.RemoveEdge(u, v).ok());
    } else {
      ASSERT_TRUE(service.AddEdge(u, v).ok());
    }
    ++toggles;
  }
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.journal_fallbacks, 1u);
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(stats.delta_kept + stats.delta_recomputed, 0u);
  // The repaired entry is current again: an immediate re-serve is a plain
  // hit.
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(IncrementalServiceTest, AddNodeInvalidatesThroughTheFallback) {
  // A node addition changes every target's candidate count; no delta can
  // express it, so the journal clears and the next visit recomputes.
  DynamicGraph graph(8, /*directed=*/false);
  for (NodeId v = 1; v < 8; ++v) ASSERT_TRUE(graph.AddEdge(0, v).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  RecommendationService service(&graph,
                                std::make_unique<CommonNeighborsUtility>(),
                                IncrementalServiceOptions());
  Rng rng(71);
  ASSERT_TRUE(service.ServeRecommendation(1, rng).ok());
  graph.AddNode();
  ASSERT_TRUE(service.ServeRecommendation(1, rng).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.journal_fallbacks, 1u);
  EXPECT_EQ(stats.delta_kept + stats.delta_recomputed, 0u);
}

TEST(IncrementalServiceTest, MultiDeltaWindowRecomputesOnlyAffectedEntries) {
  // Two toggles land between serves: the affected user is recomputed
  // once for the whole window, the unaffected user is still kept.
  DynamicGraph graph(10, /*directed=*/false);
  // 0-1-2 triangle-ish cluster; 5-6-7 cluster far away.
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  ASSERT_TRUE(graph.AddEdge(0, 3).ok());
  ASSERT_TRUE(graph.AddEdge(3, 2).ok());
  ASSERT_TRUE(graph.AddEdge(5, 6).ok());
  ASSERT_TRUE(graph.AddEdge(6, 7).ok());
  ASSERT_TRUE(graph.AddEdge(5, 8).ok());
  ASSERT_TRUE(graph.AddEdge(8, 7).ok());
  ServiceOptions options = IncrementalServiceOptions();
  options.num_shards = 1;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(73);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(5, rng).ok());
  // Batch of two toggles inside the 0-cluster.
  ASSERT_TRUE(service.AddEdge(1, 3).ok());
  ASSERT_TRUE(service.AddEdge(0, 4).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(5, rng).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_recomputed, 1u);
  EXPECT_EQ(stats.delta_kept, 1u);
  EXPECT_EQ(stats.delta_patched, 0u);
}

TEST(IncrementalServiceTest, UnaffectedEntryKeepsItsFrozenSampler) {
  // The headline O(1) path: a toggle elsewhere must not cost a cached
  // user their frozen alias sampler.
  DynamicGraph graph(10, /*directed=*/false);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(0, 2).ok());
  ASSERT_TRUE(graph.AddEdge(1, 3).ok());
  ASSERT_TRUE(graph.AddEdge(2, 3).ok());
  ASSERT_TRUE(graph.AddEdge(2, 4).ok());
  ASSERT_TRUE(graph.AddEdge(6, 7).ok());
  ServiceOptions options = IncrementalServiceOptions();
  options.num_shards = 1;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(81);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());  // freeze
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());  // reuse
  EXPECT_EQ(service.stats().sampler_reuses, 1u);
  // Toggle far from user 0's 2-hop influence set ({0} ∪ N(0)).
  ASSERT_TRUE(service.AddEdge(6, 8).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_kept, 1u);
  EXPECT_EQ(stats.sampler_reuses, 2u)
      << "kept entry lost its frozen sampler on an unrelated toggle";
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(IncrementalServiceTest, WideSkewedWindowRecomputesOnlyTheAffectedUser) {
  // One toggle inside user 0's neighborhood, buried under 40 writes in a
  // far-away hot spot: user 0 is recomputed once for the whole 41-delta
  // window, and users the window cannot reach keep their entries.
  DynamicGraph graph(70, /*directed=*/false);
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  ASSERT_TRUE(graph.AddEdge(0, 2).ok());
  ASSERT_TRUE(graph.AddEdge(1, 3).ok());
  ASSERT_TRUE(graph.AddEdge(2, 3).ok());
  ASSERT_TRUE(graph.AddEdge(62, 63).ok());
  ASSERT_TRUE(graph.AddEdge(63, 64).ok());
  graph.SetJournalCapacity(256);
  ServiceOptions options = IncrementalServiceOptions();
  options.num_shards = 1;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(91);
  for (NodeId user : {0u, 62u, 64u}) {
    ASSERT_TRUE(service.ServeRecommendation(user, rng).ok());
  }
  ASSERT_TRUE(service.AddEdge(1, 4).ok());
  for (NodeId i = 0; i < 40; ++i) {
    ASSERT_TRUE(service.AddEdge(20, 21 + i).ok());
  }
  for (NodeId user : {0u, 62u, 64u}) {
    ASSERT_TRUE(service.ServeRecommendation(user, rng).ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_recomputed, 1u);
  EXPECT_EQ(stats.delta_kept, 2u);
  EXPECT_EQ(stats.delta_patched, 0u);
  EXPECT_EQ(stats.journal_fallbacks, 0u);
}

TEST(IncrementalServiceTest, DirectedJaccardKeepsEntriesUntouchedByFarWrites) {
  // Regression for the directed-Jaccard affectedness trap: the old
  // hidden-support clause flagged EVERY cached entry whenever any tail
  // crossed out of degree zero anywhere in the graph, recomputing all of
  // them. The narrowed clause only fires when the target can actually
  // 2-hop-reach the crossing tail, so far-away writes keep the entry.
  auto graph = std::make_unique<DynamicGraph>(12, /*directed=*/true);
  ASSERT_TRUE(graph->AddEdge(0, 1).ok());
  ASSERT_TRUE(graph->AddEdge(0, 2).ok());
  ASSERT_TRUE(graph->AddEdge(3, 1).ok());  // candidate 3: I=1, uni=2
  ASSERT_TRUE(graph->AddEdge(8, 9).ok());
  ServiceOptions options = IncrementalServiceOptions();
  options.num_shards = 1;
  RecommendationService service(graph.get(),
                                std::make_unique<JaccardUtility>(), options);
  Rng rng(93);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  // Tail 6 crosses OUT of degree zero — the old clause recomputed user
  // 0's entry for this; 0 cannot 2-hop-reach 6, so it must be kept.
  ASSERT_TRUE(service.AddEdge(6, 7).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  // Tail 8 falls back TO degree zero far away: also kept.
  ASSERT_TRUE(service.RemoveEdge(8, 9).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_kept, 2u)
      << "directed Jaccard recomputed entries far writes cannot touch";
  EXPECT_EQ(stats.delta_recomputed, 0u);
  EXPECT_EQ(stats.delta_patched, 0u);
}

TEST(IncrementalServiceTest, JaccardServesIdenticallyToBaseline) {
  // Jaccard's keep test is exact, so the same byte-identical differential
  // as common neighbors must hold — this drives
  // JaccardUtility::EdgeDeltaWindowAffects through the real repair path,
  // where a missed union-term dependence would surface as a diverging
  // serve.
  Rng graph_rng(151);
  auto weights = PowerLawWeights(150, 2.2);
  auto base = ChungLu(weights, weights, 700, /*directed=*/false, graph_rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph_delta(*base);
  DynamicGraph graph_baseline(*base);
  graph_baseline.SetJournalCapacity(0);
  RecommendationService delta_service(&graph_delta,
                                      std::make_unique<JaccardUtility>(),
                                      IncrementalServiceOptions());
  RecommendationService baseline_service(&graph_baseline,
                                         std::make_unique<JaccardUtility>(),
                                         IncrementalServiceOptions());
  Rng ops_rng(153);
  for (int op = 0; op < 800; ++op) {
    if (ops_rng.NextBernoulli(0.15)) {
      const NodeId u = static_cast<NodeId>(ops_rng.NextBounded(150));
      const NodeId v = static_cast<NodeId>(ops_rng.NextBounded(150));
      if (u == v) continue;
      if (graph_delta.HasEdge(u, v)) {
        ASSERT_TRUE(delta_service.RemoveEdge(u, v).ok());
        ASSERT_TRUE(baseline_service.RemoveEdge(u, v).ok());
      } else {
        ASSERT_TRUE(delta_service.AddEdge(u, v).ok());
        ASSERT_TRUE(baseline_service.AddEdge(u, v).ok());
      }
    } else {
      const NodeId user = static_cast<NodeId>(ops_rng.NextBounded(150));
      auto rec_a = delta_service.ServeRecommendation(user);
      auto rec_b = baseline_service.ServeRecommendation(user);
      ASSERT_EQ(rec_a.ok(), rec_b.ok()) << "op " << op;
      if (rec_a.ok()) ASSERT_EQ(*rec_a, *rec_b) << "op " << op;
    }
  }
  const ServiceStats stats = delta_service.stats();
  EXPECT_GT(stats.delta_kept, 0u);
  EXPECT_GT(stats.delta_recomputed, 0u);
  EXPECT_EQ(stats.delta_patched, 0u);
  EXPECT_EQ(stats.cache_invalidations, 0u);
}

TEST(IncrementalServiceTest, JournalAwareEvictionPurgesDoomedEntries) {
  // Entries the journal floor passed can never be delta-repaired; at
  // capacity they are purged wholesale (doomed_evictions) BEFORE any LRU
  // choice, so later visits to those users are plain misses — under the
  // old LRU-only policy the lingering doomed entries would be visited in
  // place and land in journal_fallbacks one by one.
  Rng graph_rng(161);
  auto base = ErdosRenyiGnm(60, 180, /*directed=*/false, graph_rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  graph.SetJournalCapacity(2);
  ServiceOptions options = IncrementalServiceOptions();
  options.num_shards = 1;
  options.cache_capacity = 3;
  RecommendationService service(&graph,
                                std::make_unique<CommonNeighborsUtility>(),
                                options);
  Rng rng(163);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(1, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(2, rng).ok());
  // Outrun the 2-entry journal: every cached entry is now doomed.
  Rng mut_rng(165);
  int toggles = 0;
  while (toggles < 4) {
    const NodeId u = static_cast<NodeId>(mut_rng.NextBounded(60));
    const NodeId v = static_cast<NodeId>(mut_rng.NextBounded(60));
    if (u == v) continue;
    if (graph.HasEdge(u, v)) {
      ASSERT_TRUE(service.RemoveEdge(u, v).ok());
    } else {
      ASSERT_TRUE(service.AddEdge(u, v).ok());
    }
    ++toggles;
  }
  // The next insert hits capacity and purges all three doomed entries.
  ASSERT_TRUE(service.ServeRecommendation(3, rng).ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.doomed_evictions, 3u);
  EXPECT_EQ(stats.journal_fallbacks, 0u);
  // Revisiting a purged user is a plain miss, not a fallback recompute.
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  stats = service.stats();
  EXPECT_EQ(stats.journal_fallbacks, 0u);
  EXPECT_EQ(stats.cache_invalidations, 0u);
  EXPECT_EQ(stats.cache_misses, 5u);  // 4 first visits + user 0's re-miss
}

TEST(IncrementalServiceTest, EvictionMatchesReferenceModelAndNeverEvictingTwin) {
  // Pins WHICH entries eviction removes. A one-shard cache of 8 serves 40
  // skewed users while bursts of toggles outrun a 4-entry journal, so
  // evictions take all three shapes: purges of every entry, purges of some
  // (the survivors' slots move), and LRU evictions. After every op an
  // in-test model of the rule predicts the insert count and
  // doomed_evictions. A twin service on a mirrored graph never evicts and
  // draws from an identical Rng; common neighbours has a constant Δf, so
  // the twin must return identical picks, and a lookup that lands on
  // another user's slot would release that user's vector instead.
  constexpr NodeId kNodes = 150;
  constexpr size_t kUsers = 40;
  constexpr size_t kCapacity = 8;
  Rng graph_rng(171);
  auto weights = PowerLawWeights(kNodes, 2.2);
  auto base = ChungLu(weights, weights, 600, /*directed=*/false, graph_rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  DynamicGraph twin_graph(*base);
  graph.SetJournalCapacity(4);
  ServiceOptions options = IncrementalServiceOptions();
  options.num_shards = 1;
  options.cache_capacity = kCapacity;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  options.cache_capacity = kUsers;
  RecommendationService twin(
      &twin_graph, std::make_unique<CommonNeighborsUtility>(), options);

  // The model: user -> {graph version at its last serve, last use}.
  struct ModelEntry {
    uint64_t version;
    uint64_t last_used;
  };
  std::unordered_map<NodeId, ModelEntry> model;
  uint64_t clock = 0, inserts = 0, doomed = 0;
  int full_purges = 0, partial_purges = 0, lru_evictions = 0;
  const auto model_serve = [&](NodeId user) {
    ++clock;
    if (!model.contains(user)) {
      if (model.size() == kCapacity) {
        // Purge every entry below the journal floor; otherwise evict the
        // oldest last use.
        const uint64_t floor = graph.journal_floor_version();
        const size_t purged = std::erase_if(
            model, [&](const auto& e) { return e.second.version < floor; });
        doomed += purged;
        if (purged == kCapacity) {
          ++full_purges;
        } else if (purged > 0) {
          ++partial_purges;
        } else {
          model.erase(std::min_element(model.begin(), model.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.second.last_used <
                                                b.second.last_used;
                                       }));
          ++lru_evictions;
        }
      }
      ++inserts;
    }
    model[user] = {graph.version(), clock};
  };

  Rng ops_rng(173);
  Rng serve_rng(175);
  Rng twin_rng(175);
  std::unordered_set<NodeId> served_users;
  int toggles = 0;
  uint64_t burst = 0;  // toggles still due in the current burst
  for (int op = 0; op < 3000; ++op) {
    // Bursts of 1-8 toggles, about 20% of all ops: five or more in a row
    // doom every entry served before them.
    if (burst == 0 && ops_rng.NextBernoulli(0.05)) {
      burst = 1 + ops_rng.NextBounded(8);
    }
    if (burst > 0) {
      --burst;
      const NodeId u = static_cast<NodeId>(ops_rng.NextBounded(kNodes));
      const NodeId v = static_cast<NodeId>(ops_rng.NextBounded(kNodes));
      if (u == v) continue;
      if (graph.HasEdge(u, v)) {
        ASSERT_TRUE(service.RemoveEdge(u, v).ok());
        ASSERT_TRUE(twin.RemoveEdge(u, v).ok());
      } else {
        ASSERT_TRUE(service.AddEdge(u, v).ok());
        ASSERT_TRUE(twin.AddEdge(u, v).ok());
      }
      ++toggles;
      continue;
    }
    // Skewed users: the 8 lowest ranks draw about 45% of the serves.
    const double x = ops_rng.NextDouble();
    const NodeId user =
        static_cast<NodeId>(3 * static_cast<size_t>(kUsers * x * x) + 1);
    served_users.insert(user);
    auto pick = service.ServeRecommendation(user, serve_rng);
    auto twin_pick = twin.ServeRecommendation(user, twin_rng);
    model_serve(user);
    ASSERT_EQ(pick.ok(), twin_pick.ok()) << "op " << op;
    if (pick.ok()) {
      ASSERT_EQ(*pick, *twin_pick) << "op " << op;
    }
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.cache_misses - stats.delta_recomputed -
                  stats.cache_invalidations,
              inserts)
        << "op " << op;
    ASSERT_EQ(stats.doomed_evictions, doomed) << "op " << op;
  }

  EXPECT_GT(toggles, 400);
  EXPECT_GT(full_purges, 0);
  EXPECT_GT(partial_purges, 0);
  EXPECT_GT(lru_evictions, 0);
  // The twin inserted each user once and never evicted.
  const ServiceStats twin_stats = twin.stats();
  EXPECT_EQ(twin_stats.cache_misses - twin_stats.delta_recomputed -
                twin_stats.cache_invalidations,
            served_users.size());
  EXPECT_EQ(twin_stats.doomed_evictions, 0u);
}

// ------------------------------------------------------------- TSAN stress

TEST(IncrementalConcurrencyTest, ConcurrentMutateAndDeltaRepairServes) {
  // Mutators hammer the graph (through the service AND directly — the
  // journal sees both) while servers drive the delta-repair path. Run
  // under ThreadSanitizer by ci/sanitize.sh; the functional assertions
  // mirror the PR 2 stress suite: exact budgets, exact stat sums, no
  // unexpected failure modes.
  constexpr NodeId kNodes = 200;
  Rng graph_rng(91);
  auto weights = PowerLawWeights(kNodes, 2.2);
  auto base = ChungLu(weights, weights, 1000, /*directed=*/false, graph_rng);
  ASSERT_TRUE(base.ok());
  DynamicGraph graph(*base);
  ServiceOptions options;
  options.release_epsilon = 0.25;
  options.per_user_budget = 3.0;  // 12 releases per user
  options.cache_capacity = 512;
  options.num_shards = 8;
  options.seed = 93;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);

  constexpr unsigned kThreads = 8;
  constexpr uint64_t kOpsPerThread = 1200;
  std::vector<std::atomic<uint64_t>> successes(kNodes);
  for (auto& s : successes) s.store(0);
  std::atomic<uint64_t> mutations{0};
  std::atomic<uint64_t> other_failures{0};

  RunWorkers(kThreads, [&](unsigned w) {
    Rng rng(9100 + w);
    for (uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.NextBernoulli(0.2)) {
        const NodeId u = static_cast<NodeId>(rng.NextBounded(kNodes));
        const NodeId v = static_cast<NodeId>(rng.NextBounded(kNodes));
        if (u == v) continue;
        // Half through the service wrapper, half straight at the graph:
        // the journal must make both equivalent.
        Status status;
        if (graph.HasEdge(u, v)) {
          status = (op % 2 == 0) ? service.RemoveEdge(u, v)
                                 : graph.RemoveEdge(u, v);
        } else {
          status =
              (op % 2 == 0) ? service.AddEdge(u, v) : graph.AddEdge(u, v);
        }
        if (status.ok()) mutations.fetch_add(1);
        continue;
      }
      const NodeId user = static_cast<NodeId>(rng.NextBounded(kNodes));
      auto rec = service.ServeRecommendation(user);
      if (rec.ok()) {
        successes[user].fetch_add(1);
      } else if (!IsBudgetExhausted(rec.status())) {
        other_failures.fetch_add(1);
      }
    }
  });

  EXPECT_EQ(other_failures.load(), 0u);
  EXPECT_GT(mutations.load(), 0u);
  uint64_t total_success = 0;
  const uint64_t max_releases = static_cast<uint64_t>(
      options.per_user_budget / options.release_epsilon + 1e-9);
  for (NodeId user = 0; user < kNodes; ++user) {
    const uint64_t s = successes[user].load();
    total_success += s;
    EXPECT_LE(s, max_releases) << "user " << user;
    EXPECT_NEAR(service.RemainingBudget(user),
                options.per_user_budget -
                    static_cast<double>(s) * options.release_epsilon,
                1e-9)
        << "user " << user;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served, total_success);
  // Every successful release did exactly one cache lookup, repair paths
  // included.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total_success);
  // The mutation rate guarantees the repair machinery actually ran.
  EXPECT_GT(stats.delta_kept + stats.delta_recomputed + stats.journal_fallbacks,
            0u);
}

TEST(IncrementalConcurrencyTest, ConcurrentMutateAndSnapshotPatch) {
  // Mutators hammer the graph — each one splicing and publishing its own
  // snapshot under the writer mutex, with occasional AddNode — while the
  // same threads read snapshots, so this must stay TSAN-clean and every
  // observed snapshot must be internally coherent.
  for (bool directed : {false, true}) {
    Rng graph_rng(directed ? 171u : 172u);
    auto base = ErdosRenyiGnm(120, 400, directed, graph_rng);
    ASSERT_TRUE(base.ok());
    DynamicGraph graph(*base);
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kOpsPerThread = 1500;
    std::atomic<uint64_t> snapshots_checked{0};

    RunWorkers(kThreads, [&](unsigned w) {
      Rng rng(1700 + 10 * w + (directed ? 1 : 0));
      uint64_t last_version = 0;
      for (uint64_t op = 0; op < kOpsPerThread; ++op) {
        // Every thread both mutates and snapshots, so snapshot reads race
        // the publications of every other thread.
        if (rng.NextBernoulli(0.3)) {  // mutate (with rare node growth)
          if (rng.NextBernoulli(0.005)) {
            graph.AddNode();
            continue;
          }
          const NodeId u = static_cast<NodeId>(rng.NextBounded(120));
          const NodeId v = static_cast<NodeId>(rng.NextBounded(120));
          if (u == v) continue;
          if (graph.HasEdge(u, v)) {
            (void)graph.RemoveEdge(u, v);  // a racing mutator may win
          } else {
            (void)graph.AddEdge(u, v);
          }
          continue;
        }
        const DynamicGraph::StampedSnapshot snap = graph.VersionedSnapshot();
        // Stamp coherence: the version/edge-count pair and the CSR come
        // from one immutable allocation, patched or rebuilt alike.
        ASSERT_EQ(snap.num_edges, snap.graph->num_edges());
        ASSERT_GE(snap.version, last_version) << "snapshot went backwards";
        last_version = snap.version;
        snapshots_checked.fetch_add(1);
      }
    });

    EXPECT_GT(snapshots_checked.load(), 0u);
    EXPECT_GT(graph.snapshot_patches(), 0u)
        << "stress never exercised the patched publication path";
    // A final quiescent check: the published CSR must equal a
    // from-scratch build of its own arcs — so its lists are sorted,
    // duplicate-free and, undirected, symmetric.
    const DynamicGraph::StampedSnapshot final_snap = graph.VersionedSnapshot();
    GraphBuilder rebuild(directed);
    rebuild.SetNumNodes(final_snap.graph->num_nodes());
    for (NodeId u = 0; u < final_snap.graph->num_nodes(); ++u) {
      for (NodeId v : final_snap.graph->OutNeighbors(u)) rebuild.AddEdge(u, v);
    }
    EXPECT_TRUE(rebuild.Build().Equals(*final_snap.graph));
  }
}

}  // namespace
}  // namespace privrec
