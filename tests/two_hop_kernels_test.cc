// Differential tests for the shared 2-hop kernel layer
// (utility/two_hop_kernels.h): the full-vector kernel against the retained
// naive scatter reference — bitwise, over randomized directed/undirected graphs including
// zero-degree nodes and mutual-edge shapes. The production utilities
// (common neighbors, Adamic-Adar, resource allocation, Jaccard) are held
// to the same bitwise-identity contract through their public Compute.

#include <cmath>
#include <cstring>
#include <vector>

#include "gen/fixtures.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "utility/adamic_adar.h"
#include "utility/common_neighbors.h"
#include "utility/link_predictors.h"
#include "utility/two_hop_kernels.h"

namespace privrec {
namespace {

double UnitWeight(uint32_t) { return 1.0; }

double InverseDegreeWeight(uint32_t degree) {
  return degree == 0 ? 0.0 : 1.0 / static_cast<double>(degree);
}

// Exact comparison, including the float payloads: the kernel contract is
// bit-identity with the naive reference, not equal-within-epsilon.
void ExpectBitwiseEqual(const UtilityVector& kernel,
                        const UtilityVector& naive) {
  ASSERT_EQ(kernel.target(), naive.target());
  ASSERT_EQ(kernel.num_candidates(), naive.num_candidates());
  ASSERT_EQ(kernel.nonzero().size(), naive.nonzero().size());
  for (size_t i = 0; i < kernel.nonzero().size(); ++i) {
    ASSERT_EQ(kernel.nonzero()[i].node, naive.nonzero()[i].node)
        << "support mismatch at rank " << i;
    const double a = kernel.nonzero()[i].utility;
    const double b = naive.nonzero()[i].utility;
    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << "bit mismatch at rank " << i << ": " << a << " vs " << b;
  }
}

// --------------------------------------------- full-vector kernel, random

struct WeightCase {
  const char* name;
  DegreeWeightFn weight;
  bool constant;
};

const WeightCase kWeightCases[] = {
    {"common_neighbors", &UnitWeight, true},
    {"adamic_adar", &InverseLogDegreeWeight, false},
    {"resource_allocation", &InverseDegreeWeight, false},
};

void RunDifferential(const CsrGraph& graph, int targets, Rng& rng) {
  UtilityWorkspace kernel_ws;
  UtilityWorkspace naive_ws;
  for (int i = 0; i < targets; ++i) {
    const NodeId target =
        static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
    for (const WeightCase& wc : kWeightCases) {
      SCOPED_TRACE(wc.name);
      ExpectBitwiseEqual(
          ComputeTwoHopUtility(graph, target, kernel_ws, wc.weight,
                               wc.constant),
          NaiveTwoHopReference(graph, target, naive_ws, wc.weight,
                               wc.constant));
    }
  }
}

TEST(TwoHopKernelTest, BitwiseMatchesNaiveOnUndirectedRandomGraphs) {
  Rng rng(101);
  for (uint64_t edges : {200u, 1200u, 4000u}) {
    auto g = ErdosRenyiGnm(300, edges, false, rng);
    ASSERT_TRUE(g.ok());
    RunDifferential(*g, 40, rng);
  }
}

TEST(TwoHopKernelTest, BitwiseMatchesNaiveOnDirectedRandomGraphs) {
  Rng rng(102);
  for (uint64_t edges : {200u, 1200u, 4000u}) {
    auto g = ErdosRenyiGnm(300, edges, true, rng);
    ASSERT_TRUE(g.ok());
    RunDifferential(*g, 40, rng);
  }
}

TEST(TwoHopKernelTest, BitwiseMatchesNaiveOnSkewedChungLu) {
  // Heavy-tailed degrees force the galloping and blocked regimes the ER
  // graphs rarely reach, and produce zero-degree nodes organically.
  Rng rng(103);
  const auto weights = PowerLawWeights(600, 1.8);
  auto g = ChungLu(weights, weights, 3000, false, rng);
  ASSERT_TRUE(g.ok());
  RunDifferential(*g, 60, rng);
  auto gd = ChungLu(weights, weights, 3000, true, rng);
  ASSERT_TRUE(gd.ok());
  RunDifferential(*gd, 60, rng);
}

TEST(TwoHopKernelTest, ZeroDegreeTargetsAndNeighbors) {
  // Node 4 is isolated; node 3's only out-arc leads to a sink (node 5).
  GraphBuilder builder(true);
  builder.SetNumNodes(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(3, 5);
  CsrGraph g = builder.Build();
  UtilityWorkspace ws;
  Rng rng(1);
  RunDifferential(g, 6, rng);
  for (const WeightCase& wc : kWeightCases) {
    UtilityVector isolated =
        ComputeTwoHopUtility(g, 4, ws, wc.weight, wc.constant);
    EXPECT_TRUE(isolated.empty());
    EXPECT_EQ(isolated.num_candidates(), 5u);
    // Sink-pointing target: frontier is empty because node 5 has no
    // out-arcs; RA additionally must not divide by the zero degree.
    UtilityVector sink = ComputeTwoHopUtility(g, 3, ws, wc.weight,
                                              wc.constant);
    EXPECT_TRUE(sink.empty());
  }
}

TEST(TwoHopKernelTest, MutualEdgesPutTargetInItsOwnFrontier) {
  // 0<->1 mutual arcs: the expansion from 0 through 1 lands back on 0,
  // which must be skipped at emit without disturbing other slots.
  GraphBuilder builder(true);
  builder.SetNumNodes(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  CsrGraph g = builder.Build();
  Rng rng(2);
  RunDifferential(g, 4, rng);
  UtilityWorkspace ws;
  UtilityVector u = ComputeTwoHopUtility(g, 0, ws, &UnitWeight, true);
  for (const UtilityEntry& e : u.nonzero()) {
    EXPECT_NE(e.node, 0u);  // target never recommends itself
    EXPECT_NE(e.node, 1u);  // existing neighbor excluded
  }
}

TEST(TwoHopKernelTest, ScratchRestsAllZeroBetweenCalls) {
  Rng rng(5);
  auto g = ErdosRenyiGnm(200, 1500, false, rng);
  ASSERT_TRUE(g.ok());
  UtilityWorkspace ws;
  for (int i = 0; i < 10; ++i) {
    const NodeId target = static_cast<NodeId>(rng.NextBounded(200));
    (void)ComputeTwoHopUtility(*g, target, ws, &InverseLogDegreeWeight,
                               false);
    (void)ComputeTwoHopUtility(*g, target, ws, &UnitWeight, true);
    const TwoHopScratch& scratch = ws.two_hop();
    for (double v : scratch.acc) ASSERT_EQ(v, 0.0);
    for (uint32_t c : scratch.counts) ASSERT_EQ(c, 0u);
    for (uint64_t w : scratch.bits) ASSERT_EQ(w, 0u);
  }
}

// ------------------------------------------------------- 2-hop reachability

TEST(TwoHopKernelTest, ProductionUtilitiesMatchTheirNaiveReferences) {
  Rng rng(77);
  const auto weights = PowerLawWeights(500, 2.2);
  for (bool directed : {false, true}) {
    auto g = ChungLu(weights, weights, 2500, directed, rng);
    ASSERT_TRUE(g.ok());
    CommonNeighborsUtility cn;
    AdamicAdarUtility aa;
    ResourceAllocationUtility ra;
    JaccardUtility jaccard;
    UtilityWorkspace ws;
    UtilityWorkspace naive_ws;
    for (int i = 0; i < 50; ++i) {
      const NodeId target = static_cast<NodeId>(rng.NextBounded(500));
      ExpectBitwiseEqual(
          cn.Compute(*g, target, ws),
          NaiveTwoHopReference(*g, target, naive_ws, &UnitWeight, true));
      ExpectBitwiseEqual(aa.Compute(*g, target, ws),
                         NaiveTwoHopReference(*g, target, naive_ws,
                                              &InverseLogDegreeWeight, false));
      ExpectBitwiseEqual(ra.Compute(*g, target, ws),
                         NaiveTwoHopReference(*g, target, naive_ws,
                                              &InverseDegreeWeight, false));
      ExpectBitwiseEqual(jaccard.Compute(*g, target, ws),
                         NaiveJaccardReference(*g, target, naive_ws));
    }
  }
}

TEST(TwoHopKernelTest, TwoTriangleFixtureHandValues) {
  CsrGraph g = MakeTwoTriangleFixture();
  UtilityWorkspace ws;
  UtilityVector cn = ComputeTwoHopUtility(g, 0, ws, &UnitWeight, true);
  // Node 3 shares {1,2} with node 0; node 4 shares {1}.
  ASSERT_EQ(cn.nonzero().size(), 2u);
  EXPECT_EQ(cn.nonzero()[0].node, 3u);
  EXPECT_DOUBLE_EQ(cn.nonzero()[0].utility, 2.0);
  EXPECT_EQ(cn.nonzero()[1].node, 4u);
  EXPECT_DOUBLE_EQ(cn.nonzero()[1].utility, 1.0);
}

}  // namespace
}  // namespace privrec
