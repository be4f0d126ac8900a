#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/baseline_mechanisms.h"
#include "core/closed_forms.h"
#include "core/exponential_mechanism.h"
#include "core/laplace_mechanism.h"
#include "core/linear_smoothing.h"
#include "core/mechanism.h"
#include "eval/accuracy.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "random/distributions.h"
#include "random/rng.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

double TotalMass(const RecommendationDistribution& dist) {
  return std::accumulate(dist.nonzero_probs.begin(),
                         dist.nonzero_probs.end(), dist.zero_block_prob);
}

UtilityVector SmallVector() {
  // target 0, 10 candidates: utilities 5, 3, 1 and 7 zero-utility nodes.
  return UtilityVector(0, 10, {{1, 5.0}, {2, 3.0}, {3, 1.0}});
}

// ---------------------------------------------------------------- R_best

TEST(BestMechanismTest, AlwaysPicksArgmax) {
  BestMechanism best;
  Rng rng(1);
  UtilityVector u = SmallVector();
  for (int i = 0; i < 20; ++i) {
    auto rec = best.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->node, 1u);
    EXPECT_DOUBLE_EQ(rec->utility, 5.0);
  }
  auto dist = best.Distribution(u);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(dist->nonzero_probs[0], 1.0);
  EXPECT_DOUBLE_EQ(TotalMass(*dist), 1.0);
  EXPECT_DOUBLE_EQ(dist->ExpectedAccuracy(u), 1.0);
}

TEST(BestMechanismTest, FailsOnEmptyVector) {
  BestMechanism best;
  Rng rng(1);
  UtilityVector u(0, 5, {});
  EXPECT_TRUE(best.Recommend(u, rng).status().IsFailedPrecondition());
}

// --------------------------------------------------------------- Uniform

TEST(UniformMechanismTest, DistributionIsFlat) {
  UniformMechanism uniform;
  UtilityVector u = SmallVector();
  auto dist = uniform.Distribution(u);
  ASSERT_TRUE(dist.ok());
  for (double p : dist->nonzero_probs) EXPECT_DOUBLE_EQ(p, 0.1);
  EXPECT_DOUBLE_EQ(dist->zero_block_prob, 0.7);
  EXPECT_NEAR(TotalMass(*dist), 1.0, 1e-12);
  // Expected accuracy = (5+3+1)/10 / 5 = 0.18.
  EXPECT_NEAR(dist->ExpectedAccuracy(u), 0.18, 1e-12);
}

TEST(UniformMechanismTest, SamplesFromZeroBlock) {
  UniformMechanism uniform;
  Rng rng(3);
  UtilityVector u = SmallVector();
  int zero_picks = 0;
  for (int i = 0; i < 20000; ++i) {
    auto rec = uniform.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    if (rec->from_zero_block) ++zero_picks;
  }
  EXPECT_NEAR(zero_picks / 20000.0, 0.7, 0.02);
}

// ----------------------------------------------------------- Exponential

TEST(ExponentialMechanismTest, DistributionMatchesDefinition) {
  // Definition 5 with Δf = 1: p_i ∝ e^{ε·u_i}.
  ExponentialMechanism mech(/*epsilon=*/1.0, /*sensitivity=*/1.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  const double z =
      std::exp(5.0) + std::exp(3.0) + std::exp(1.0) + 7.0 * std::exp(0.0);
  EXPECT_NEAR(dist->nonzero_probs[0], std::exp(5.0) / z, 1e-12);
  EXPECT_NEAR(dist->nonzero_probs[1], std::exp(3.0) / z, 1e-12);
  EXPECT_NEAR(dist->nonzero_probs[2], std::exp(1.0) / z, 1e-12);
  EXPECT_NEAR(dist->zero_block_prob, 7.0 / z, 1e-12);
  EXPECT_NEAR(TotalMass(*dist), 1.0, 1e-12);
}

TEST(ExponentialMechanismTest, SensitivityRescalesExponent) {
  ExponentialMechanism mech(/*epsilon=*/2.0, /*sensitivity=*/4.0);
  UtilityVector u(0, 2, {{1, 2.0}});  // one nonzero, one zero candidate
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  // p(1)/p(zero) = e^{(ε/Δf)(2-0)} = e^{1}.
  EXPECT_NEAR(dist->nonzero_probs[0] / dist->zero_block_prob, std::exp(1.0),
              1e-9);
}

TEST(ExponentialMechanismTest, MonotoneInUtility) {
  ExponentialMechanism mech(0.5, 2.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  EXPECT_GT(dist->nonzero_probs[0], dist->nonzero_probs[1]);
  EXPECT_GT(dist->nonzero_probs[1], dist->nonzero_probs[2]);
  EXPECT_GT(dist->nonzero_probs[2],
            dist->zero_block_prob / 7.0);  // per-node zero prob
}

TEST(ExponentialMechanismTest, SamplingMatchesDistribution) {
  ExponentialMechanism mech(1.0, 1.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  Rng rng(7);
  constexpr int kDraws = 100000;
  std::vector<int> counts(4, 0);  // candidates 1,2,3 + zero block
  for (int i = 0; i < kDraws; ++i) {
    auto rec = mech.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    if (rec->from_zero_block) {
      counts[3]++;
    } else {
      counts[rec->node - 1]++;
    }
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws),
              dist->nonzero_probs[0], 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws),
              dist->nonzero_probs[1], 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws),
              dist->zero_block_prob, 0.01);
}

TEST(ExponentialMechanismTest, HigherEpsilonMoreAccurate) {
  UtilityVector u = SmallVector();
  double previous = 0;
  for (double eps : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    ExponentialMechanism mech(eps, 2.0);
    auto acc = ExactExpectedAccuracy(mech, u);
    ASSERT_TRUE(acc.ok());
    EXPECT_GT(*acc, previous);
    previous = *acc;
  }
  EXPECT_LE(previous, 1.0);
}

TEST(ExponentialMechanismTest, AllZeroUtilitiesActsUniform) {
  ExponentialMechanism mech(1.0, 1.0);
  UtilityVector u(0, 10, {});
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(dist->zero_block_prob, 1.0, 1e-12);
  Rng rng(9);
  auto rec = mech.Recommend(u, rng);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->from_zero_block);
}

TEST(ExponentialMechanismTest, LargeUtilitiesDoNotOverflow) {
  ExponentialMechanism mech(3.0, 1.0);
  UtilityVector u(0, 5, {{1, 10000.0}, {2, 9999.0}});
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(std::isfinite(dist->nonzero_probs[0]));
  EXPECT_NEAR(TotalMass(*dist), 1.0, 1e-9);
  // Gap of 1 at ε=3: odds e^3.
  EXPECT_NEAR(dist->nonzero_probs[0] / dist->nonzero_probs[1], std::exp(3.0),
              1e-6);
}

// ------------------------------------------------- RecommendationSampler

TEST(RecommendationSamplerTest, ProbabilitiesMatchDistributionExactly) {
  // MakeSampler must freeze exactly the probabilities Distribution()
  // reports: per-candidate and for the aggregated zero block.
  ExponentialMechanism mech(1.0, 1.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  auto sampler = mech.MakeSampler(u);
  ASSERT_TRUE(sampler.ok());
  ASSERT_EQ(sampler->num_nonzero(), 3u);
  EXPECT_EQ(sampler->num_zero(), 7u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sampler->Probability(i), dist->nonzero_probs[i], 1e-12);
    EXPECT_EQ(sampler->entry(i).node, u.nonzero()[i].node);
    EXPECT_EQ(sampler->entry(i).utility, u.nonzero()[i].utility);
  }
  EXPECT_NEAR(sampler->ZeroBlockProbability(), dist->zero_block_prob, 1e-12);
}

TEST(RecommendationSamplerTest, DrawsMatchRecommendStatistically) {
  ExponentialMechanism mech(1.0, 1.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  auto sampler = mech.MakeSampler(u);
  ASSERT_TRUE(sampler.ok());
  Rng rng(37);
  constexpr int kDraws = 100000;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kDraws; ++i) {
    Recommendation rec = sampler->Draw(rng);
    if (rec.from_zero_block) {
      counts[3]++;
    } else {
      counts[rec.node - 1]++;
    }
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws),
              dist->nonzero_probs[0], 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws),
              dist->nonzero_probs[1], 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws),
              dist->zero_block_prob, 0.01);
}

TEST(RecommendationSamplerTest, NoZeroBlockMeansNoZeroSlot) {
  ExponentialMechanism mech(1.0, 1.0);
  UtilityVector u(0, 3, {{1, 2.0}, {2, 1.0}, {3, 0.5}});
  ASSERT_EQ(u.num_zero(), 0u);
  auto sampler = mech.MakeSampler(u);
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler->ZeroBlockProbability(), 0.0);
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(sampler->Draw(rng).from_zero_block);
  }
}

TEST(RecommendationSamplerTest, BaseMechanismReportsUnimplemented) {
  // Laplace deliberately has no frozen sampler (its exact distribution
  // costs a quadrature far exceeding the draws it would amortize); the
  // Monte-Carlo path must keep using per-trial Recommend for it.
  LaplaceMechanism mech(1.0, 1.0);
  UtilityVector u = SmallVector();
  EXPECT_TRUE(mech.MakeSampler(u).status().IsUnimplemented());
}

TEST(RecommendationSamplerTest, SamplerOutlivesUtilityVector) {
  // The sampler is self-contained: drawing after the source vector is gone
  // must be safe (it copies the entries).
  ExponentialMechanism mech(2.0, 1.0);
  auto sampler = [&mech]() {
    UtilityVector u(0, 5, {{4, 3.0}, {2, 1.0}});
    auto s = mech.MakeSampler(u);
    EXPECT_TRUE(s.ok());
    return *std::move(s);
  }();
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    Recommendation rec = sampler.Draw(rng);
    if (!rec.from_zero_block) {
      EXPECT_TRUE(rec.node == 4 || rec.node == 2);
    }
  }
}

// --------------------------------------------------------------- Laplace

TEST(LaplaceMechanismTest, RecommendPrefersHighUtility) {
  LaplaceMechanism mech(/*epsilon=*/2.0, /*sensitivity=*/1.0);
  UtilityVector u = SmallVector();
  Rng rng(11);
  int top_picks = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    auto rec = mech.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    if (!rec->from_zero_block && rec->node == 1) ++top_picks;
  }
  EXPECT_GT(top_picks / static_cast<double>(kDraws), 0.5);
}

TEST(LaplaceMechanismTest, ExactDistributionSumsToOne) {
  LaplaceMechanism mech(1.0, 1.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(TotalMass(*dist), 1.0, 1e-6);
}

TEST(LaplaceMechanismTest, ExactDistributionMatchesLemma3ClosedForm) {
  // Two candidates, no zero block: quadrature must reproduce Lemma 3.
  for (double eps : {0.5, 1.0, 3.0}) {
    LaplaceMechanism mech(eps, 1.0);
    UtilityVector u(0, 2, {{1, 2.0}, {2, 0.5}});
    auto dist = mech.Distribution(u);
    ASSERT_TRUE(dist.ok());
    const double expected =
        LaplaceTwoCandidateWinProbability(2.0, 0.5, eps);
    EXPECT_NEAR(dist->nonzero_probs[0], expected, 1e-6) << "eps=" << eps;
  }
}

TEST(LaplaceMechanismTest, ExactDistributionMatchesMonteCarlo) {
  LaplaceMechanism mech(1.0, 2.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  Rng rng(13);
  constexpr int kDraws = 200000;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kDraws; ++i) {
    auto rec = mech.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    if (rec->from_zero_block) {
      counts[3]++;
    } else {
      counts[rec->node - 1]++;
    }
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws),
              dist->nonzero_probs[0], 0.005);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws),
              dist->zero_block_prob, 0.005);
}

TEST(LaplaceMechanismTest, MonotoneInExpectation) {
  LaplaceMechanism mech(1.0, 1.0);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  EXPECT_GT(dist->nonzero_probs[0], dist->nonzero_probs[1]);
  EXPECT_GT(dist->nonzero_probs[1], dist->nonzero_probs[2]);
}

TEST(LaplaceMechanismTest, ZeroBlockDominatesWhenHuge) {
  // 10^6 zero-utility candidates vs one candidate with u=1 at small ε: the
  // zero block should win nearly always (this is the Fig 1(b) regime).
  LaplaceMechanism mech(0.1, 2.0);
  UtilityVector u(0, 1000001, {{1, 1.0}});
  Rng rng(17);
  int zero_wins = 0;
  for (int i = 0; i < 2000; ++i) {
    auto rec = mech.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    if (rec->from_zero_block) ++zero_wins;
  }
  EXPECT_GT(zero_wins, 1900);
}

// ------------------------------------------------------- LinearSmoothing

TEST(LinearSmoothingTest, DistributionIsConvexCombination) {
  auto inner = std::make_shared<BestMechanism>();
  LinearSmoothingMechanism mech(0.4, inner);
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  // p(argmax) = 0.6/10 + 0.4·1.
  EXPECT_NEAR(dist->nonzero_probs[0], 0.06 + 0.4, 1e-12);
  EXPECT_NEAR(dist->nonzero_probs[1], 0.06, 1e-12);
  EXPECT_NEAR(TotalMass(*dist), 1.0, 1e-12);
}

TEST(LinearSmoothingTest, Theorem5AccuracyIsXTimesInner) {
  auto inner = std::make_shared<BestMechanism>();
  UtilityVector u = SmallVector();
  for (double x : {0.1, 0.5, 0.9}) {
    LinearSmoothingMechanism mech(x, inner);
    auto acc = ExactExpectedAccuracy(mech, u);
    ASSERT_TRUE(acc.ok());
    // Theorem 5: accuracy >= x·μ with μ=1; uniform part adds a bit more.
    EXPECT_GE(*acc, x);
    EXPECT_NEAR(*acc, x * 1.0 + (1 - x) * 0.18, 1e-9);
  }
}

TEST(LinearSmoothingTest, EpsilonFormulaRoundTrips) {
  for (double eps : {0.5, 1.0, 3.0}) {
    for (uint64_t n : {100ull, 7115ull, 96403ull}) {
      double x = LinearSmoothingMechanism::XForEpsilon(eps, n);
      LinearSmoothingMechanism mech(x, std::make_shared<BestMechanism>());
      EXPECT_NEAR(mech.EpsilonFor(n), eps, 1e-9)
          << "eps=" << eps << " n=" << n;
    }
  }
}

TEST(LinearSmoothingTest, PaperAppendixFSetting) {
  // Appendix F targets ln(1 + nx/(1-x)) = 2c·ln n. Solving exactly gives
  // x = (n^{2c}-1)/(n^{2c}-1+n) ≈ n^{2c-1}/(n^{2c-1}+1). (The paper prints
  // the denominator as n^{2c-1}+n, which does not satisfy its own
  // equation — plugging it back yields (2c-1)·ln n; we test the
  // self-consistent form and document the discrepancy in EXPERIMENTS.md.)
  const uint64_t n = 1000;
  const double c = 0.8;
  const double eps = 2 * c * std::log(static_cast<double>(n));
  const double x = LinearSmoothingMechanism::XForEpsilon(eps, n);
  const double approx = std::pow(static_cast<double>(n), 2 * c - 1) /
                        (std::pow(static_cast<double>(n), 2 * c - 1) + 1.0);
  EXPECT_NEAR(x, approx, 1e-3);
  // And the defining equation itself round-trips.
  EXPECT_NEAR(std::log1p(n * x / (1 - x)), eps, 1e-9);
}

TEST(LinearSmoothingTest, XOneDefersEntirelyToInner) {
  LinearSmoothingMechanism mech(1.0, std::make_shared<BestMechanism>());
  Rng rng(19);
  UtilityVector u = SmallVector();
  for (int i = 0; i < 50; ++i) {
    auto rec = mech.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->node, 1u);
  }
  EXPECT_TRUE(std::isinf(mech.EpsilonFor(100)));
}

TEST(LinearSmoothingTest, XZeroIsUniform) {
  LinearSmoothingMechanism mech(0.0, std::make_shared<BestMechanism>());
  UtilityVector u = SmallVector();
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  for (double p : dist->nonzero_probs) EXPECT_NEAR(p, 0.1, 1e-12);
  EXPECT_NEAR(mech.EpsilonFor(12345), 0.0, 1e-12);
}

// ------------------------------------------------------------ ClosedForms

TEST(ClosedFormsTest, LaplaceWinProbabilityBoundaries) {
  // Equal utilities: a coin flip.
  EXPECT_NEAR(LaplaceTwoCandidateWinProbability(2.0, 2.0, 1.0), 0.5, 1e-12);
  // Large gap: near certainty.
  EXPECT_GT(LaplaceTwoCandidateWinProbability(100.0, 0.0, 1.0), 0.999999);
  // Monotone in the gap.
  double prev = 0.5;
  for (double gap : {0.5, 1.0, 2.0, 4.0}) {
    double p = LaplaceTwoCandidateWinProbability(gap, 0.0, 1.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(ClosedFormsTest, LaplaceClosedFormMatchesSimulation) {
  const double u1 = 3.0, u2 = 1.0, eps = 0.8;
  LaplaceDistribution lap(1.0 / eps);
  Rng rng(23);
  constexpr int kDraws = 400000;
  int wins = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (u1 + lap.Sample(rng) > u2 + lap.Sample(rng)) ++wins;
  }
  EXPECT_NEAR(wins / static_cast<double>(kDraws),
              LaplaceTwoCandidateWinProbability(u1, u2, eps), 0.003);
}

TEST(ClosedFormsTest, MechanismsAreNotIsomorphic) {
  // Appendix E's point: for the same ε the two win probabilities differ.
  const double u1 = 2.0, u2 = 1.0, eps = 1.0;
  const double lap = LaplaceTwoCandidateWinProbability(u1, u2, eps);
  const double exp = ExponentialTwoCandidateWinProbability(u1, u2, eps);
  EXPECT_GT(std::fabs(lap - exp), 1e-3);
  // …but both favor the higher-utility candidate.
  EXPECT_GT(lap, 0.5);
  EXPECT_GT(exp, 0.5);
}

TEST(ClosedFormsTest, ExponentialWinProbabilityIsLogistic) {
  EXPECT_NEAR(ExponentialTwoCandidateWinProbability(1.0, 1.0, 2.0), 0.5,
              1e-12);
  EXPECT_NEAR(ExponentialTwoCandidateWinProbability(2.0, 0.0, 1.0),
              1.0 / (1.0 + std::exp(-2.0)), 1e-12);
}

// ------------------------------------------------- ResolveZeroUtilityNode

TEST(ResolveZeroNodeTest, PicksActualZeroCandidate) {
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  UtilityVector u = cn.Compute(g, 0);
  ASSERT_EQ(u.num_zero(), 1u);  // only node 5
  Rng rng(29);
  auto node = ResolveZeroUtilityNode(g, u, rng);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 5u);
}

TEST(ResolveZeroNodeTest, FailsWhenNoZeroCandidates) {
  CsrGraph g = MakeStar(3);
  CommonNeighborsUtility cn;
  UtilityVector u = cn.Compute(g, 1);  // all candidates have utility 1
  ASSERT_EQ(u.num_zero(), 0u);
  Rng rng(31);
  EXPECT_TRUE(ResolveZeroUtilityNode(g, u, rng).status()
                  .IsFailedPrecondition());
}

/// Target 0 linked to hub 1, which links every node from 2 + num_zero on:
/// nodes 2 .. 1 + num_zero are the target's only zero-utility candidates
/// (isolated), and every other candidate shares the hub with it.
CsrGraph MakeHubFixture(NodeId n, NodeId num_zero) {
  GraphBuilder builder(/*directed=*/false);
  builder.SetNumNodes(n);
  builder.AddEdge(0, 1);
  for (NodeId v = 2 + num_zero; v < n; ++v) builder.AddEdge(1, v);
  return builder.Build();
}

TEST(ResolveZeroNodeTest, FallbackIsUniformOverATinyZeroBlock) {
  // Two zero candidates among 5,000 nodes: all 256 rejection draws miss
  // with probability (1 - 2/5000)^256 ≈ 0.90, so the fallback decides most
  // resolutions. It must stay uniform over the block: a lowest-id scan
  // gives node 2 about 95% of releases, and a neighbouring graph that
  // moves node 2 out of the block changes that probability by far more
  // than e^ε.
  const CsrGraph g = MakeHubFixture(5000, 2);
  CommonNeighborsUtility cn;
  const UtilityVector u = cn.Compute(g, 0);
  ASSERT_EQ(u.num_zero(), 2u);
  constexpr int kResolves = 2000;
  // 5 binomial standard deviations of Bin(2000, 1/2) (sd ≈ 22.4): a
  // uniform resolver leaves this band with probability below 1e-6.
  constexpr int kBound = 112;
  Rng rng(37);
  int lower = 0;
  for (int i = 0; i < kResolves; ++i) {
    auto node = ResolveZeroUtilityNode(g, u, rng);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE(*node == 2 || *node == 3) << *node;
    lower += (*node == 2);
  }
  // Node 3 takes every other resolution, so this bounds both shares.
  EXPECT_NEAR(lower, kResolves / 2, kBound);
}

/// The hash-set resolver the support index replaced, kept as the
/// differential reference: `excluded` holds the support plus every pick
/// resolved so far; rejection over uniform node draws, then one uniform
/// draw from the scanned eligible pool.
NodeId HashSetReferenceResolve(const CsrGraph& graph,
                               const UtilityVector& utilities,
                               std::unordered_set<NodeId>& excluded,
                               Rng& rng) {
  const NodeId target = utilities.target();
  auto eligible = [&](NodeId v) {
    return v != target && !graph.HasEdge(target, v) && excluded.count(v) == 0;
  };
  NodeId resolved = kUnresolvedZeroNode;
  for (int attempt = 0; attempt < 256 && resolved == kUnresolvedZeroNode;
       ++attempt) {
    const NodeId v = static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
    if (eligible(v)) resolved = v;
  }
  if (resolved == kUnresolvedZeroNode) {
    std::vector<NodeId> pool;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (eligible(v)) pool.push_back(v);
    }
    if (pool.empty()) return kUnresolvedZeroNode;
    resolved = pool[rng.NextBounded(pool.size())];
  }
  excluded.insert(resolved);
  return resolved;
}

/// Resolves up to `k` distinct zero picks on (graph, target) with both
/// resolvers from one seed and asserts identical node sequences and
/// identical RNG consumption.
void ExpectResolversAgree(const CsrGraph& graph, NodeId target, size_t k,
                          uint64_t seed) {
  CommonNeighborsUtility cn;
  const UtilityVector u = cn.Compute(graph, target);
  if (u.num_zero() == 0) return;
  const SupportIndex index(u);
  std::unordered_set<NodeId> excluded;
  for (const UtilityEntry& e : u.nonzero()) excluded.insert(e.node);
  Rng ref_rng(seed);
  Rng rng(seed);
  std::vector<NodeId> taken;
  const size_t picks = std::min<uint64_t>(k, u.num_zero());
  for (size_t p = 0; p < picks; ++p) {
    const NodeId expected = HashSetReferenceResolve(graph, u, excluded,
                                                    ref_rng);
    auto node = k == 1 ? ResolveZeroUtilityNode(graph, u, rng)
                       : ResolveZeroUtilityNode(graph, u, index, taken, rng);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    ASSERT_EQ(*node, expected) << "target " << target << " seed " << seed
                               << " pick " << p;
    taken.push_back(*node);
  }
  // Same accept/reject decisions => same number of draws consumed.
  EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64()) << "target " << target;
}

TEST(ResolveZeroNodeTest, IndexResolverMatchesHashSetReference) {
  Rng setup(41);
  for (const bool directed : {false, true}) {
    for (const NodeId n : {300u, 2000u}) {
      const auto weights = PowerLawWeights(n, 2.1);
      auto g = ChungLu(weights, weights, 6ull * n, directed, setup);
      ASSERT_TRUE(g.ok());
      for (int t = 0; t < 25; ++t) {
        const NodeId target = static_cast<NodeId>(setup.NextBounded(n));
        const uint64_t seed = setup.NextUint64();
        ExpectResolversAgree(*g, target, 1, seed);
        ExpectResolversAgree(*g, target, 10, seed);
      }
    }
  }
  // Tiny zero blocks route most resolutions through the pool fallback,
  // and ten prior picks shrink the pool as the list fills.
  for (const NodeId num_zero : {1u, 2u, 12u}) {
    const CsrGraph g = MakeHubFixture(5000, num_zero);
    for (uint64_t seed = 0; seed < 8; ++seed) {
      ExpectResolversAgree(g, 0, 1, seed);
      ExpectResolversAgree(g, 0, 10, seed);
    }
  }
}

TEST(ResolveZeroNodeTest, ListResolutionFailsOnlyWhenTakenExhaustsTheBlock) {
  const CsrGraph g = MakeHubFixture(50, 2);
  CommonNeighborsUtility cn;
  const UtilityVector u = cn.Compute(g, 0);
  const SupportIndex index(u);
  Rng rng(43);
  const std::vector<NodeId> one = {2};
  auto node = ResolveZeroUtilityNode(g, u, index, one, rng);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 3u);
  const std::vector<NodeId> both = {2, 3};
  EXPECT_TRUE(
      ResolveZeroUtilityNode(g, u, index, both, rng).status().IsInternal());
}

}  // namespace
}  // namespace privrec
