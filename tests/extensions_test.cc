// Tests for the extension surface: dynamic graphs, binary I/O, the
// Gumbel-max sampler, multi-recommendation (top-k), the privacy
// accountant, sensitive-edge-subset auditing, and the non-monotone bound.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <utility>

#include "core/baseline_mechanisms.h"
#include "core/bounds.h"
#include "core/exponential_mechanism.h"
#include "core/gumbel_mechanism.h"
#include "core/privacy_accountant.h"
#include "core/topk.h"
#include "eval/dp_auditor.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "graph/binary_io.h"
#include "graph/dynamic_graph.h"
#include "gtest/gtest.h"
#include "random/distributions.h"
#include "random/rng.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

// ------------------------------------------------------------ DynamicGraph

TEST(DynamicGraphTest, AddRemoveRoundTrip) {
  DynamicGraph g(5, /*directed=*/false);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 0));  // undirected symmetry
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DynamicGraphTest, DuplicateAndMissingEdgesRejected) {
  DynamicGraph g(3, false);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 1).IsFailedPrecondition());
  EXPECT_TRUE(g.AddEdge(1, 0).IsFailedPrecondition());  // same undirected edge
  EXPECT_TRUE(g.RemoveEdge(1, 2).IsFailedPrecondition());
  EXPECT_TRUE(g.AddEdge(0, 0).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(0, 9).IsInvalidArgument());
}

TEST(DynamicGraphTest, DirectedEdgesAreAsymmetric) {
  DynamicGraph g(3, /*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  ASSERT_TRUE(g.AddEdge(1, 0).ok());  // the reverse arc is a new edge
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DynamicGraphTest, SnapshotMatchesCsr) {
  CsrGraph original = MakeTwoTriangleFixture();
  DynamicGraph g(original);
  EXPECT_TRUE(g.Snapshot().Equals(original));
  ASSERT_TRUE(g.AddEdge(3, 5).ok());
  CsrGraph snap = g.Snapshot();
  EXPECT_TRUE(snap.HasEdge(3, 5));
  EXPECT_EQ(snap.num_edges(), original.num_edges() + 1);
}

TEST(DynamicGraphTest, AddNodeGrowsGraph) {
  DynamicGraph g(2, false);
  NodeId fresh = g.AddNode();
  EXPECT_EQ(fresh, 2u);
  ASSERT_TRUE(g.AddEdge(0, fresh).ok());
  EXPECT_EQ(g.Snapshot().num_nodes(), 3u);
}

TEST(DynamicGraphTest, SharedSnapshotIsCachedWhileUnmutated) {
  DynamicGraph g(MakeTwoTriangleFixture());
  auto first = g.SharedSnapshot();
  auto second = g.SharedSnapshot();
  // Same immutable instance, no rebuild.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(g.snapshot_builds(), 1u);
  // Snapshot() copies must come from the same cached build.
  CsrGraph copy = g.Snapshot();
  EXPECT_EQ(g.snapshot_builds(), 1u);
  EXPECT_TRUE(copy.Equals(*first));
}

TEST(DynamicGraphTest, MutationBumpsVersionAndInvalidatesSnapshot) {
  DynamicGraph g(MakeTwoTriangleFixture());
  const uint64_t v0 = g.version();
  auto before = g.SharedSnapshot();
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  EXPECT_GT(g.version(), v0);
  auto after = g.SharedSnapshot();
  EXPECT_NE(before.get(), after.get());
  EXPECT_TRUE(after->HasEdge(0, 4));
  ASSERT_TRUE(g.RemoveEdge(0, 4).ok());
  auto reverted = g.SharedSnapshot();
  EXPECT_NE(after.get(), reverted.get());
  EXPECT_FALSE(reverted->HasEdge(0, 4));
  // Failed mutations must NOT invalidate the cache.
  const uint64_t builds = g.snapshot_builds();
  EXPECT_TRUE(g.AddEdge(0, 1).IsFailedPrecondition());  // already present
  EXPECT_EQ(g.SharedSnapshot().get(), reverted.get());
  EXPECT_EQ(g.snapshot_builds(), builds);
}

TEST(DynamicGraphTest, HeldSnapshotSurvivesMutationUnchanged) {
  DynamicGraph g(MakeTwoTriangleFixture());
  CsrGraph original = MakeTwoTriangleFixture();
  auto held = g.SharedSnapshot();
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  ASSERT_TRUE(g.AddEdge(1, 5).ok());
  // The old snapshot is immutable and still describes the pre-mutation
  // graph, even though the cache has moved on.
  EXPECT_TRUE(held->Equals(original));
  EXPECT_FALSE(held->HasEdge(0, 4));
  EXPECT_TRUE(g.SharedSnapshot()->HasEdge(0, 4));
}

TEST(DynamicGraphTest, EvolvingGraphChangesUtilities) {
  // The Section 8 dynamic story in miniature: as a user makes friends,
  // a candidate's utility (and hence the private recommender's accuracy
  // ceiling) rises.
  DynamicGraph g(MakeStar(4));  // hub 0, leaves 1..4
  CommonNeighborsUtility cn;
  UtilityVector before = cn.Compute(g.Snapshot(), 1);
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());  // now 1 and 2 share {0, 3}
  UtilityVector after = cn.Compute(g.Snapshot(), 1);
  EXPECT_GT(after.max_utility(), before.max_utility());
}

// --------------------------------------------------------------- BinaryIO

TEST(BinaryIoTest, RoundTripPreservesGraph) {
  Rng rng(3);
  auto g = ErdosRenyiGnm(200, 800, /*directed=*/true, rng);
  ASSERT_TRUE(g.ok());
  const std::string path = testing::TempDir() + "/privrec_bin_rt.prvg";
  ASSERT_TRUE(SaveBinaryGraph(*g, path).ok());
  auto loaded = LoadBinaryGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->Equals(*g));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripUndirected) {
  CsrGraph g = MakeTwoTriangleFixture();
  const std::string path = testing::TempDir() + "/privrec_bin_und.prvg";
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  auto loaded = LoadBinaryGraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->directed());
  EXPECT_TRUE(loaded->Equals(g));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, DetectsCorruption) {
  CsrGraph g = MakeComplete(6);
  const std::string path = testing::TempDir() + "/privrec_bin_bad.prvg";
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(LoadBinaryGraph(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, DetectsTruncation) {
  CsrGraph g = MakeComplete(8);
  const std::string path = testing::TempDir() + "/privrec_bin_trunc.prvg";
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 12);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(LoadBinaryGraph(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsForeignFiles) {
  const std::string path = testing::TempDir() + "/privrec_bin_foreign.prvg";
  {
    std::ofstream out(path);
    out << "definitely not a PRVG file, but long enough to read a header";
  }
  auto loaded = LoadBinaryGraph(path);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  std::remove(path.c_str());
  EXPECT_TRUE(LoadBinaryGraph("/no/such/file.prvg").status().IsIOError());
}

// -------------------------------------------------------------- GumbelMax

TEST(GumbelMaxTest, MatchesExponentialMechanismDistribution) {
  // The Gumbel-max trick: empirical frequencies of the noisy-argmax must
  // match the exponential mechanism's closed form.
  UtilityVector u(0, 10, {{1, 4.0}, {2, 2.0}, {3, 1.0}});
  const double eps = 1.0, sens = 1.0;
  GumbelMaxMechanism gumbel(eps, sens);
  ExponentialMechanism exponential(eps, sens);
  auto expected = exponential.Distribution(u);
  ASSERT_TRUE(expected.ok());
  Rng rng(11);
  constexpr int kDraws = 200000;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kDraws; ++i) {
    auto rec = gumbel.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    if (rec->from_zero_block) {
      counts[3]++;
    } else {
      counts[rec->node - 1]++;
    }
  }
  EXPECT_NEAR(counts[0] / double(kDraws), expected->nonzero_probs[0], 0.005);
  EXPECT_NEAR(counts[1] / double(kDraws), expected->nonzero_probs[1], 0.005);
  EXPECT_NEAR(counts[2] / double(kDraws), expected->nonzero_probs[2], 0.005);
  EXPECT_NEAR(counts[3] / double(kDraws), expected->zero_block_prob, 0.005);
}

TEST(GumbelMaxTest, ZeroBlockShortcutIsCorrect) {
  // Large zero block: P(zero block wins) must track the closed form.
  UtilityVector u(0, 1001, {{1, 3.0}});
  GumbelMaxMechanism gumbel(1.0, 1.0);
  ExponentialMechanism exponential(1.0, 1.0);
  auto expected = exponential.Distribution(u);
  ASSERT_TRUE(expected.ok());
  Rng rng(13);
  int zero_wins = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    auto rec = gumbel.Recommend(u, rng);
    ASSERT_TRUE(rec.ok());
    if (rec->from_zero_block) ++zero_wins;
  }
  EXPECT_NEAR(zero_wins / double(kDraws), expected->zero_block_prob, 0.01);
}

TEST(GumbelMaxTest, AuditedAtDeclaredEpsilon) {
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  GumbelMaxMechanism mech(1.0, cn.SensitivityBound(g));
  auto audit = AuditEdgeDp(g, cn, mech, 0);
  ASSERT_TRUE(audit.ok());
  EXPECT_LE(audit->max_abs_log_ratio, 1.0 + 1e-6);
}

// ------------------------------------------------------------------ Top-k

UtilityVector TopKVector() {
  return UtilityVector(0, 50, {{1, 8.0}, {2, 6.0}, {3, 5.0}, {4, 1.0}});
}

TEST(TopKTest, BestTopKIsDescendingPrefix) {
  auto best = BestTopK(TopKVector(), 3);
  ASSERT_TRUE(best.ok());
  ASSERT_EQ(best->picks.size(), 3u);
  EXPECT_EQ(best->picks[0].node, 1u);
  EXPECT_EQ(best->picks[1].node, 2u);
  EXPECT_EQ(best->picks[2].node, 3u);
  EXPECT_DOUBLE_EQ(best->accuracy, 1.0);
}

TEST(TopKTest, BestTopKPadsWithZeroBlock) {
  UtilityVector u(0, 10, {{1, 2.0}});
  auto best = BestTopK(u, 3);
  ASSERT_TRUE(best.ok());
  EXPECT_FALSE(best->picks[0].from_zero_block);
  EXPECT_TRUE(best->picks[1].from_zero_block);
  EXPECT_TRUE(best->picks[2].from_zero_block);
}

TEST(TopKTest, PeelingNeverRepeatsANonzeroCandidate) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    auto result = PeelingExponentialTopK(TopKVector(), 4, 8.0, 1.0, rng);
    ASSERT_TRUE(result.ok());
    std::set<NodeId> seen;
    for (const Recommendation& pick : result->picks) {
      if (pick.from_zero_block) continue;
      EXPECT_TRUE(seen.insert(pick.node).second) << "duplicate pick";
    }
  }
}

TEST(TopKTest, PeelingAccuracyGrowsWithEpsilon) {
  Rng rng(19);
  double prev = -1;
  for (double eps : {0.5, 2.0, 16.0}) {
    double total = 0;
    for (int i = 0; i < 300; ++i) {
      auto result = PeelingExponentialTopK(TopKVector(), 2, eps, 1.0, rng);
      ASSERT_TRUE(result.ok());
      total += result->accuracy;
    }
    double mean = total / 300;
    EXPECT_GT(mean, prev);
    prev = mean;
  }
  EXPECT_GT(prev, 0.9);  // at eps=16 the list is nearly ideal
}

TEST(TopKTest, PeelingSurvivesConcentratedMass) {
  // A far-dominant head at a large per-round ε: after the head is peeled,
  // the frozen sampler's leftover mass underflows and the implementation
  // must fall back to the exact scan / rebuild path. The run must stay
  // well-formed: k distinct picks, the dominant candidate first almost
  // always, and no zero-block overdraws.
  UtilityVector u(0, 6,
                  {{1, 1000.0}, {2, 4.0}, {3, 3.0}, {4, 2.0}, {5, 1.0}});
  ASSERT_EQ(u.num_zero(), 1u);
  Rng rng(101);
  int head_first = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto result = PeelingExponentialTopK(u, 6, 60.0, 1.0, rng);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->picks.size(), 6u);
    std::set<NodeId> seen;
    int zero_picks = 0;
    for (const Recommendation& pick : result->picks) {
      if (pick.from_zero_block) {
        ++zero_picks;
        continue;
      }
      EXPECT_TRUE(seen.insert(pick.node).second) << "duplicate pick";
    }
    EXPECT_EQ(zero_picks, 1);       // exactly the one zero candidate
    EXPECT_EQ(seen.size(), 5u);     // all five nonzero candidates drawn
    if (result->picks[0].node == 1) ++head_first;
  }
  // At per-round eps=10 the head wins round one with probability ~1.
  EXPECT_GT(head_first, 195);
}

TEST(TopKTest, PeelingMatchesPerRoundExponentialDistribution) {
  // Distributional regression against first principles: with k=2, the
  // probability that the pair {a, b} comes out (in order) is
  // p_a · p_b/(1-p_a) under per-round ε/2 weights. Check the marginal of
  // the FIRST pick against the closed form.
  UtilityVector u(0, 10, {{1, 5.0}, {2, 3.0}, {3, 1.0}});
  ExponentialMechanism per_round(1.0, 1.0);  // eps/k = 2/2 = 1
  auto dist = per_round.Distribution(u);
  ASSERT_TRUE(dist.ok());
  Rng rng(103);
  constexpr int kDraws = 200000;
  std::vector<int> first_counts(4, 0);
  for (int i = 0; i < kDraws; ++i) {
    auto result = PeelingExponentialTopK(u, 2, 2.0, 1.0, rng);
    ASSERT_TRUE(result.ok());
    const Recommendation& first = result->picks[0];
    if (first.from_zero_block) {
      first_counts[3]++;
    } else {
      first_counts[first.node - 1]++;
    }
  }
  EXPECT_NEAR(first_counts[0] / double(kDraws), dist->nonzero_probs[0],
              0.005);
  EXPECT_NEAR(first_counts[1] / double(kDraws), dist->nonzero_probs[1],
              0.005);
  EXPECT_NEAR(first_counts[3] / double(kDraws), dist->zero_block_prob,
              0.005);
}

TEST(TopKTest, OneShotLaplaceAccuracyGrowsWithEpsilon) {
  Rng rng(23);
  double prev = -1;
  for (double eps : {0.5, 2.0, 16.0}) {
    double total = 0;
    for (int i = 0; i < 300; ++i) {
      auto result = OneShotLaplaceTopK(TopKVector(), 2, eps, 1.0, rng);
      ASSERT_TRUE(result.ok());
      total += result->accuracy;
    }
    double mean = total / 300;
    EXPECT_GT(mean, prev);
    prev = mean;
  }
  EXPECT_GT(prev, 0.9);
}

TEST(TopKTest, OneShotLaplaceTieGroupedMatchesNaiveDistribution) {
  // Regression for the tie-grouped O(k·#distinct) draw path: on a fixture
  // dominated by tied utilities, per-node top-k inclusion frequencies must
  // match a naive per-candidate-noise reference implementation (which is
  // the definition of the mechanism).
  UtilityVector u(0, 9,
                  {{1, 4.0}, {2, 4.0}, {3, 4.0}, {4, 2.0}, {5, 2.0}, {6, 1.0}});
  ASSERT_EQ(u.num_zero(), 3u);
  constexpr size_t kK = 3;
  constexpr double kEps = 2.0, kSens = 1.0;
  constexpr int kTrials = 30000;

  // Naive reference: independent Laplace(k·Δf/ε) noise on every candidate,
  // zero block fully materialized, global sort.
  auto naive = [&](Rng& rng) {
    const LaplaceDistribution noise(kK * kSens / kEps);
    std::vector<std::pair<double, NodeId>> scored;
    for (const UtilityEntry& e : u.nonzero()) {
      scored.push_back({e.utility + noise.Sample(rng), e.node});
    }
    for (uint64_t z = 0; z < u.num_zero(); ++z) {
      scored.push_back({noise.Sample(rng), kUnresolvedZeroNode});
    }
    std::partial_sort(scored.begin(), scored.begin() + kK, scored.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    scored.resize(kK);
    return scored;
  };

  // Inclusion counts per node id (index 0 aggregates the zero block).
  std::vector<int> grouped_counts(7, 0), naive_counts(7, 0);
  Rng rng_grouped(211), rng_naive(223);
  for (int trial = 0; trial < kTrials; ++trial) {
    auto result = OneShotLaplaceTopK(u, kK, kEps, kSens, rng_grouped);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->picks.size(), kK);
    std::set<NodeId> distinct;
    for (const Recommendation& pick : result->picks) {
      if (pick.from_zero_block) {
        ++grouped_counts[0];
      } else {
        ++grouped_counts[pick.node];
        EXPECT_TRUE(distinct.insert(pick.node).second)
            << "duplicate nonzero pick";
      }
    }
    for (const auto& [noisy, node] : naive(rng_naive)) {
      ++naive_counts[node == kUnresolvedZeroNode ? 0 : node];
    }
  }
  for (int node = 0; node <= 6; ++node) {
    EXPECT_NEAR(grouped_counts[node] / double(kTrials),
                naive_counts[node] / double(kTrials), 0.02)
        << "node " << node;
  }
  // Exchangeability within the tied group of {1,2,3}: equal inclusion
  // frequencies.
  EXPECT_NEAR(grouped_counts[1] / double(kTrials),
              grouped_counts[2] / double(kTrials), 0.02);
  EXPECT_NEAR(grouped_counts[2] / double(kTrials),
              grouped_counts[3] / double(kTrials), 0.02);
}

TEST(TopKTest, KEqualsOneMatchesSingleMechanism) {
  // Peeling with k=1 IS the exponential mechanism: same expected accuracy.
  UtilityVector u = TopKVector();
  ExponentialMechanism mech(1.0, 1.0);
  auto dist = mech.Distribution(u);
  ASSERT_TRUE(dist.ok());
  const double expected = dist->ExpectedAccuracy(u) * u.max_utility() /
                          u.max_utility();
  Rng rng(29);
  double total = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    auto result = PeelingExponentialTopK(u, 1, 1.0, 1.0, rng);
    ASSERT_TRUE(result.ok());
    total += result->accuracy * u.max_utility();  // accuracy vs ideal=umax
  }
  EXPECT_NEAR(total / kTrials / u.max_utility(),
              expected, 0.01);
}

TEST(TopKTest, Validation) {
  Rng rng(31);
  UtilityVector u(0, 2, {{1, 1.0}});
  EXPECT_TRUE(PeelingExponentialTopK(u, 0, 1.0, 1.0, rng)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PeelingExponentialTopK(u, 5, 1.0, 1.0, rng)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(OneShotLaplaceTopK(u, 5, 1.0, 1.0, rng)
                  .status()
                  .IsFailedPrecondition());
}

// ---------------------------------------------------- PrivacyAccountant

TEST(AccountantTest, ChargesUntilExhausted) {
  PrivacyAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Charge(0.4, "rec #1").ok());
  EXPECT_TRUE(accountant.Charge(0.4, "rec #2").ok());
  EXPECT_NEAR(accountant.remaining(), 0.2, 1e-12);
  EXPECT_TRUE(accountant.Charge(0.3, "rec #3").IsFailedPrecondition());
  EXPECT_NEAR(accountant.spent(), 0.8, 1e-12);  // failed charge not booked
  EXPECT_TRUE(accountant.Charge(0.2, "rec #3 retry").ok());
  EXPECT_NEAR(accountant.spent(), 1.0, 1e-12);
}

TEST(AccountantTest, ExactSplitDoesNotTripOnFloatDust) {
  PrivacyAccountant accountant(1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(accountant.Charge(0.1, "slice").ok()) << i;
  }
  EXPECT_TRUE(accountant.Charge(0.05, "over").IsFailedPrecondition());
}

TEST(AccountantTest, RejectsNegativeCharge) {
  PrivacyAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Charge(-0.1, "refund?").IsInvalidArgument());
}

TEST(AccountantTest, CompositionMatchesTopKBudgeting) {
  // k draws at eps/k compose to exactly the eps the top-k API promises.
  const double eps = 2.0;
  const size_t k = 5;
  PrivacyAccountant accountant(eps);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(accountant.Charge(eps / k, "peel round").ok());
  }
  EXPECT_NEAR(accountant.remaining(), 0.0, 1e-9);
}

// ------------------------------------------------- Sensitive-edge subset

bool OnlyPageEdgesSensitive(NodeId u, NodeId v, void* context) {
  // Nodes >= boundary are "pages"; only person-page links are sensitive.
  NodeId boundary = *static_cast<NodeId*>(context);
  return (u >= boundary) != (v >= boundary);
}

TEST(SensitiveEdgeTest, RestrictedAuditIsNoLargerThanFullAudit) {
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  ExponentialMechanism mech(1.0, cn.SensitivityBound(g));
  NodeId boundary = 4;  // nodes 4,5 play the "pages" role
  auto full = AuditEdgeDp(g, cn, mech, 0);
  auto restricted = AuditSensitiveEdgeDp(g, cn, mech, 0,
                                         OnlyPageEdgesSensitive, &boundary);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(restricted.ok());
  EXPECT_LT(restricted->pairs_checked, full->pairs_checked);
  EXPECT_LE(restricted->max_abs_log_ratio,
            full->max_abs_log_ratio + 1e-12);
}

TEST(SensitiveEdgeTest, WorstEdgeRespectsPredicate) {
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  ExponentialMechanism mech(1.0, cn.SensitivityBound(g));
  NodeId boundary = 4;
  auto restricted = AuditSensitiveEdgeDp(g, cn, mech, 0,
                                         OnlyPageEdgesSensitive, &boundary);
  ASSERT_TRUE(restricted.ok());
  ASSERT_GT(restricted->pairs_checked, 0u);
  EXPECT_TRUE(OnlyPageEdgesSensitive(restricted->worst_edge_u,
                                     restricted->worst_edge_v, &boundary));
}

// ------------------------------------------------- Non-monotone bound

TEST(NonMonotoneBoundTest, HalvesThePromotionBound) {
  const uint64_t n = 100000;
  const double t = 12.0;
  EXPECT_NEAR(NonMonotoneEpsilonLowerBound(n, t),
              std::log(static_cast<double>(n)) / 24.0, 1e-12);
  // Weaker (smaller) than the monotone Theorem 2-style bound with same t.
  EXPECT_LT(NonMonotoneEpsilonLowerBound(n, t),
            std::log(static_cast<double>(n)) / t);
}

}  // namespace
}  // namespace privrec
