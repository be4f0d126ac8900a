// Engineering microbenchmarks (google-benchmark): the per-operation costs
// behind the experiment harness — utility-vector computation, private
// mechanism draws, graph construction, and generator throughput. These are
// the knobs that decide whether the Section 7 experiments run in seconds
// or hours, and they document the value of the zero-block optimizations.

#include <benchmark/benchmark.h>

#include "core/exponential_mechanism.h"
#include "core/laplace_mechanism.h"
#include "eval/accuracy.h"
#include "eval/experiment.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "random/alias_sampler.h"
#include "random/distributions.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"
#include "utility/personalized_pagerank.h"
#include "utility/weighted_paths.h"

namespace privrec {
namespace {

CsrGraph BenchGraph() {
  Rng rng(7);
  auto weights = PowerLawWeights(7115, 2.2);
  auto g = ChungLu(weights, weights, 100762, /*directed=*/false, rng);
  return *std::move(g);
}

void BM_CommonNeighborsCompute(benchmark::State& state) {
  static const CsrGraph graph = BenchGraph();
  CommonNeighborsUtility utility;
  NodeId target = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(utility.Compute(graph, target));
  }
}
BENCHMARK(BM_CommonNeighborsCompute)->Arg(0)->Arg(100)->Arg(5000);

void BM_WeightedPathsCompute(benchmark::State& state) {
  static const CsrGraph graph = BenchGraph();
  WeightedPathsUtility utility(0.005, 3);
  NodeId target = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(utility.Compute(graph, target));
  }
}
BENCHMARK(BM_WeightedPathsCompute)->Arg(0)->Arg(100)->Arg(5000);

void BM_PersonalizedPageRankCompute(benchmark::State& state) {
  static const CsrGraph graph = BenchGraph();
  PersonalizedPageRankUtility utility(0.15, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(utility.Compute(graph, 100));
  }
}
BENCHMARK(BM_PersonalizedPageRankCompute);

void BM_ExponentialMechanismDraw(benchmark::State& state) {
  static const CsrGraph graph = BenchGraph();
  CommonNeighborsUtility utility;
  UtilityVector u = utility.Compute(graph, 100);
  ExponentialMechanism mech(1.0, 2.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.Recommend(u, rng));
  }
}
BENCHMARK(BM_ExponentialMechanismDraw);

void BM_LaplaceMechanismDraw(benchmark::State& state) {
  // The headline cost of the Section 7 Laplace experiments: one draw is
  // O(#nonzero) thanks to the zero-block max sampler, independent of the
  // ~7k zero-utility candidates.
  static const CsrGraph graph = BenchGraph();
  CommonNeighborsUtility utility;
  UtilityVector u = utility.Compute(graph, 100);
  LaplaceMechanism mech(1.0, 2.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.Recommend(u, rng));
  }
}
BENCHMARK(BM_LaplaceMechanismDraw);

void BM_LaplaceZeroBlockSample(benchmark::State& state) {
  // O(1) max-of-m sampling vs the naive m draws it replaces.
  LaplaceDistribution lap(2.0);
  Rng rng(5);
  size_t m = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lap.SampleMaxOf(rng, m));
  }
}
BENCHMARK(BM_LaplaceZeroBlockSample)->Arg(100)->Arg(100000);

void BM_AliasSamplerDraw(benchmark::State& state) {
  Rng weight_rng(11);
  std::vector<double> weights(100000);
  for (auto& w : weights) w = weight_rng.NextDouble();
  AliasSampler sampler(weights);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_AliasSamplerDraw);

// ------------------------------------------------------- batch-serving path
//
// The three hot loops of the Section 7 harness and the serving layer:
// repeated utility evaluation over many targets, repeated draws from one
// recommendation distribution, and snapshot acquisition on a live graph.

void BM_EvaluateTargetsBatch(benchmark::State& state) {
  static const CsrGraph graph = BenchGraph();
  CommonNeighborsUtility utility;
  Rng target_rng(41);
  auto targets = SampleTargets(graph, 0.01, target_rng);
  EvaluationOptions options;
  options.epsilon = 1.0;
  options.laplace_trials = static_cast<size_t>(state.range(0));
  options.num_threads = 1;  // per-core cost; parallel scaling is separate
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateTargets(graph, utility, targets, options));
  }
}
BENCHMARK(BM_EvaluateTargetsBatch)->Arg(0)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_LaplaceMonteCarlo1000(benchmark::State& state) {
  // The paper's 1000-trial Laplace accuracy estimate for one target.
  static const CsrGraph graph = BenchGraph();
  CommonNeighborsUtility utility;
  UtilityVector u = utility.Compute(graph, 100);
  LaplaceMechanism mech(1.0, 2.0);
  Rng rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MonteCarloExpectedAccuracy(mech, u, 1000, rng));
  }
}
BENCHMARK(BM_LaplaceMonteCarlo1000)->Unit(benchmark::kMicrosecond);

void BM_ExponentialDraw1000(benchmark::State& state) {
  // 1000 repeated draws from one utility vector via per-draw Recommend —
  // the legacy O(#nonzero)-per-draw path, kept as the reference point for
  // BM_ExponentialSamplerDraw1000.
  static const CsrGraph graph = BenchGraph();
  CommonNeighborsUtility utility;
  UtilityVector u = utility.Compute(graph, 100);
  ExponentialMechanism mech(1.0, 2.0);
  Rng rng(23);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(mech.Recommend(u, rng));
    }
  }
}
BENCHMARK(BM_ExponentialDraw1000)->Unit(benchmark::kMicrosecond);

void BM_ExponentialSamplerDraw1000(benchmark::State& state) {
  // Same 1000 draws through MakeSampler: one O(#nonzero) alias build, then
  // O(1) per draw. The build is inside the loop, so the measured win is
  // end-to-end, not just the draw kernel.
  static const CsrGraph graph = BenchGraph();
  CommonNeighborsUtility utility;
  UtilityVector u = utility.Compute(graph, 100);
  ExponentialMechanism mech(1.0, 2.0);
  Rng rng(23);
  for (auto _ : state) {
    auto sampler = mech.MakeSampler(u);
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(sampler->Draw(rng));
    }
  }
}
BENCHMARK(BM_ExponentialSamplerDraw1000)->Unit(benchmark::kMicrosecond);

void BM_ServeListRepeated(benchmark::State& state) {
  // Steady-state list serving: warm cache, repeated k=10 lists for one user.
  static const CsrGraph base = BenchGraph();
  DynamicGraph graph(base);
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 1e15;  // never refuse: measure the serve path
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.ServeList(100, 10, rng));
  }
}
BENCHMARK(BM_ServeListRepeated)->Unit(benchmark::kMicrosecond);

void BM_SnapshotReuse(benchmark::State& state) {
  // Snapshot acquisition against an unmutated DynamicGraph — what the
  // service pays per request. With the version-stamped cache this is a
  // shared_ptr copy; before it was a full O(n + m) CSR rebuild.
  static const CsrGraph base = BenchGraph();
  DynamicGraph graph(base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.SharedSnapshot());
  }
}
BENCHMARK(BM_SnapshotReuse)->Unit(benchmark::kMicrosecond);

void BM_SnapshotAfterMutation(benchmark::State& state) {
  // Every acquisition follows a mutation: the mutation's block-shared
  // publication (the table's top level plus the endpoints' blocks) and
  // then one pointer copy, kept measurable for regression tracking.
  static const CsrGraph base = BenchGraph();
  DynamicGraph graph(base);
  bool present = graph.HasEdge(0, 1);
  for (auto _ : state) {
    if (present) {
      benchmark::DoNotOptimize(graph.RemoveEdge(0, 1));
    } else {
      benchmark::DoNotOptimize(graph.AddEdge(0, 1));
    }
    present = !present;
    benchmark::DoNotOptimize(graph.SharedSnapshot());
  }
}
BENCHMARK(BM_SnapshotAfterMutation)->Unit(benchmark::kMicrosecond);

void BM_GraphBuild(benchmark::State& state) {
  Rng rng(17);
  auto edges_graph = ErdosRenyiGnm(10000, 50000, false, rng);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < edges_graph->num_nodes(); ++u) {
    for (NodeId v : edges_graph->OutNeighbors(u)) {
      if (v > u) edges.emplace_back(u, v);
    }
  }
  for (auto _ : state) {
    GraphBuilder builder(false);
    builder.Reserve(edges.size());
    for (auto [u, v] : edges) builder.AddEdge(u, v);
    benchmark::DoNotOptimize(builder.Build());
  }
}
BENCHMARK(BM_GraphBuild);

void BM_ChungLuGenerate(benchmark::State& state) {
  auto weights = PowerLawWeights(7115, 2.2);
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    benchmark::DoNotOptimize(
        ChungLu(weights, weights, 100762, false, rng));
  }
}
BENCHMARK(BM_ChungLuGenerate)->Unit(benchmark::kMillisecond);

void BM_RmatGenerate(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    benchmark::DoNotOptimize(
        Rmat(14, 80000, 0.57, 0.19, 0.19, true, rng));
  }
}
BENCHMARK(BM_RmatGenerate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace privrec
