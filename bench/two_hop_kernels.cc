// 2-hop kernel benchmark: the serve-path floor before and after the
// vectorized kernel layer (utility/two_hop_kernels.h). Full-vector
// Compute, naive scatter reference vs kernel, per utility family (common
// neighbors, Adamic-Adar, resource allocation, Jaccard) — the cost of
// every cache miss and every delta-window recompute in the serving stack.
// Vectors are cross-checked bitwise before timing; the 8k
// common-neighbors speedup is gated at >= 2x.
//
// Fixtures: Chung-Lu power-law graphs at 2k/10k and 8k/40k edges
// (alpha=2.2, the serving-bench fixture) plus a heavier-tailed 8k
// (alpha=1.8) with more hub/leaf skew.
//
// Output: tables, plus (with --json=PATH) a machine-readable dump;
// BENCH_two_hop_kernels.json in the repo root is a checked-in run
// (refreshed by ci/sanitize.sh --audit).
//
// Flags:
//   --targets=T   Compute targets sampled per fixture (default 400)
//   --reps=R      repetitions per measurement, median kept (default 5)
//   --json=PATH   write results as JSON

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "gen/generators.h"
#include "random/rng.h"
#include "utility/adamic_adar.h"
#include "utility/link_predictors.h"
#include "utility/two_hop_kernels.h"

namespace privrec {
namespace bench {
namespace {

struct GraphConfig {
  const char* name;
  NodeId nodes;
  uint64_t edges;
  double alpha;  // power-law exponent; lower = heavier hubs
};

constexpr GraphConfig kConfigs[] = {
    {"chung-lu-2k", 2000, 10000, 2.2},
    {"chung-lu-8k", 8000, 40000, 2.2},
    {"chung-lu-skewed-8k", 8000, 40000, 1.8},
};

double UnitWeight(uint32_t) { return 1.0; }

double InverseDegreeWeight(uint32_t degree) {
  return degree == 0 ? 0.0 : 1.0 / static_cast<double>(degree);
}

struct UtilityCase {
  const char* name;
  DegreeWeightFn weight;  // nullptr marks the fused Jaccard pass
  bool constant_weight;
};

constexpr UtilityCase kUtilityCases[] = {
    {"common_neighbors", &UnitWeight, true},
    {"adamic_adar", &InverseLogDegreeWeight, false},
    {"resource_allocation", &InverseDegreeWeight, false},
    {"jaccard", nullptr, false},
};

CsrGraph MakeGraph(const GraphConfig& config) {
  Rng rng(kWikiSeed);
  auto weights = PowerLawWeights(config.nodes, config.alpha);
  auto graph = ChungLu(weights, weights, config.edges, /*directed=*/false,
                       rng);
  PRIVREC_CHECK_OK(graph.status());
  return *graph;
}

double Median(std::vector<double> values) {
  PRIVREC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::vector<NodeId> SampleTargets(const CsrGraph& graph, size_t count) {
  Rng rng(kTargetSeed);
  std::vector<NodeId> targets;
  targets.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    targets.push_back(static_cast<NodeId>(rng.NextBounded(graph.num_nodes())));
  }
  return targets;
}

// ----------------------------------------------------- full-vector Compute

struct ComputeRow {
  const char* graph_name;
  const char* utility_name;
  double naive_us = 0;   // per target, median across reps
  double kernel_us = 0;
};

UtilityVector RunNaive(const CsrGraph& graph, NodeId target,
                       UtilityWorkspace& workspace, const UtilityCase& uc) {
  if (uc.weight == nullptr) {
    return NaiveJaccardReference(graph, target, workspace);
  }
  return NaiveTwoHopReference(graph, target, workspace, uc.weight,
                              uc.constant_weight);
}

UtilityVector RunKernel(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace, const UtilityCase& uc) {
  if (uc.weight == nullptr) {
    // Same fused pass JaccardUtility::Compute runs (kernel expansion +
    // bitset finalize); calling through the utility object would add a
    // virtual hop the naive side does not pay.
    return JaccardUtility().Compute(graph, target, workspace);
  }
  return ComputeTwoHopUtility(graph, target, workspace, uc.weight,
                              uc.constant_weight);
}

ComputeRow MeasureCompute(const CsrGraph& graph, const GraphConfig& config,
                          const UtilityCase& uc,
                          const std::vector<NodeId>& targets, int reps) {
  UtilityWorkspace workspace;
  // Bitwise cross-check outside the timed region: the kernel must return
  // the identical vector, or the "speedup" is measuring a different
  // function.
  for (NodeId target : targets) {
    const UtilityVector naive = RunNaive(graph, target, workspace, uc);
    const UtilityVector kernel = RunKernel(graph, target, workspace, uc);
    PRIVREC_CHECK(naive.num_candidates() == kernel.num_candidates());
    PRIVREC_CHECK(naive.nonzero().size() == kernel.nonzero().size());
    for (size_t i = 0; i < naive.nonzero().size(); ++i) {
      PRIVREC_CHECK(naive.nonzero()[i].node == kernel.nonzero()[i].node);
      PRIVREC_CHECK(naive.nonzero()[i].utility == kernel.nonzero()[i].utility);
    }
  }

  std::vector<double> naive_runs, kernel_runs;
  double sink = 0;  // defeat dead-code elimination
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (NodeId target : targets) {
      sink += RunNaive(graph, target, workspace, uc).max_utility();
    }
    naive_runs.push_back(watch.ElapsedSeconds() * 1e6 / targets.size());
    watch.Restart();
    for (NodeId target : targets) {
      sink += RunKernel(graph, target, workspace, uc).max_utility();
    }
    kernel_runs.push_back(watch.ElapsedSeconds() * 1e6 / targets.size());
  }
  if (sink == -1) std::printf("unreachable %f\n", sink);

  ComputeRow row;
  row.graph_name = config.name;
  row.utility_name = uc.name;
  row.naive_us = Median(std::move(naive_runs));
  row.kernel_us = Median(std::move(kernel_runs));
  return row;
}

// ------------------------------------------------------------------- JSON

void WriteJson(const std::string& path, size_t targets, int reps,
               const std::vector<ComputeRow>& compute_rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(
      f,
      "  \"description\": \"2-hop kernel layer (utility/two_hop_kernels) "
      "vs the naive scatter/probe loops it replaced, measured with "
      "bench/two_hop_kernels.cc on undirected Chung-Lu power-law "
      "fixtures, %zu sampled targets per graph, %d repetitions "
      "(medians), RelWithDebInfo (-O2, no -march flags; see "
      "PRIVREC_NATIVE_ARCH). Vectors are verified bitwise-identical "
      "before timing, so the speedup compares the same function.\",\n",
      targets, reps);
  std::fprintf(f,
               "  \"unit_compute\": \"microseconds per full utility-vector "
               "Compute (median)\",\n");
  std::fprintf(f, "  \"compute\": [\n");
  for (size_t i = 0; i < compute_rows.size(); ++i) {
    const ComputeRow& row = compute_rows[i];
    std::fprintf(f,
                 "    { \"graph\": \"%s\", \"utility\": \"%s\", "
                 "\"naive_us\": %.3f, \"kernel_us\": %.3f, \"speedup\": "
                 "\"%.2fx\" }%s\n",
                 row.graph_name, row.utility_name, row.naive_us,
                 row.kernel_us, row.naive_us / row.kernel_us,
                 i + 1 < compute_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

// ------------------------------------------------------------------- main

int Main(int argc, char** argv) {
  FlagParser flags;
  PRIVREC_CHECK_OK(flags.Parse(argc, argv));
  const size_t targets = static_cast<size_t>(flags.GetInt("targets", 400));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  const std::string json_path = flags.GetString("json", "");

  std::vector<ComputeRow> compute_rows;

  for (const GraphConfig& config : kConfigs) {
    const CsrGraph graph = MakeGraph(config);
    PrintDatasetBanner(config.name, graph);
    const std::vector<NodeId> target_ids = SampleTargets(graph, targets);

    for (const UtilityCase& uc : kUtilityCases) {
      compute_rows.push_back(
          MeasureCompute(graph, config, uc, target_ids, reps));
    }
  }

  TablePrinter compute_table(
      {"graph", "utility", "naive us", "kernel us", "speedup"});
  for (const ComputeRow& row : compute_rows) {
    compute_table.AddRow({row.graph_name, row.utility_name,
                          FormatDouble(row.naive_us, 2),
                          FormatDouble(row.kernel_us, 2),
                          FormatDouble(row.naive_us / row.kernel_us, 2) +
                              "x"});
  }
  std::printf("\nfull-vector Compute, naive scatter vs 2-hop kernel\n");
  compute_table.Print();

  // Acceptance gate: the 8k common-neighbors Compute — the serve path's
  // cache-miss floor — must be at least 2x faster through the kernel.
  for (const ComputeRow& row : compute_rows) {
    if (std::string(row.graph_name) == "chung-lu-8k" &&
        std::string(row.utility_name) == "common_neighbors") {
      PRIVREC_CHECK_GE(row.naive_us, 2.0 * row.kernel_us);
    }
  }

  if (!json_path.empty()) {
    WriteJson(json_path, targets, reps, compute_rows);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace privrec

int main(int argc, char** argv) { return privrec::bench::Main(argc, argv); }
