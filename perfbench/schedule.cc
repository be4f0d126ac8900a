#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <unordered_set>

#include "gen/generators.h"
#include "random/rng.h"

namespace perfbench {
namespace {

using privrec::Result;
using privrec::Rng;
using privrec::Status;

// Seed streams: each input of a run draws from its own stream, so adding
// an input never shifts another one.
constexpr uint64_t kGraphStream = 1;
constexpr uint64_t kHotStream = 2;
constexpr uint64_t kScheduleStream = 3;

/// Inverse-CDF sampler over ranks 0..n-1 with P(r) ∝ (r+1)^-s (s may be
/// below 1, unlike privrec::SampleZipf).
class ZipfRanks {
 public:
  ZipfRanks(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -s);
      cdf_[r] = total;
    }
  }
  size_t Sample(Rng& rng) const {
    const double x = rng.NextDouble() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  privrec::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.Next();
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSingle:
      return "single";
    case OpKind::kList:
      return "list";
    case OpKind::kToggle:
      return "toggle";
    case OpKind::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

Result<WorkloadConfig> ParseConfig(const privrec::FlagParser& flags) {
  static const char* const kRequired[] = {
      "workload",   "seed",         "seconds",         "work_dir",
      "graph_seed", "nodes",        "degree_exponent", "max_degree",
      "epsilon",    "list_k",       "shards",          "cache_capacity",
      "per_user_budget", "workers", "rate",            "single_share",
      "list_share", "toggle_share", "users"};
  for (const char* name : kRequired) {
    if (!flags.Has(name)) {
      return Status::InvalidArgument(std::string("missing flag --") + name);
    }
  }
  WorkloadConfig c;
  c.workload = flags.GetString("workload", "");
  c.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  c.seconds = flags.GetDouble("seconds", 10);
  c.trace = flags.GetInt("trace", 0) != 0;
  c.work_dir = flags.GetString("work_dir", "");
  c.graph_seed = static_cast<uint64_t>(flags.GetInt("graph_seed", 0));
  c.nodes = static_cast<NodeId>(flags.GetInt("nodes", 0));
  c.degree_exponent = flags.GetDouble("degree_exponent", 0);
  c.max_degree = static_cast<uint32_t>(flags.GetInt("max_degree", 0));
  c.epsilon = flags.GetDouble("epsilon", 0);
  c.list_k = static_cast<size_t>(flags.GetInt("list_k", 0));
  c.shards = static_cast<size_t>(flags.GetInt("shards", 0));
  c.cache_capacity = static_cast<size_t>(flags.GetInt("cache_capacity", 0));
  c.per_user_budget = flags.GetDouble("per_user_budget", 0);
  c.persist_replay_s = flags.GetDouble("persist_replay_s", 0);
  c.checkpoint_every_s = flags.GetDouble("checkpoint_every_s", 0);
  c.workers = static_cast<int>(flags.GetInt("workers", 0));
  c.rate = flags.GetDouble("rate", 0);
  c.single_share = flags.GetDouble("single_share", 0);
  c.list_share = flags.GetDouble("list_share", 0);
  c.toggle_share = flags.GetDouble("toggle_share", 0);
  c.users = flags.GetString("users", "");
  c.hot_users = static_cast<size_t>(flags.GetInt("hot_users", 0));
  c.zipf_exponent = flags.GetDouble("zipf_exponent", 0);
  c.toggle_hot_share = flags.GetDouble("toggle_hot_share", 0);

  if (c.seconds <= 0 || c.rate <= 0 || c.workers <= 0 || c.nodes < 2 ||
      c.list_k == 0 || c.shards == 0) {
    return Status::InvalidArgument(
        "seconds, rate, workers, nodes, list_k and shards must be positive");
  }
  if (std::abs(c.single_share + c.list_share + c.toggle_share - 1.0) > 1e-9) {
    return Status::InvalidArgument("op shares must sum to 1");
  }
  if (c.users != "hot" && c.users != "uniform") {
    return Status::InvalidArgument("--users must be hot or uniform");
  }
  if ((c.users == "hot" || c.toggle_hot_share > 0) &&
      (c.hot_users == 0 || c.hot_users > c.nodes)) {
    return Status::InvalidArgument("hot set size out of range");
  }
  if (c.persist_replay_s > 0 && c.checkpoint_every_s <= 0) {
    return Status::InvalidArgument(
        "a durable replay needs checkpoint_every_s > 0");
  }
  return c;
}

CsrGraph GenerateGraph(const WorkloadConfig& config) {
  Rng rng(StreamSeed(config.graph_seed, kGraphStream));
  const std::vector<double> weights = privrec::SamplePowerLawDegreeWeights(
      config.nodes, config.degree_exponent, config.max_degree, rng);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  auto graph = privrec::ChungLu(weights, weights,
                                static_cast<uint64_t>(std::llround(total / 2)),
                                /*directed=*/false, rng);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 graph.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*graph);
}

std::vector<NodeId> HotSet(const WorkloadConfig& config) {
  Rng rng(StreamSeed(config.graph_seed, kHotStream));
  std::vector<NodeId> hot;
  std::unordered_set<NodeId> seen;
  while (hot.size() < config.hot_users) {
    const NodeId v = static_cast<NodeId>(rng.NextBounded(config.nodes));
    if (seen.insert(v).second) hot.push_back(v);
  }
  return hot;
}

std::vector<Op> BuildSchedule(const WorkloadConfig& config,
                              const CsrGraph& graph,
                              const std::vector<NodeId>& hot) {
  Rng rng(StreamSeed(config.seed, kScheduleStream));
  const size_t n = static_cast<size_t>(std::llround(config.rate * config.seconds));
  const size_t toggles =
      static_cast<size_t>(std::llround(n * config.toggle_share));
  const size_t lists = static_cast<size_t>(std::llround(n * config.list_share));
  std::vector<OpKind> kinds(n, OpKind::kSingle);
  std::fill(kinds.begin(), kinds.begin() + toggles, OpKind::kToggle);
  std::fill(kinds.begin() + toggles, kinds.begin() + toggles + lists,
            OpKind::kList);
  for (size_t i = n; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.NextBounded(i)]);
  }

  std::vector<int64_t> due(n);
  const double span_ns = config.seconds * 1e9;
  for (int64_t& t : due) {
    t = static_cast<int64_t>(rng.NextDouble() * span_ns);
  }
  std::sort(due.begin(), due.end());

  const ZipfRanks zipf(std::max<size_t>(hot.size(), 1), config.zipf_exponent);
  auto hot_user = [&] { return hot[zipf.Sample(rng)]; };
  auto any_user = [&] {
    return static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
  };
  auto serve_user = [&] {
    return config.users == "hot" ? hot_user() : any_user();
  };

  // Alternate removals of existing edges with additions of new ones so
  // the edge count stays level; the hot-endpoint share is exact and spread
  // over the whole run.
  std::vector<bool> hot_toggle(toggles, false);
  std::fill(hot_toggle.begin(),
            hot_toggle.begin() + static_cast<size_t>(std::llround(
                                     toggles * config.toggle_hot_share)),
            true);
  for (size_t i = toggles; i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    const bool tmp = hot_toggle[i - 1];
    hot_toggle[i - 1] = hot_toggle[j];
    hot_toggle[j] = tmp;
  }
  std::unordered_set<uint64_t> toggled;
  size_t toggle_index = 0;
  auto next_toggle = [&](Op& op) {
    const bool remove = toggle_index % 2 == 0;
    const bool hot_endpoint = hot_toggle[toggle_index];
    ++toggle_index;
    for (;;) {
      const NodeId u = hot_endpoint ? hot_user() : any_user();
      NodeId v;
      if (remove) {
        const auto nbrs = graph.OutNeighbors(u);
        if (nbrs.empty()) continue;
        v = nbrs[rng.NextBounded(nbrs.size())];
      } else {
        v = any_user();
        if (v == u || graph.HasEdge(u, v)) continue;
      }
      if (!toggled.insert(PairKey(u, v)).second) continue;
      op.add = !remove;
      op.u = u;
      op.v = v;
      return;
    }
  };

  std::vector<Op> ops;
  ops.reserve(n + 64);
  for (size_t i = 0; i < n; ++i) {
    Op op;
    op.due_ns = due[i];
    op.kind = kinds[i];
    if (op.kind == OpKind::kToggle) {
      next_toggle(op);
    } else {
      op.u = serve_user();
    }
    ops.push_back(op);
  }
  if (config.durable) {
    for (double t = config.checkpoint_every_s; t < config.seconds;
         t += config.checkpoint_every_s) {
      Op op;
      op.due_ns = static_cast<int64_t>(t * 1e9);
      op.kind = OpKind::kCheckpoint;
      ops.push_back(op);
    }
    std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      return a.due_ns < b.due_ns;
    });
  }
  return ops;
}

}  // namespace perfbench
