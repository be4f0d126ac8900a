#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "graph/csr_graph.h"

namespace perfbench {

using privrec::CsrGraph;
using privrec::NodeId;

/// One workload's inputs. Every field comes from a flag; run.py fills them
/// from config.json, so the host never chooses a parameter.
struct WorkloadConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for durable state, span dumps and probe logs.
  std::string work_dir;

  // Graph: undirected Chung-Lu over SamplePowerLawDegreeWeights. The
  // graph and the hot set come from graph_seed, a fixed workload
  // parameter like the graph's size; `seed` drives the request stream.
  uint64_t graph_seed = 0;
  NodeId nodes = 0;
  double degree_exponent = 0;
  uint32_t max_degree = 0;

  // Service.
  double epsilon = 0;
  size_t list_k = 0;
  size_t shards = 0;
  size_t cache_capacity = 0;
  double per_user_budget = 0;
  /// Seconds of the schedule a traced run replays on a durable system
  /// (fsync'd WAL and ledger, checkpoints) to measure the persist layer;
  /// 0: none.
  double persist_replay_s = 0;
  double checkpoint_every_s = 0;
  /// Set only on that replay, never by a flag.
  bool durable = false;

  // Traffic: open-loop Poisson arrivals at `rate` ops/s over `workers`.
  int workers = 0;
  double rate = 0;
  double single_share = 0;
  double list_share = 0;
  double toggle_share = 0;
  /// "hot": Zipf(zipf_exponent) over a hot set of hot_users users, each
  /// served once before timing; "uniform": every node equally likely, and
  /// the whole cache filled with uniform users before timing.
  std::string users;
  size_t hot_users = 0;
  double zipf_exponent = 0;
  /// Share of toggles with an endpoint drawn from the hot set.
  double toggle_hot_share = 0;
};

privrec::Result<WorkloadConfig> ParseConfig(const privrec::FlagParser& flags);

/// Derives an independent 64-bit stream seed for one input of the run.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Key of the undirected pair {a, b}.
inline uint64_t PairKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

enum class OpKind : uint8_t { kSingle, kList, kToggle, kCheckpoint };

const char* OpKindName(OpKind kind);

/// One scheduled request. `due_ns` is the send time relative to the
/// start of the measured phase.
struct Op {
  int64_t due_ns = 0;
  OpKind kind = OpKind::kSingle;
  /// Toggles only: AddEdge when true, RemoveEdge otherwise.
  bool add = false;
  NodeId u = 0;
  NodeId v = 0;
};

CsrGraph GenerateGraph(const WorkloadConfig& config);

/// The hot working set: hot_users distinct nodes, in Zipf rank order.
std::vector<NodeId> HotSet(const WorkloadConfig& config);

/// The measured phase's requests, sorted by due time: exactly
/// round(rate * seconds) serve/toggle ops in the configured mix (arrival
/// times are the order statistics of a Poisson process with that many
/// arrivals), plus a checkpoint every checkpoint_every_s on durable
/// replays. Each toggled pair is toggled once, chosen against `graph`,
/// so no toggle can fail or race another.
std::vector<Op> BuildSchedule(const WorkloadConfig& config,
                              const CsrGraph& graph,
                              const std::vector<NodeId>& hot);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
