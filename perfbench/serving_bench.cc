// Serving benchmark for RecommendationService: one workload per run, driven
// open-loop at a fixed Poisson rate from `workers` threads, every request
// timed from its scheduled send time. Prints human-readable lines, then one
// JSON object as the last line of stdout (see run.py for the flags).
//
//   --trace=0  end-to-end metrics from one untraced measured phase;
//   --trace=1  per-layer metrics: an untraced phase (the overhead baseline
//              and the graph counters), then a traced phase on a fresh
//              system, a durable traced replay of the schedule's start
//              (persist_replay_s > 0), probes of the core and persist
//              layers, and the pick-identity check of the tracing hooks.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "common/flags.h"
#include "common/statistics.h"
#include "core/exponential_mechanism.h"
#include "core/topk.h"
#include "graph/dynamic_graph.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "random/rng.h"
#include "schedule.h"
#include "serve/recommendation_service.h"
#include "trace.h"
#include "utility/common_neighbors.h"

namespace perfbench {
namespace {

using privrec::BudgetLedger;
using privrec::CommonNeighborsUtility;
using privrec::DynamicGraph;
using privrec::RecommendationService;
using privrec::Rng;
using privrec::ServiceOptions;
using privrec::ServiceStats;
using privrec::Status;
using privrec::UtilityVector;
using privrec::WriteAheadLog;

constexpr uint64_t kServiceStream = 4;
constexpr uint64_t kWarmStream = 5;
constexpr uint64_t kProbeStream = 6;

/// A p99 is reported only with at least ten samples beyond it.
constexpr size_t kMinTailSamples = 1000;
/// End-to-end figures are medians over up to this many consecutive slices
/// of the measured phase, so one burst of host interference moves one
/// slice, not the figure.
constexpr size_t kMaxSegments = 5;
/// Ops replayed single-threaded for the pick-identity check.
constexpr size_t kIdentityPrefix = 500;
/// Users sampled (traffic-weighted) for the core-layer probes.
constexpr size_t kProbeUsers = 200;
constexpr size_t kProbeDraws = 256;
/// Appends timed per persist probe.
constexpr size_t kProbeAppends = 200;
/// setup_s is the median of this many complete set-ups per run.
constexpr int kSetupReps = 3;
/// Lead time between creating the workers and the first due time.
constexpr int64_t kStartLeadNs = 5'000'000;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "serving_bench: %s\n", message.c_str());
  std::exit(2);
}

void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// privrec::Percentile at quantile q; 0 for an empty sample, so a layer
/// the workload never enters reports 0.
double Quantile(std::vector<double> values, double q) {
  return values.empty() ? 0 : privrec::Percentile(std::move(values), 100 * q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------------ host

struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t value = 0;
    in >> value;
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& dir, const std::string& suffix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

// ---------------------------------------------------------------- system

ServiceOptions MakeOptions(const WorkloadConfig& c) {
  ServiceOptions options;
  options.release_epsilon = c.epsilon;
  options.per_user_budget = c.per_user_budget;
  options.cache_capacity = c.cache_capacity;
  options.num_shards = c.shards;
  options.seed = StreamSeed(c.seed, kServiceStream);
  return options;
}

privrec::WalOptions MakeWalOptions() {
  privrec::WalOptions options;
  options.group_commit_records = 1;
  return options;
}

/// The system under test. Members are destroyed in reverse order, so the
/// service goes before the logs and the graph it points into.
struct System {
  std::unique_ptr<DynamicGraph> graph;
  std::unique_ptr<WriteAheadLog> wal;
  std::unique_ptr<BudgetLedger> ledger;
  std::unique_ptr<RecommendationService> service;
  /// Durable state root (wal/, ledger/, ckpt/); empty when memory-only.
  std::string dir;
};

struct SetupTimes {
  double graph_s = 0;
  double import_s = 0;
  double build_s = 0;
  double warm_s = 0;
  double total() const { return graph_s + import_s + build_s + warm_s; }
};

/// Imports `base`, builds the service (durable: fresh WAL and ledger under
/// `dir` plus the genesis checkpoint recovery starts from) and warms the
/// cache through the budget-neutral audit path.
System BuildSystem(const WorkloadConfig& c, const CsrGraph& base,
                   const std::vector<NodeId>& hot, bool traced,
                   const std::string& dir, SetupTimes& times) {
  System sys;
  int64_t t = NowNs();
  sys.graph = std::make_unique<DynamicGraph>(base);
  times.import_s = Seconds(NowNs() - t);

  t = NowNs();
  ServiceOptions options = MakeOptions(c);
  if (c.durable) {
    sys.dir = dir;
    std::filesystem::remove_all(dir);
    auto wal = WriteAheadLog::Open(dir + "/wal", MakeWalOptions());
    CheckOk(wal.status(), "open WAL");
    auto ledger = BudgetLedger::Open(dir + "/ledger");
    CheckOk(ledger.status(), "open ledger");
    sys.wal = std::move(*wal);
    sys.ledger = std::move(*ledger);
    options.wal = sys.wal.get();
    options.budget_ledger = sys.ledger.get();
  }
  std::unique_ptr<privrec::UtilityFunction> utility =
      std::make_unique<CommonNeighborsUtility>();
  if (traced) utility = MakeTracingUtility(std::move(utility));
  sys.service = std::make_unique<RecommendationService>(
      sys.graph.get(), std::move(utility), options);
  if (c.durable) {
    CheckOk(sys.service->SaveCheckpoint(dir + "/ckpt"), "genesis checkpoint");
  }
  times.build_s = Seconds(NowNs() - t);

  t = NowNs();
  Rng rng(StreamSeed(c.seed, kWarmStream));
  if (c.users == "hot") {
    for (NodeId user : hot) {
      CheckOk(sys.service->ServeForAudit(user, rng).status(), "warm-up");
    }
  } else {
    for (size_t i = 0; i < c.cache_capacity; ++i) {
      const NodeId user = static_cast<NodeId>(rng.NextBounded(base.num_nodes()));
      CheckOk(sys.service->ServeForAudit(user, rng).status(), "cache fill");
    }
  }
  times.warm_s = Seconds(NowNs() - t);
  return sys;
}

// ---------------------------------------------------------------- phase

struct GraphCounters {
  uint64_t publications = 0;
  uint64_t patches = 0;
};

GraphCounters ReadGraphCounters(const DynamicGraph& graph) {
  GraphCounters g;
  g.patches = graph.snapshot_patches();
  g.publications = graph.snapshot_builds() + g.patches;
  return g;
}

struct Phase {
  std::vector<OpResult> results;
  std::vector<NodeId> list_picks;
  ServiceStats before;
  ServiceStats after;
  GraphCounters graph_before;
  GraphCounters graph_after;
  uint64_t wal_records = 0;
  uint64_t checkpoint_bytes = 0;
  double steal_share = 0;
  int64_t origin_ns = 0;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
};

bool Execute(const WorkloadConfig& c, System& sys, const Op& op, bool traced,
             OpResult& result, NodeId* list_out) {
  switch (op.kind) {
    case OpKind::kSingle: {
      ScopedSpan span(SpanName::kServeSingle);
      auto r = sys.service->ServeRecommendation(op.u);
      if (!r.ok()) return false;
      result.pick = *r;
      return true;
    }
    case OpKind::kList: {
      ScopedSpan span(SpanName::kServeList);
      auto r = sys.service->ServeList(op.u, c.list_k);
      if (!r.ok() || r->picks.size() != c.list_k) return false;
      for (size_t j = 0; j < c.list_k; ++j) list_out[j] = r->picks[j].node;
      return true;
    }
    case OpKind::kToggle: {
      Status status;
      {
        ScopedSpan span(SpanName::kGraphToggle);
        status = op.add ? sys.service->AddEdge(op.u, op.v)
                        : sys.service->RemoveEdge(op.u, op.v);
      }
      if (traced) {
        // Publication as its own span: the traced run materializes the
        // snapshot right after the toggle instead of on the next reader.
        ScopedSpan span(SpanName::kGraphPublish);
        sys.graph->VersionedSnapshot();
      }
      return status.ok();
    }
    case OpKind::kCheckpoint: {
      ScopedSpan span(SpanName::kPersistCheckpoint);
      return sys.service->SaveCheckpoint(sys.dir + "/ckpt").ok();
    }
  }
  return false;
}

Phase RunPhase(const WorkloadConfig& c, System& sys, const std::vector<Op>& ops,
               bool traced) {
  Phase p;
  p.results.resize(ops.size());
  p.list_picks.resize(ops.size() * c.list_k);
  p.before = sys.service->stats();
  p.graph_before = ReadGraphCounters(*sys.graph);
  const uint64_t wal_seq = sys.wal ? sys.wal->next_seq() : 0;
  const uint64_t ckpt_bytes = c.durable ? FileBytes(sys.dir + "/ckpt", ".prvg") : 0;
  if (traced) {
    for (int w = 0; w < c.workers; ++w) {
      p.buffers.push_back(std::make_unique<SpanBuffer>());
      p.buffers.back()->spans.reserve(ops.size() * 8 / c.workers + 1024);
    }
  }
  const CpuTimes cpu_before = ReadCpuTimes();
  std::atomic<size_t> next{0};
  p.origin_ns = NowNs() + kStartLeadNs;
  auto worker = [&](int w) {
    SetThreadSpanBuffer(traced ? p.buffers[w].get() : nullptr);
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ops.size()) break;
      OpResult& r = p.results[i];
      r.due_ns = p.origin_ns + ops[i].due_ns;
      // Spin, not sleep, into the due time: timer slack and the wake-up of
      // an idle virtual CPU are not service latency.
      while (NowNs() < r.due_ns) CpuRelax();
      SetThreadRequest(static_cast<int64_t>(i));
      const int64_t cpu = ThreadCpuNs();
      r.start_ns = NowNs();
      r.ok = Execute(c, sys, ops[i], traced, r, &p.list_picks[i * c.list_k]);
      r.end_ns = NowNs();
      r.cpu_ns = ThreadCpuNs() - cpu;
    }
    SetThreadSpanBuffer(nullptr);
  };
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < c.workers; ++w) threads.emplace_back(worker, w);
  }
  const CpuTimes cpu_after = ReadCpuTimes();
  p.steal_share = Ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
                        static_cast<double>(cpu_after.total - cpu_before.total));
  p.after = sys.service->stats();
  p.graph_after = ReadGraphCounters(*sys.graph);
  if (sys.wal) p.wal_records = sys.wal->next_seq() - wal_seq;
  if (c.durable) {
    p.checkpoint_bytes = FileBytes(sys.dir + "/ckpt", ".prvg") - ckpt_bytes;
  }
  return p;
}

/// Per-op-kind latency (due -> end), service time (start -> end) and wait
/// (due -> start) samples in µs, plus CPU totals.
struct Timings {
  std::map<OpKind, std::vector<double>> latency_us;
  std::map<OpKind, std::vector<double>> svc_us;
  std::vector<double> serve_wait_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  double cpu_s = 0;
  /// CPU seconds per executed op, in due order.
  std::vector<double> cpu_per_op_s;
};

/// The samples of one op kind (empty when the mix has none).
const std::vector<double>& Of(const std::map<OpKind, std::vector<double>>& m,
                              OpKind kind) {
  static const std::vector<double> kNone;
  auto it = m.find(kind);
  return it == m.end() ? kNone : it->second;
}

Timings Collect(const std::vector<Op>& ops, const Phase& p) {
  Timings t;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpResult& r = p.results[i];
    ++t.attempted;
    t.cpu_s += Seconds(r.cpu_ns);
    t.cpu_per_op_s.push_back(Seconds(r.cpu_ns));
    if (!r.ok) {
      ++t.failed;
      continue;
    }
    ++t.completed;
    t.latency_us[ops[i].kind].push_back((r.end_ns - r.due_ns) / 1e3);
    t.svc_us[ops[i].kind].push_back((r.end_ns - r.start_ns) / 1e3);
    if (ops[i].kind == OpKind::kSingle || ops[i].kind == OpKind::kList) {
      t.serve_wait_us.push_back((r.start_ns - r.due_ns) / 1e3);
    }
  }
  return t;
}

/// Median, over consecutive equal slices of `samples` (due order), of
/// `statistic` on each slice: as many slices as hold `per_segment` samples
/// each, at least one and at most kMaxSegments. Dies below `min_total`
/// samples.
template <typename Statistic>
double SegmentMedian(const std::vector<double>& samples, size_t per_segment,
                     size_t min_total, const char* what, Statistic statistic) {
  if (samples.size() < min_total) {
    Die(std::string("only ") + std::to_string(samples.size()) + " " + what +
        " samples; need " + std::to_string(min_total) +
        " (raise --seconds or the rate)");
  }
  const size_t segments =
      std::clamp<size_t>(samples.size() / per_segment, 1, kMaxSegments);
  std::vector<double> values;
  for (size_t s = 0; s < segments; ++s) {
    values.emplace_back(statistic(std::vector<double>(
        samples.begin() + samples.size() * s / segments,
        samples.begin() + samples.size() * (s + 1) / segments)));
  }
  return Median(values);
}

/// Slice size for medians and p90s: enough for a precise slice figure.
constexpr size_t kBodySegment = 500;
/// Fewest samples a median or p90 is reported from.
constexpr size_t kMinBodySamples = 100;

double SegmentQuantile(const std::vector<double>& samples, double q,
                       const char* what) {
  return SegmentMedian(samples, kBodySegment, kMinBodySamples, what,
                       [q](std::vector<double> v) {
                         return Quantile(std::move(v), q);
                       });
}

/// Every p99 slice holds kMinTailSamples, so ten samples lie beyond it.
double SegmentP99(const std::vector<double>& samples, const char* what) {
  return SegmentMedian(samples, kMinTailSamples, kMinTailSamples, what,
                       [](std::vector<double> v) {
                         return Quantile(std::move(v), 0.99);
                       });
}

/// Executed ops per CPU-second the workers spent inside service calls.
double OpsPerCpuSecond(const Timings& t) {
  return SegmentMedian(t.cpu_per_op_s, kBodySegment, kMinBodySamples, "op",
                       [](const std::vector<double>& v) {
                         double cpu = 0;
                         for (double x : v) cpu += x;
                         return Ratio(static_cast<double>(v.size()), cpu);
                       });
}

// ---------------------------------------------------------------- checks

std::vector<NodeId> ServedUsers(const std::vector<Op>& ops) {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> users;
  for (const Op& op : ops) {
    if ((op.kind == OpKind::kSingle || op.kind == OpKind::kList) &&
        seen.insert(op.u).second) {
      users.push_back(op.u);
    }
  }
  return users;
}

/// Σ per-user spend == ε · serves (no serve runs degraded: there is no
/// budget window), and the service served exactly the ops that succeeded.
void CheckSpend(const WorkloadConfig& c, const RecommendationService& service,
                const std::vector<Op>& ops, const Phase& p,
                CheckReport& report) {
  double spent = 0;
  for (NodeId user : ServedUsers(ops)) {
    spent += c.per_user_budget - service.RemainingBudget(user);
  }
  const double served = static_cast<double>(p.after.served - p.before.served);
  const double degraded =
      static_cast<double>(p.after.degraded_serves - p.before.degraded_serves);
  const double expected = c.epsilon * served;
  uint64_t ok_serves = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (p.results[i].ok &&
        (ops[i].kind == OpKind::kSingle || ops[i].kind == OpKind::kList)) {
      ++ok_serves;
    }
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "budget: spent %.6f over %.0f serves (%.0f degraded), "
                "expected %.6f",
                spent, served, degraded, expected);
  report.notes.push_back(line);
  if (degraded > 0 ||
      std::abs(spent - expected) > 1e-6 * std::max(1.0, expected)) {
    report.Fail(line);
  }
  if (static_cast<double>(ok_serves) != served) {
    report.Fail("service counted " + std::to_string(static_cast<uint64_t>(served)) +
                " serves, the benchmark saw " + std::to_string(ok_serves));
  }
}

struct Recovery {
  double seconds = 0;
  uint64_t replayed = 0;
};

/// Closes the live logs, times recovery from disk (reopen WAL and ledger,
/// RecoverGraph, SpentByUser, ImportSpentBudgets into a fresh service) and
/// checks it against the live state: the graph must be Equal and the
/// ledger's per-user spend must equal the accountants'.
Recovery RecoverAndCheck(const WorkloadConfig& c, System& sys,
                         const std::vector<Op>& ops, CheckReport& report) {
  CheckOk(sys.wal->Sync(), "WAL sync");
  const std::shared_ptr<const CsrGraph> live = sys.graph->SharedSnapshot();
  std::unordered_map<NodeId, double> live_spent;
  for (NodeId user : ServedUsers(ops)) {
    const double spent = c.per_user_budget - sys.service->RemainingBudget(user);
    if (spent > 0) live_spent[user] = spent;
  }
  sys.service.reset();
  sys.graph->AttachWal(nullptr);
  sys.wal.reset();
  sys.ledger.reset();

  Recovery rec;
  const int64_t t = NowNs();
  auto wal = WriteAheadLog::Open(sys.dir + "/wal", MakeWalOptions());
  CheckOk(wal.status(), "reopen WAL");
  auto ledger = BudgetLedger::Open(sys.dir + "/ledger");
  CheckOk(ledger.status(), "reopen ledger");
  privrec::RecoveryReport recovery_report;
  auto graph = privrec::RecoverGraph(sys.dir + "/ckpt", **wal, &recovery_report);
  CheckOk(graph.status(), "RecoverGraph");
  const std::unordered_map<NodeId, double> spent = (*ledger)->SpentByUser();
  {
    RecommendationService service(graph->get(),
                                  std::make_unique<CommonNeighborsUtility>(),
                                  MakeOptions(c));
    service.ImportSpentBudgets(spent);
  }
  rec.seconds = Seconds(NowNs() - t);
  rec.replayed = recovery_report.replayed_records;

  if (!(*graph)->SharedSnapshot()->Equals(*live)) {
    report.Fail("recovered graph differs from the live snapshot");
  }
  size_t mismatched = spent.size() == live_spent.size() ? 0 : 1;
  for (const auto& [user, eps] : live_spent) {
    auto it = spent.find(user);
    if (it == spent.end() || std::abs(it->second - eps) > 1e-9) ++mismatched;
  }
  if (mismatched > 0) {
    report.Fail("recovered ledger spend differs from the accountants for " +
                std::to_string(mismatched) + " users");
  }
  report.notes.push_back("recovery: " + std::to_string(rec.replayed) +
                         " WAL records replayed, " +
                         std::to_string(spent.size()) + " ledger users");
  return rec;
}

/// FNV-1a digest of a single-threaded replay of the schedule's first
/// kIdentityPrefix serve/toggle ops on a fresh memory-only system, with or
/// without the tracing hooks (forwarding utility + publish calls).
uint64_t PrefixDigest(const WorkloadConfig& c, const CsrGraph& base,
                      const std::vector<Op>& ops, bool traced) {
  DynamicGraph graph(base);
  std::unique_ptr<privrec::UtilityFunction> utility =
      std::make_unique<CommonNeighborsUtility>();
  if (traced) utility = MakeTracingUtility(std::move(utility));
  RecommendationService service(&graph, std::move(utility), MakeOptions(c));
  SpanBuffer scratch;
  SetThreadSpanBuffer(traced ? &scratch : nullptr);
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&](uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (value >> (8 * b)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  size_t replayed = 0;
  for (size_t i = 0; i < ops.size() && replayed < kIdentityPrefix; ++i) {
    const Op& op = ops[i];
    SetThreadRequest(static_cast<int64_t>(i));
    switch (op.kind) {
      case OpKind::kSingle: {
        auto r = service.ServeRecommendation(op.u);
        mix(r.ok() ? *r : ~0ULL);
        break;
      }
      case OpKind::kList: {
        auto r = service.ServeList(op.u, c.list_k);
        if (!r.ok()) {
          mix(~0ULL);
          break;
        }
        for (const auto& pick : r->picks) mix(pick.node);
        break;
      }
      case OpKind::kToggle: {
        const Status s = op.add ? service.AddEdge(op.u, op.v)
                                : service.RemoveEdge(op.u, op.v);
        mix(s.ok());
        if (traced) graph.VersionedSnapshot();
        break;
      }
      case OpKind::kCheckpoint:
        continue;
    }
    ++replayed;
  }
  SetThreadSpanBuffer(nullptr);
  return digest;
}

// ---------------------------------------------------------------- probes

struct CoreProbe {
  double freeze_us = 0;
  double draw_us = 0;
  double resolve_us = 0;
  double peel_us = 0;
  double support_mean = 0;
};

/// Times the core layer's public functions on utility vectors of users
/// sampled from the run's own serve traffic.
CoreProbe ProbeCore(const WorkloadConfig& c, const CsrGraph& view,
                    double sensitivity, const std::vector<Op>& ops) {
  std::vector<NodeId> serve_users;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kSingle || op.kind == OpKind::kList) {
      serve_users.push_back(op.u);
    }
  }
  if (serve_users.empty()) Die("no serve ops to probe");
  Rng rng(StreamSeed(c.seed, kProbeStream));
  const CommonNeighborsUtility utility;
  const privrec::ExponentialMechanism mechanism(c.epsilon, sensitivity);
  privrec::UtilityWorkspace workspace;
  std::unordered_map<NodeId, UtilityVector> vectors;
  std::vector<double> freeze, draw, resolve, peel;
  double support = 0;
  uint64_t sink = 0;
  for (size_t s = 0; s < kProbeUsers; ++s) {
    const NodeId user = serve_users[rng.NextBounded(serve_users.size())];
    auto it = vectors.find(user);
    if (it == vectors.end()) {
      it = vectors.emplace(user, utility.Compute(view, user, workspace)).first;
    }
    const UtilityVector& vec = it->second;
    support += static_cast<double>(vec.nonzero().size());

    int64_t t = NowNs();
    auto sampler = mechanism.MakeSampler(vec);
    freeze.push_back((NowNs() - t) / 1e3);
    CheckOk(sampler.status(), "MakeSampler");

    t = NowNs();
    for (size_t d = 0; d < kProbeDraws; ++d) sink += sampler->Draw(rng).node;
    draw.push_back((NowNs() - t) / 1e3 / kProbeDraws);

    if (vec.num_zero() > 0) {
      t = NowNs();
      auto node = privrec::ResolveZeroUtilityNode(view, vec, rng);
      resolve.push_back((NowNs() - t) / 1e3);
      CheckOk(node.status(), "ResolveZeroUtilityNode");
      sink += *node;
    }

    t = NowNs();
    auto list = privrec::PeelingExponentialTopK(vec, c.list_k, c.epsilon,
                                                sensitivity, rng);
    peel.push_back((NowNs() - t) / 1e3);
    CheckOk(list.status(), "PeelingExponentialTopK");
    sink += list->picks.size();
  }
  if (sink == 0x5eed) std::fprintf(stderr, " ");  // keeps the draws live
  CoreProbe probe;
  probe.freeze_us = Median(freeze);
  probe.draw_us = Median(draw);
  probe.resolve_us = Median(resolve);
  probe.peel_us = Median(peel);
  probe.support_mean = support / kProbeUsers;
  return probe;
}

struct PersistProbe {
  double wal_append_us = 0;
  double ledger_append_us = 0;
};

/// Times WriteAheadLog::Append and BudgetLedger::AppendCharge (each
/// fsync'd) on scratch logs next to the run's durable state.
PersistProbe ProbePersist(const std::string& dir) {
  std::filesystem::remove_all(dir);
  PersistProbe probe;
  std::vector<double> wal_us, ledger_us;
  {
    auto wal = WriteAheadLog::Open(dir + "/wal", MakeWalOptions());
    CheckOk(wal.status(), "open probe WAL");
    for (size_t i = 0; i < kProbeAppends; ++i) {
      const int64_t t = NowNs();
      CheckOk((*wal)->Append(privrec::WalRecordKind::kAddEdge,
                             static_cast<uint32_t>(i),
                             static_cast<uint32_t>(i + 1))
                  .status(),
              "probe WAL append");
      wal_us.push_back((NowNs() - t) / 1e3);
    }
    auto ledger = BudgetLedger::Open(dir + "/ledger");
    CheckOk(ledger.status(), "open probe ledger");
    for (size_t i = 0; i < kProbeAppends; ++i) {
      const int64_t t = NowNs();
      CheckOk((*ledger)->AppendCharge(static_cast<NodeId>(i), 0.5),
              "probe ledger append");
      ledger_us.push_back((NowNs() - t) / 1e3);
    }
  }
  std::filesystem::remove_all(dir);
  probe.wal_append_us = Median(wal_us);
  probe.ledger_append_us = Median(ledger_us);
  return probe;
}

double CsrMb(const CsrGraph& g) {
  return (static_cast<double>(g.num_nodes() + 1) * sizeof(uint64_t) +
          static_cast<double>(g.num_arcs()) * sizeof(NodeId)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintHost(const Phase& p) {
  std::printf("host: nproc=%u cpu=\"%s\" steal_share=%.4f\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              p.steal_share);
}

/// A p99 as text, or "-" below kMinTailSamples samples.
std::string P99Text(const std::vector<double>& samples) {
  if (samples.size() < kMinTailSamples) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f us", Quantile(samples, 0.99));
  return buf;
}

void PrintTimings(const Timings& t) {
  for (const auto& [kind, samples] : t.latency_us) {
    std::printf("  %-10s n=%-6zu latency p50=%.1f us p99=%s  "
                "service p50=%.1f us\n",
                OpKindName(kind), samples.size(), Quantile(samples, 0.5),
                P99Text(samples).c_str(), Quantile(Of(t.svc_us, kind), 0.5));
  }
  std::printf("  generator lateness (due -> start) p50=%.1f us p99=%s\n",
              Quantile(t.serve_wait_us, 0.5),
              P99Text(t.serve_wait_us).c_str());
}

int Finish(const CheckReport& report, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics) {
  for (const std::string& note : report.notes) {
    std::printf("check: %s\n", note.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  PrintResult(report.ok(), attempted, failed, metrics);
  std::fflush(stdout);
  return report.ok() ? 0 : 1;
}

double SensitivityOf(const CsrGraph& graph) {
  return CommonNeighborsUtility().SensitivityBound(graph);
}

/// Checks every workload runs: pick validity, exact budget accounting,
/// the mechanism's distribution on a static graph, and recovery.
Recovery RunChecks(const WorkloadConfig& c, System& sys,
                   const std::vector<Op>& ops, const Phase& p,
                   CheckReport& report) {
  const std::shared_ptr<const CsrGraph> graph = sys.graph->SharedSnapshot();
  CheckPicks(c, ops, p.results, p.list_picks, *graph, report);
  CheckSpend(c, *sys.service, ops, p, report);
  if (c.toggle_share == 0) {
    CheckPickDistribution(ClassifySinglePicks(ops, p.results, *graph, c.epsilon,
                                              SensitivityOf(*graph)),
                          report);
  }
  return c.durable ? RecoverAndCheck(c, sys, ops, report) : Recovery{};
}

/// Persist-layer figures of a durable traced phase.
struct PersistFigures {
  double checkpoint_us = 0;
  double writes_per_op = 0;
  double bytes_per_op = 0;
  /// Persist-layer self time per completed op.
  double self_us = 0;
  Recovery recovery;
};

PersistFigures PersistOf(const std::vector<Op>& ops, const Phase& p,
                         const Recovery& recovery) {
  std::vector<const SpanBuffer*> buffers;
  for (const auto& buffer : p.buffers) buffers.push_back(buffer.get());
  const SpanSummary spans = Summarize(buffers);
  const uint64_t records =
      p.after.ledger_appends - p.before.ledger_appends + p.wal_records;
  const double checkpoints = static_cast<double>(
      std::count_if(ops.begin(), ops.end(),
                    [](const Op& op) { return op.kind == OpKind::kCheckpoint; }));
  const double done = static_cast<double>(std::count_if(
      p.results.begin(), p.results.end(), [](const OpResult& r) { return r.ok; }));
  PersistFigures f;
  f.checkpoint_us = Median(spans.durations_ns[static_cast<size_t>(
                        SpanName::kPersistCheckpoint)]) /
                    1e3;
  // WAL and ledger records are 32 bytes each; checkpoints add their files.
  f.writes_per_op = Ratio(static_cast<double>(records) + checkpoints, done);
  f.bytes_per_op = Ratio(32.0 * static_cast<double>(records) +
                             static_cast<double>(p.checkpoint_bytes),
                         done);
  f.self_us =
      Ratio(spans.self_ns[SpanLayer(SpanName::kPersistCheckpoint)] / 1e3, done);
  f.recovery = recovery;
  return f;
}

int RunUntraced(const WorkloadConfig& c) {
  std::vector<double> setup_s;
  CsrGraph base = CsrGraph::Empty(0, false);
  const std::vector<NodeId> hot = HotSet(c);
  // Set up kSetupReps times for a steady setup_s; the last one is measured.
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    SetupTimes times;
    const int64_t t = NowNs();
    base = GenerateGraph(c);
    times.graph_s = Seconds(NowNs() - t);
    sys = std::make_unique<System>(BuildSystem(
        c, base, hot, /*traced=*/false, c.work_dir + "/durable", times));
    setup_s.push_back(times.total());
    std::printf("setup %d: graph %.3f s, import %.3f s, build %.3f s, "
                "warm %.3f s\n",
                rep + 1, times.graph_s, times.import_s, times.build_s,
                times.warm_s);
  }
  std::printf("graph: %u nodes, %llu edges, max degree %u\n",
              base.num_nodes(),
              static_cast<unsigned long long>(base.num_edges()),
              base.MaxOutDegree());
  const std::vector<Op> ops = BuildSchedule(c, base, hot);
  const Phase p = RunPhase(c, *sys, ops, /*traced=*/false);
  const Timings t = Collect(ops, p);
  PrintHost(p);
  PrintTimings(t);

  CheckReport report;
  RunChecks(c, *sys, ops, p, report);

  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"serve_p90_us", SegmentQuantile(Of(t.latency_us, OpKind::kSingle), 0.9,
                                       "single"),
       "us"},
      {"ops_per_cpu_s", OpsPerCpuSecond(t), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  // Printed, not gated: the p50s and p99s spread too widely between runs
  // on a shared host (a p50 falls where the latency CDF is steepest, and
  // its short ops slow down most when the host does), and the rest exist
  // only for some op mixes.
  std::vector<Metric> extra = {
      {"serve_p50_us",
       SegmentQuantile(Of(t.latency_us, OpKind::kSingle), 0.5, "single"),
       "us"},
      {"list_p50_us",
       SegmentQuantile(Of(t.latency_us, OpKind::kList), 0.5, "list"), "us"}};
  // Only singles reach kMinTailSamples per run; lists and toggles get no
  // p99.
  extra.push_back(
      {"serve_p99_us", SegmentP99(Of(t.latency_us, OpKind::kSingle), "single"),
       "us"});
  if (const auto& toggles = Of(t.latency_us, OpKind::kToggle);
      !toggles.empty()) {
    extra.push_back(
        {"mutate_p50_us", SegmentQuantile(toggles, 0.5, "toggle"), "us"});
  }
  const ServiceStats& a = p.after;
  const ServiceStats& b = p.before;
  const double refused = static_cast<double>(
      (a.refused_budget - b.refused_budget) + (a.shed_overload - b.shed_overload));
  extra.push_back({"fail_share",
                   Ratio(static_cast<double>(t.failed) + refused, t.attempted),
                   "1"});
  PrintMetrics("end-to-end:", metrics);
  PrintMetrics("not gated:", extra);
  return Finish(report, t.attempted, t.failed, metrics);
}

int RunTraced(const WorkloadConfig& c) {
  const std::vector<NodeId> hot = HotSet(c);
  SetupTimes gen;
  int64_t t0 = NowNs();
  const CsrGraph base = GenerateGraph(c);
  gen.graph_s = Seconds(NowNs() - t0);
  const std::vector<Op> ops = BuildSchedule(c, base, hot);

  // Untraced baseline: tracing overhead and the publication counters of
  // the lazy-publication path the untraced run takes.
  double untraced_cpu_per_op = 0;
  GraphCounters graph_delta;
  {
    SetupTimes ignored;
    System sys = BuildSystem(c, base, hot, /*traced=*/false,
                             c.work_dir + "/durable", ignored);
    const Phase p = RunPhase(c, sys, ops, /*traced=*/false);
    const Timings t = Collect(ops, p);
    untraced_cpu_per_op = Ratio(t.cpu_s, t.completed);
    graph_delta.publications =
        p.graph_after.publications - p.graph_before.publications;
    graph_delta.patches = p.graph_after.patches - p.graph_before.patches;
  }

  System sys = BuildSystem(c, base, hot, /*traced=*/true,
                           c.work_dir + "/durable", gen);
  const Phase p = RunPhase(c, sys, ops, /*traced=*/true);
  const Timings t = Collect(ops, p);
  PrintHost(p);
  PrintTimings(t);
  std::vector<const SpanBuffer*> buffers;
  for (const auto& buffer : p.buffers) buffers.push_back(buffer.get());
  const SpanSummary spans = Summarize(buffers);
  const std::string span_path =
      c.work_dir + "/spans-" + c.workload + "-" + std::to_string(c.seed) + ".tsv";
  CheckOk(WriteSpans(span_path, buffers, p.origin_ns), "write spans");
  std::printf("spans: %s\n", span_path.c_str());

  const std::shared_ptr<const CsrGraph> graph = sys.graph->SharedSnapshot();
  const double sensitivity = SensitivityOf(*graph);
  const PickStats picks =
      ClassifySinglePicks(ops, p.results, *graph, c.epsilon, sensitivity);
  const CoreProbe core = ProbeCore(c, *graph, sensitivity, ops);

  CheckReport report;
  const ServiceStats a = p.after;
  const ServiceStats b = p.before;
  RunChecks(c, sys, ops, p, report);
  PersistFigures durable;
  if (c.persist_replay_s > 0) {
    // The persist layer is measured on a durable, traced replay of the
    // schedule's first persist_replay_s seconds.
    WorkloadConfig dc = c;
    dc.durable = true;
    dc.seconds = c.persist_replay_s;
    const std::vector<Op> replay_ops = BuildSchedule(dc, base, hot);
    SetupTimes ignored;
    System replay = BuildSystem(dc, base, hot, /*traced=*/true,
                                c.work_dir + "/durable", ignored);
    const Phase rp = RunPhase(dc, replay, replay_ops, /*traced=*/true);
    durable = PersistOf(replay_ops, rp,
                        RunChecks(dc, replay, replay_ops, rp, report));
  }
  const PersistProbe persist = c.persist_replay_s > 0
                                   ? ProbePersist(c.work_dir + "/probe")
                                   : PersistProbe{};

  const uint64_t plain_digest = PrefixDigest(c, base, ops, /*traced=*/false);
  const uint64_t traced_digest = PrefixDigest(c, base, ops, /*traced=*/true);
  report.notes.push_back("pick identity: digest " +
                         std::to_string(plain_digest) + " untraced, " +
                         std::to_string(traced_digest) + " traced");
  if (plain_digest != traced_digest) {
    report.Fail("tracing hooks changed the picks of the single-worker prefix");
  }

  auto span_median_us = [&](SpanName name) {
    return Median(spans.durations_ns[static_cast<size_t>(name)]) / 1e3;
  };
  const double ops_done = static_cast<double>(t.completed);
  const double toggles = static_cast<double>(
      std::count_if(ops.begin(), ops.end(),
                    [](const Op& op) { return op.kind == OpKind::kToggle; }));
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double misses = static_cast<double>(a.cache_misses - b.cache_misses);
  const double kept = static_cast<double>(a.delta_kept - b.delta_kept);
  const double patched = static_cast<double>(a.delta_patched - b.delta_patched);
  const double recomputed =
      static_cast<double>((a.delta_recomputed - b.delta_recomputed) +
                          (a.cache_invalidations - b.cache_invalidations));
  const double stale = kept + patched + recomputed;
  const double singles = static_cast<double>(Of(t.svc_us, OpKind::kSingle).size());
  const double traced_cpu_per_op = Ratio(t.cpu_s, ops_done);

  std::vector<Metric> metrics = {
      {"serve.svc_p50_us", Quantile(Of(t.svc_us, OpKind::kSingle), 0.5), "us"},
      {"serve.svc_p99_us", SegmentP99(Of(t.svc_us, OpKind::kSingle), "single"),
       "us"},
      {"serve.list_svc_p50_us", Quantile(Of(t.svc_us, OpKind::kList), 0.5), "us"},
      {"serve.wait_p99_us", SegmentP99(t.serve_wait_us, "serve wait"), "us"},
      {"serve.hit_ratio", Ratio(hits, hits + misses), "1"},
      {"serve.sampler_reuse_ratio",
       Ratio(static_cast<double>(a.sampler_reuses - b.sampler_reuses), singles),
       "1"},
      {"core.zero_pick_share", Ratio(picks.zero_picks, picks.picks), "1"},
      {"core.resolve_us", core.resolve_us, "us"},
      {"core.draw_us", core.draw_us, "us"},
      {"core.peel_us", core.peel_us, "us"},
      {"core.freeze_us", core.freeze_us, "us"},
      {"core.support_mean", core.support_mean, "count"},
      {"utility.compute_us", span_median_us(SpanName::kUtilityCompute), "us"},
      {"utility.compute_calls",
       static_cast<double>(
           spans.durations_ns[static_cast<size_t>(SpanName::kUtilityCompute)]
               .size()),
       "count"},
      {"utility.patch_us", span_median_us(SpanName::kUtilityPatch), "us"},
      {"utility.patch_batch_us", span_median_us(SpanName::kUtilityPatchBatch),
       "us"},
      {"utility.keep_ratio", Ratio(kept, stale), "1"},
      {"utility.recompute_ratio", Ratio(recomputed, stale), "1"},
      {"utility.affects_us", span_median_us(SpanName::kUtilityAffects), "us"},
      {"utility.filter_us", span_median_us(SpanName::kUtilityFilter), "us"},
      {"utility.filter_keep_ratio",
       Ratio(static_cast<double>(spans.filter_out),
             static_cast<double>(spans.filter_in)),
       "1"},
      {"utility.sensitivity_us", span_median_us(SpanName::kUtilitySensitivity),
       "us"},
      {"graph.publish_us", span_median_us(SpanName::kGraphPublish), "us"},
      {"graph.publishes_per_toggle",
       Ratio(static_cast<double>(graph_delta.publications), toggles), "1"},
      {"graph.patch_share",
       Ratio(static_cast<double>(graph_delta.patches),
             static_cast<double>(graph_delta.publications)),
       "1"},
      {"graph.csr_mb", CsrMb(*graph), "MiB"},
      {"graph.mutate_svc_p50_us", span_median_us(SpanName::kGraphToggle), "us"},
      {"persist.ledger_append_us", persist.ledger_append_us, "us"},
      {"persist.wal_append_us", persist.wal_append_us, "us"},
      {"persist.durable_writes_per_op", durable.writes_per_op, "1"},
      {"persist.bytes_per_op", durable.bytes_per_op, "B"},
      {"persist.checkpoint_us", durable.checkpoint_us, "us"},
      {"persist.replayed_records",
       static_cast<double>(durable.recovery.replayed), "count"},
      {"persist.recover_s", durable.recovery.seconds, "s"},
      {"gen.graph_s", gen.graph_s, "s"},
      {"gen.import_s", gen.import_s, "s"},
      {"gen.warm_s", gen.warm_s, "s"},
  };
  // The persist layer works only in the durable replay, so its self time
  // is per replayed op.
  const size_t persist_layer = SpanLayer(SpanName::kPersistCheckpoint);
  for (size_t l = 0; l < kLayers.size(); ++l) {
    metrics.push_back({std::string("self.") + kLayers[l] + "_us",
                       l == persist_layer
                           ? durable.self_us
                           : Ratio(spans.self_ns[l] / 1e3, ops_done),
                       "us"});
  }
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (Ratio(traced_cpu_per_op, untraced_cpu_per_op) - 1),
                     "%"});
  PrintMetrics("per-layer:", metrics);
  return Finish(report, t.attempted, t.failed, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  privrec::FlagParser flags;
  perfbench::CheckOk(flags.Parse(argc, argv), "flags");
  auto config = perfbench::ParseConfig(flags);
  perfbench::CheckOk(config.status(), "config");
  std::filesystem::create_directories(config->work_dir);
  return config->trace ? perfbench::RunTraced(*config)
                       : perfbench::RunUntraced(*config);
}
