#include "eval/service_auditor.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/statistics.h"
#include "graph/dynamic_graph.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serve/concurrent_driver.h"
#include "serve/recommendation_service.h"

namespace privrec {
namespace {

/// The four static serve paths AuditPair drives (described at its
/// declaration). Each is the REAL production path; the auditor only
/// arranges the service state before sampling. The values double as the
/// paths' DeriveSeed stream ids.
enum class ServeAuditPath {
  kCold = 0,
  kCacheHit = 1,
  kPostMutation = 2,
  kMultiShard = 3,
};

constexpr ServeAuditPath kAllServeAuditPaths[] = {
    ServeAuditPath::kCold, ServeAuditPath::kCacheHit,
    ServeAuditPath::kPostMutation, ServeAuditPath::kMultiShard};

/// The names used in DpAuditResult::per_path.
const char* ServeAuditPathName(ServeAuditPath path) {
  switch (path) {
    case ServeAuditPath::kCold:
      return "cold";
    case ServeAuditPath::kCacheHit:
      return "cache_hit";
    case ServeAuditPath::kPostMutation:
      return "post_mutation";
    case ServeAuditPath::kMultiShard:
      return "multi_shard";
  }
  return "unknown";
}

/// Shard count of the multi_shard path (every other static path runs one
/// shard so its state machine is deterministic).
constexpr size_t kMultiShardCount = 8;

/// DeriveSeed stream ids of the schedule audits (0–3 are the static
/// paths). Sides 0/1 are the measurement streams; the under-mutation
/// audit's mirrored mutator draws from side 2; the across-recovery streams
/// span the crash boundary (the recovered half continues where the
/// pre-crash half stopped, identically on both sides).
constexpr uint64_t kMutationPathId = 4;
constexpr uint64_t kFaultPathId = 5;
constexpr uint64_t kRecoveryPathId = 6;

uint64_t DeriveSeed(uint64_t root, uint64_t path, uint64_t side) {
  SplitMix64 mixer(root ^ (path * 0x9e3779b97f4a7c15ULL));
  mixer.Next();
  for (uint64_t i = 0; i <= side; ++i) mixer.Next();
  return mixer.Next() ^ (side + 1);
}

/// One identical mutation slot on both sides of a pair.
struct CommonToggle {
  NodeId a = 0;
  NodeId b = 0;
  bool present = false;  // present in both sides => toggle is a removal
};

bool SameUnorderedEdge(NodeId a, NodeId b, NodeId u, NodeId v) {
  return (a == u && b == v) || (a == v && b == u);
}

/// Picks an edge slot (a, b) whose state matches on both sides, is not
/// incident to the target, and is not the pair's differing edge — so
/// toggling it on BOTH services keeps the graphs neighbors. Prefers a in
/// N(target): that lands inside the target's 2-hop influence set, forcing
/// the recompute + re-freeze machinery (a mutation outside the influence
/// set would only exercise the kept-entry path and the ratchet).
std::optional<CommonToggle> ChooseCommonToggle(const NeighboringPair& pair,
                                               NodeId target) {
  const CsrGraph& base = pair.base;
  const CsrGraph& nb = pair.neighbor;
  const NodeId n = base.num_nodes();
  auto eligible = [&](NodeId a, NodeId b) -> std::optional<CommonToggle> {
    if (a == b || a == target || b == target) return std::nullopt;
    if (pair.kind != NeighboringPair::Kind::kNodeRewired &&
        SameUnorderedEdge(a, b, pair.u, pair.v)) {
      return std::nullopt;
    }
    const bool in_base = base.HasEdge(a, b);
    if (in_base != nb.HasEdge(a, b)) return std::nullopt;
    if (!base.directed() && in_base != nb.HasEdge(b, a)) return std::nullopt;
    return CommonToggle{a, b, in_base};
  };
  for (NodeId a : base.OutNeighbors(target)) {
    for (NodeId b = 0; b < n; ++b) {
      if (auto toggle = eligible(a, b)) return toggle;
    }
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (auto toggle = eligible(a, b)) return toggle;
    }
  }
  return std::nullopt;
}

/// The one place audit-side ServiceOptions are built: every audit must
/// configure the audited services identically — privacy model, degree
/// cap, and the uncap_projection trip-wire included — or it would measure
/// a service nobody deploys.
ServiceOptions MakeAuditServiceOptions(const ServiceAuditOptions& options,
                                       size_t num_shards) {
  ServiceOptions service_options;
  service_options.release_epsilon = options.release_epsilon;
  service_options.per_user_budget = options.release_epsilon;
  service_options.num_shards = num_shards;
  service_options.seed = options.seed;
  service_options.privacy_model = options.privacy_model;
  service_options.degree_cap = options.degree_cap;
  service_options.uncap_projection = options.uncap_projection;
  return service_options;
}

PathEpsilonEstimate ToPathEstimate(const std::string& path_name,
                                   uint64_t trials,
                                   const EpsilonCellEstimate& cells) {
  PathEpsilonEstimate estimate;
  estimate.path = path_name;
  estimate.trials_per_side = trials;
  estimate.epsilon_hat = cells.epsilon_hat;
  estimate.epsilon_lower_bound = cells.epsilon_lower_bound;
  // Single-shape cell ids carry the outcome in their low 32 bits; list
  // cells carry (position | item) or a sequence hash, whose low 32 bits
  // are the item for marginal cells.
  estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
  estimate.worst_z = cells.worst_z;
  estimate.bonferroni_cells = cells.bonferroni_cells;
  return estimate;
}

/// The engine under every audit: the same service stack built the same
/// way on the two graphs of a NeighboringPair, driven by the same calls,
/// with every trial recorded under a public schedule key — 0 on the static
/// paths, the round under mutation, the toggle parity under faults and
/// across recovery. Cells are keyed by (key, outcome), not outcome alone:
/// the key is public (the auditor controls the schedule), and at equal key
/// the two sides sit in neighboring states, so every cell of an honest
/// service is e^ε-bounded even when the graph state moves between trials.
/// Pooling keys instead would average the per-state ratios, hiding a leak
/// that peaks in some states behind the states where it does not.
class MirroredPair {
 public:
  struct Side {
    // Declared so that teardown runs service, graph, persist, injector:
    // services reference graphs, graphs reference WALs and injectors.
    FaultInjector injector;
    std::unique_ptr<WriteAheadLog> wal;
    std::unique_ptr<BudgetLedger> ledger;
    std::unique_ptr<DynamicGraph> graph;
    /// Null on the cold path: every trial then builds a fresh service.
    std::unique_ptr<RecommendationService> service;
    Rng rng{0};
    /// Durable state (WAL, ledger, checkpoints); empty for in-memory sides.
    std::string state_dir;
    /// Single shape: ((key + 1) << 32) | outcome -> count.
    OutcomeCellCounts cells;
    /// List shape: one reduction per key.
    std::map<uint64_t, ListOutcomeReduction> lists;
  };

  /// Checks the pair, then builds both sides' graphs (`journal_capacity`
  /// 0 keeps the DynamicGraph default) and measurement streams.
  static Result<std::unique_ptr<MirroredPair>> Create(
      const ServiceAuditor::UtilityFactory& factory,
      const ServiceAuditOptions& options, const NeighboringPair& pair,
      NodeId target, uint64_t stream, ServiceOptions service_options,
      size_t journal_capacity) {
    if (pair.base.num_nodes() != pair.neighbor.num_nodes() ||
        pair.base.directed() != pair.neighbor.directed()) {
      return Status::InvalidArgument(
          "pair sides disagree on node count or direction");
    }
    if (target >= pair.base.num_nodes()) {
      return Status::InvalidArgument("target out of range");
    }
    std::unique_ptr<MirroredPair> sides(new MirroredPair(
        factory, options, pair, target, std::move(service_options)));
    for (int s = 0; s < 2; ++s) {
      Side& side = sides->sides_[s];
      side.graph = std::make_unique<DynamicGraph>(s == 0 ? pair.base
                                                         : pair.neighbor);
      if (journal_capacity > 0) {
        side.graph->SetJournalCapacity(journal_capacity);
      }
      side.rng = Rng(DeriveSeed(options.seed, stream, s));
    }
    return sides;
  }

  Side& side(int s) { return sides_[s]; }

  /// Builds each side's service on its graph, wired to that side's
  /// injector (disarmed until a schedule installs a plan) and to its WAL
  /// and ledger when open.
  void BuildServices() {
    for (Side& side : sides_) {
      ServiceOptions service_options = service_options_;
      service_options.fault_injector = &side.injector;
      service_options.wal = side.wal.get();
      service_options.budget_ledger = side.ledger.get();
      side.service = std::make_unique<RecommendationService>(
          side.graph.get(), factory_(), service_options);
    }
  }

  /// One discarded serve of the configured shape per side, so the trials
  /// that follow sit on the cached-entry path.
  Status Warmup() {
    for (Side& side : sides_) {
      const Status warm =
          options_.shape == ServeAuditShape::kSingle
              ? side.service->ServeForAudit(target_, side.rng).status()
              : side.service
                    ->ServeListForAudit(target_, options_.list_k, side.rng)
                    .status();
      PRIVREC_RETURN_NOT_OK(warm);
    }
    return Status::OK();
  }

  /// Runs `step(side)` on the base side, then on the neighbor side. Both
  /// take the same call in mirrored states, so their ok-ness must agree:
  /// Internal when it does not. When both fail, the base side's error is
  /// returned — or, with `shared_failure` set, stored there and OK
  /// returned, for steps whose shared failure is part of the schedule.
  template <typename Step>
  Status Mirrored(const char* what, Step&& step,
                  Status* shared_failure = nullptr) {
    const Status base = step(sides_[0]);
    const Status neighbor = step(sides_[1]);
    if (base.ok() != neighbor.ok()) {
      return Status::Internal(std::string("mirrored ") + what +
                              " diverged: '" + base.message() + "' vs '" +
                              neighbor.message() + "'");
    }
    if (shared_failure == nullptr) return base;
    *shared_failure = base;
    return Status::OK();
  }

  /// Picks the common edge slot the toggle schedule flips.
  Status ChooseToggle(const std::string& schedule) {
    toggle_ = ChooseCommonToggle(pair_, target_);
    if (!toggle_.has_value()) {
      return Status::FailedPrecondition(
          "no common edge slot available for the " + schedule);
    }
    present_ = toggle_->present;
    return Status::OK();
  }

  /// Toggles the common slot on both sides (a mirrored call; see Mirrored
  /// for `rejected`). The slot's state flips only when both succeed.
  Status ToggleCommonSlot(Status* rejected = nullptr) {
    PRIVREC_CHECK(toggle_.has_value());
    PRIVREC_RETURN_NOT_OK(Mirrored(
        "toggles",
        [&](Side& side) {
          return present_ ? side.service->RemoveEdge(toggle_->a, toggle_->b)
                          : side.service->AddEdge(toggle_->a, toggle_->b);
        },
        rejected));
    if (rejected == nullptr || rejected->ok()) present_ = !present_;
    return Status::OK();
  }

  const std::optional<CommonToggle>& toggle() const { return toggle_; }
  bool present() const { return present_; }
  /// The toggle schedule's parity key: the graph state cycles with period
  /// 2, and at equal parity the two sides are neighbors.
  uint64_t parity() const {
    return toggle_.has_value() && present_ != toggle_->present ? 1 : 0;
  }

  void InstallPlan(const FaultPlan& plan) {
    for (Side& side : sides_) side.injector.Install(plan);
  }

  /// The determinism contract made observable: mirrored plans driven by
  /// mirrored call sequences fire identically.
  void CheckFiresMirrored() const {
    PRIVREC_CHECK_EQ(sides_[0].injector.total_fires(),
                     sides_[1].injector.total_fires());
  }

  /// One trial of the configured shape on each side, recorded under `key`.
  Status RecordTrial(uint64_t key) {
    for (Side& side : sides_) {
      std::unique_ptr<RecommendationService> fresh;
      RecommendationService* service = side.service.get();
      if (service == nullptr) {
        fresh = std::make_unique<RecommendationService>(
            side.graph.get(), factory_(), service_options_);
        service = fresh.get();
      }
      if (options_.shape == ServeAuditShape::kSingle) {
        PRIVREC_ASSIGN_OR_RETURN(NodeId outcome,
                                 service->ServeForAudit(target_, side.rng));
        ++side.cells[((key + 1) << 32) | static_cast<uint64_t>(outcome)];
        continue;
      }
      PRIVREC_ASSIGN_OR_RETURN(
          TopKResult list,
          service->ServeListForAudit(target_, options_.list_k, side.rng));
      std::vector<uint32_t> items;
      items.reserve(list.picks.size());
      for (const Recommendation& pick : list.picks) {
        items.push_back(static_cast<uint32_t>(pick.node));
      }
      side.lists[key].AddList(items);
    }
    ++trials_;
    return Status::OK();
  }

  /// The estimate over every recorded trial. The single shape tests the
  /// (key, outcome) cells; the list shape estimates each key's reduction
  /// at one Bonferroni count shared by all keys and keeps the worst.
  PathEpsilonEstimate Estimate(const std::string& path_name,
                               double confidence) const {
    const size_t override_cells = options_.bonferroni_cells_override;
    if (options_.shape == ServeAuditShape::kSingle) {
      return ToPathEstimate(
          path_name, trials_,
          EstimateEpsilonFromOutcomeCells(sides_[0].cells, sides_[1].cells,
                                          trials_, confidence, override_cells,
                                          /*include_complements=*/false));
    }
    size_t total_cells = override_cells;
    if (total_cells == 0) {
      for (const auto& [key, base] : sides_[0].lists) {
        total_cells += EstimateEpsilonFromListReductions(
                           base, sides_[1].lists.at(key), confidence)
                           .bonferroni_cells;
      }
    }
    EpsilonCellEstimate worst;
    for (const auto& [key, base] : sides_[0].lists) {
      const EpsilonCellEstimate cells = EstimateEpsilonFromListReductions(
          base, sides_[1].lists.at(key), confidence, total_cells);
      if (cells.epsilon_hat > worst.epsilon_hat) {
        worst.epsilon_hat = cells.epsilon_hat;
        worst.worst_cell = cells.worst_cell;
      }
      worst.epsilon_lower_bound =
          std::max(worst.epsilon_lower_bound, cells.epsilon_lower_bound);
      worst.worst_z = std::max(worst.worst_z, cells.worst_z);
    }
    worst.bonferroni_cells = total_cells;
    return ToPathEstimate(path_name, trials_, worst);
  }

  /// One-entry result for the schedule audits.
  DpAuditResult ScheduleResult(const std::string& path_name) const {
    DpAuditResult result;
    result.pairs_checked = 1;
    result.worst_edge_u = pair_.u;
    result.worst_edge_v = pair_.v;
    result.per_path.push_back(Estimate(path_name, options_.confidence));
    result.max_abs_log_ratio = result.per_path.back().epsilon_hat;
    return result;
  }

  /// Both sides' live services' stats, summed.
  ServiceStats Stats() const {
    ServiceStats stats = sides_[0].service->stats();
    stats += sides_[1].service->stats();
    return stats;
  }

 private:
  MirroredPair(const ServiceAuditor::UtilityFactory& factory,
               const ServiceAuditOptions& options, const NeighboringPair& pair,
               NodeId target, ServiceOptions service_options)
      : factory_(factory),
        options_(options),
        pair_(pair),
        target_(target),
        service_options_(std::move(service_options)) {}

  const ServiceAuditor::UtilityFactory& factory_;
  const ServiceAuditOptions& options_;
  const NeighboringPair& pair_;
  const NodeId target_;
  const ServiceOptions service_options_;
  Side sides_[2];
  std::optional<CommonToggle> toggle_;
  bool present_ = false;
  uint64_t trials_ = 0;
};

}  // namespace

PathEpsilonEstimate EstimateEpsilonFromCounts(
    const std::string& path_name,
    const std::map<NodeId, uint64_t>& base_counts,
    const std::map<NodeId, uint64_t>& neighbor_counts, uint64_t trials,
    double confidence, size_t bonferroni_override) {
  // NodeId outcomes are already 64-bit-safe cell ids.
  OutcomeCellCounts base_cells(base_counts.begin(), base_counts.end());
  OutcomeCellCounts neighbor_cells(neighbor_counts.begin(),
                                   neighbor_counts.end());
  return ToPathEstimate(
      path_name, trials,
      EstimateEpsilonFromOutcomeCells(base_cells, neighbor_cells, trials,
                                      confidence, bonferroni_override,
                                      /*include_complements=*/false));
}

ServiceAuditor::ServiceAuditor(UtilityFactory utility_factory,
                               ServiceAuditOptions options)
    : utility_factory_(std::move(utility_factory)),
      options_(std::move(options)) {
  PRIVREC_CHECK(utility_factory_ != nullptr);
  PRIVREC_CHECK_GT(options_.release_epsilon, 0.0);
  PRIVREC_CHECK_GT(options_.trials_per_side, 0u);
  PRIVREC_CHECK_GT(options_.confidence, 0.0);
  PRIVREC_CHECK(options_.confidence < 1.0);
}

Result<DpAuditResult> ServiceAuditor::AuditPair(const NeighboringPair& pair,
                                                NodeId target) const {
  return AuditPairAtConfidence(pair, target, options_.confidence);
}

Result<DpAuditResult> ServiceAuditor::AuditPairAtConfidence(
    const NeighboringPair& pair, NodeId target, double confidence) const {
  DpAuditResult result;
  result.pairs_checked = 1;
  result.worst_edge_u = pair.u;
  result.worst_edge_v = pair.v;
  for (ServeAuditPath path : kAllServeAuditPaths) {
    // Each path owns fresh graphs: the post-mutation path mutates them,
    // and cross-path state bleed would make the audit depend on path order.
    const size_t num_shards =
        path == ServeAuditPath::kMultiShard ? kMultiShardCount : 1;
    PRIVREC_ASSIGN_OR_RETURN(
        std::unique_ptr<MirroredPair> sides,
        MirroredPair::Create(utility_factory_, options_, pair, target,
                             static_cast<uint64_t>(path),
                             MakeAuditServiceOptions(options_, num_shards),
                             /*journal_capacity=*/0));
    if (path == ServeAuditPath::kPostMutation) {
      PRIVREC_RETURN_NOT_OK(sides->ChooseToggle("post-mutation toggle"));
    }
    if (path != ServeAuditPath::kCold) {
      sides->BuildServices();
      PRIVREC_RETURN_NOT_OK(sides->Warmup());
    }
    if (path == ServeAuditPath::kPostMutation) {
      PRIVREC_RETURN_NOT_OK(sides->ToggleCommonSlot());
    }
    for (uint64_t t = 0; t < options_.trials_per_side; ++t) {
      PRIVREC_RETURN_NOT_OK(sides->RecordTrial(/*key=*/0));
    }
    PathEpsilonEstimate estimate =
        sides->Estimate(ServeAuditPathName(path), confidence);
    result.max_abs_log_ratio =
        std::max(result.max_abs_log_ratio, estimate.epsilon_hat);
    result.per_path.push_back(std::move(estimate));
  }
  return result;
}

Result<DpAuditResult> ServiceAuditor::AuditPairUnderMutation(
    const NeighboringPair& pair, NodeId target,
    const MutationAuditOptions& mutation, ServiceStats* stats_out) const {
  // Two shards: the audited target and the churn users stripe across
  // shards, so repair, snapshot re-pinning, and sensitivity memos all run
  // under real shard concurrency — while keeping per-shard state small
  // enough that every mutation round actually touches it.
  PRIVREC_ASSIGN_OR_RETURN(
      std::unique_ptr<MirroredPair> sides,
      MirroredPair::Create(utility_factory_, options_, pair, target,
                           kMutationPathId,
                           MakeAuditServiceOptions(options_, 2),
                           mutation.journal_capacity));
  const uint64_t rounds = std::max<uint64_t>(1, mutation.rounds);
  const uint64_t trials_per_round = options_.trials_per_side / rounds;
  if (trials_per_round == 0) {
    return Status::InvalidArgument(
        "trials_per_side must cover at least one trial per round");
  }
  sides->BuildServices();
  // Round 1's trials already sit on the cached-entry path that each
  // round's mutations will then have to repair.
  PRIVREC_RETURN_NOT_OK(sides->Warmup());

  MirroredMutatorOptions mutator_options;
  mutator_options.num_threads = mutation.mutator_threads;
  mutator_options.toggles_per_thread = mutation.toggles_per_thread_per_round;
  mutator_options.churn_serves_per_thread =
      mutation.churn_serves_per_thread_per_round;
  mutator_options.seed = DeriveSeed(options_.seed, kMutationPathId, 2);
  MirroredMutator mutator(sides->side(0).service.get(),
                          sides->side(1).service.get(), pair.base, target,
                          pair.u, pair.v, mutator_options);
  for (uint64_t round = 0; round < rounds; ++round) {
    // Concurrent phase: identical toggle streams + churn on both sides.
    // RunPhase joins its workers, so the measurement slice below runs
    // against a settled, deterministic graph state.
    mutator.RunPhase();
    for (uint64_t t = 0; t < trials_per_round; ++t) {
      PRIVREC_RETURN_NOT_OK(sides->RecordTrial(/*key=*/round));
    }
  }
  if (stats_out != nullptr) *stats_out = sides->Stats();
  return sides->ScheduleResult("under_mutation");
}

Result<DpAuditResult> ServiceAuditor::AuditPairUnderFaults(
    const NeighboringPair& pair, NodeId target,
    const FaultAuditOptions& faults, ServiceStats* stats_out) const {
  ServiceOptions service_options = MakeAuditServiceOptions(options_, 2);
  service_options.retry = faults.retry;
  PRIVREC_ASSIGN_OR_RETURN(
      std::unique_ptr<MirroredPair> sides,
      MirroredPair::Create(utility_factory_, options_, pair, target,
                           kFaultPathId, std::move(service_options),
                           faults.journal_capacity));
  sides->BuildServices();
  // Warm BEFORE arming the plan: the measured trials then sit on the
  // cached-entry path, which is the path the injected faults (repair
  // failure, journal compaction, patch failures) actually bend.
  PRIVREC_RETURN_NOT_OK(sides->Warmup());
  sides->InstallPlan(faults.plan);
  if (faults.mutations_between_trials > 0) {
    PRIVREC_RETURN_NOT_OK(sides->ChooseToggle("under-faults toggles"));
  }
  const uint64_t trials = std::max<uint64_t>(1, options_.trials_per_side);
  for (uint64_t t = 0; t < trials; ++t) {
    for (uint64_t m = 0; m < faults.mutations_between_trials; ++m) {
      PRIVREC_RETURN_NOT_OK(sides->ToggleCommonSlot());
    }
    PRIVREC_RETURN_NOT_OK(sides->RecordTrial(sides->parity()));
  }
  sides->CheckFiresMirrored();
  if (stats_out != nullptr) *stats_out = sides->Stats();
  return sides->ScheduleResult("under_faults");
}

Result<DpAuditResult> ServiceAuditor::AuditAcrossRecovery(
    const NeighboringPair& pair, NodeId target,
    const RecoveryAuditOptions& recovery, ServiceStats* stats_out) const {
  if (options_.shape != ServeAuditShape::kSingle) {
    return Status::InvalidArgument(
        "AuditAcrossRecovery supports ServeAuditShape::kSingle only");
  }
  if (recovery.state_dir.empty()) {
    return Status::InvalidArgument(
        "RecoveryAuditOptions::state_dir is required");
  }
  // Headroom for the charged pre-crash traffic: the audit serves
  // themselves stay budget-neutral, but the charged serves must fit.
  const double per_user_budget =
      options_.release_epsilon *
      static_cast<double>(recovery.charged_serves_per_side + 1);
  ServiceOptions service_options = MakeAuditServiceOptions(options_, 2);
  service_options.per_user_budget = per_user_budget;
  service_options.retry = recovery.retry;
  PRIVREC_ASSIGN_OR_RETURN(
      std::unique_ptr<MirroredPair> sides,
      MirroredPair::Create(utility_factory_, options_, pair, target,
                           kRecoveryPathId, std::move(service_options),
                           recovery.journal_capacity));
  // At least one trial on each side of the crash boundary — the boundary
  // IS the path under audit.
  const uint64_t trials = std::max<uint64_t>(2, options_.trials_per_side);
  const uint64_t phase0_trials = trials / 2;

  // Per-side durable state, wiped on entry so a fixed seed reproduces the
  // audit byte for byte.
  auto wal_dir = [](const MirroredPair::Side& side) {
    return side.state_dir + "/wal";
  };
  auto ledger_dir = [](const MirroredPair::Side& side) {
    return side.state_dir + "/ledger";
  };
  auto ckpt_dir = [](const MirroredPair::Side& side) {
    return side.state_dir + "/ckpt";
  };
  for (int s = 0; s < 2; ++s) {
    MirroredPair::Side& side = sides->side(s);
    side.state_dir = recovery.state_dir + "/side" + std::to_string(s);
    std::error_code ec;
    std::filesystem::remove_all(side.state_dir, ec);
    std::filesystem::create_directories(side.state_dir, ec);
    if (ec) {
      return Status::IOError("cannot create audit state dir '" +
                             side.state_dir + "'");
    }
    WalOptions wal_options;
    wal_options.fault_injector = &side.injector;
    PRIVREC_ASSIGN_OR_RETURN(side.wal,
                             WriteAheadLog::Open(wal_dir(side), wal_options));
    LedgerOptions ledger_options;
    ledger_options.fault_injector = &side.injector;
    PRIVREC_ASSIGN_OR_RETURN(
        side.ledger, BudgetLedger::Open(ledger_dir(side), ledger_options));
  }
  sides->BuildServices();
  // Initial checkpoint BEFORE the plan is armed: recovery always has an
  // authoritative manifest to start from, whatever the plan breaks.
  for (int s = 0; s < 2; ++s) {
    MirroredPair::Side& side = sides->side(s);
    PRIVREC_RETURN_NOT_OK(side.service->SaveCheckpoint(ckpt_dir(side)));
  }
  PRIVREC_RETURN_NOT_OK(sides->Warmup());
  sides->InstallPlan(recovery.plan);

  // Charged pre-crash traffic: the serves the durable ledger must
  // survive. A shared refusal is budget-neutral on both sides.
  Status refused;
  for (uint64_t i = 0; i < recovery.charged_serves_per_side; ++i) {
    PRIVREC_RETURN_NOT_OK(sides->Mirrored(
        "charged serves",
        [&](MirroredPair::Side& side) {
          return side.service->ServeRecommendation(target, side.rng).status();
        },
        &refused));
  }
  double pre_crash_charged[2];
  for (int s = 0; s < 2; ++s) {
    pre_crash_charged[s] =
        per_user_budget - sides->side(s).service->RemainingBudget(target);
  }

  if (recovery.mutations_between_trials > 0) {
    PRIVREC_RETURN_NOT_OK(sides->ChooseToggle("across-recovery toggles"));
  }
  // A torn WAL rejects mutations from then on; the schedule freezes
  // SYMMETRICALLY (equal plans fire equally), keeping the parity cells
  // sound.
  bool mutations_alive = sides->toggle().has_value();
  auto run_trials = [&](uint64_t count) -> Status {
    for (uint64_t t = 0; t < count; ++t) {
      for (uint64_t m = 0; mutations_alive &&
                           m < recovery.mutations_between_trials;
           ++m) {
        Status rejected;
        PRIVREC_RETURN_NOT_OK(sides->ToggleCommonSlot(&rejected));
        mutations_alive = rejected.ok();
      }
      PRIVREC_RETURN_NOT_OK(sides->RecordTrial(sides->parity()));
    }
    return Status::OK();
  };
  PRIVREC_RETURN_NOT_OK(run_trials(phase0_trials));

  // Mid-audit checkpoint attempt, faults still armed: under
  // kCheckpointCrash this dies before the manifest commit (on both sides
  // identically) and the initial checkpoint stays authoritative.
  Status checkpoint_failed;
  PRIVREC_RETURN_NOT_OK(sides->Mirrored(
      "checkpoints",
      [&](MirroredPair::Side& side) {
        return side.service->SaveCheckpoint(ckpt_dir(side));
      },
      &checkpoint_failed));

  // ---- The crash. ----
  sides->CheckFiresMirrored();
  const ServiceStats pre_crash_stats = sides->Stats();
  for (int s = 0; s < 2; ++s) {
    MirroredPair::Side& side = sides->side(s);
    side.wal->SimulateCrash();
    side.ledger->SimulateCrash();
    side.service.reset();
    side.graph.reset();
    side.wal.reset();
    side.ledger.reset();
    // Post-recovery runs clean; the fire counts are already folded into
    // pre_crash_stats.
    side.injector.Clear();
  }

  // ---- Recovery. ----
  std::unordered_map<NodeId, double> recovered_spend[2];
  for (int s = 0; s < 2; ++s) {
    MirroredPair::Side& side = sides->side(s);
    PRIVREC_ASSIGN_OR_RETURN(side.wal, WriteAheadLog::Open(wal_dir(side)));
    RecoveryReport report;
    PRIVREC_ASSIGN_OR_RETURN(side.graph,
                             RecoverGraph(ckpt_dir(side), *side.wal, &report));
    if (recovery.journal_capacity > 0) {
      side.graph->SetJournalCapacity(recovery.journal_capacity);
    }
    PRIVREC_ASSIGN_OR_RETURN(side.ledger, BudgetLedger::Open(ledger_dir(side)));
    recovered_spend[s] = side.ledger->SpentByUser();
    auto it = recovered_spend[s].find(target);
    const double recovered = it == recovered_spend[s].end() ? 0.0 : it->second;
    if (recovered + 1e-9 < pre_crash_charged[s]) {
      // The one unrecoverable state: durable spend below what was charged
      // in memory means a charge was lost (torn ledger append). Refusing
      // is the only sound posture — certifying would launder the loss.
      return Status::FailedPrecondition(
          "budget ledger unrecoverable on side " + std::to_string(s) +
          ": recovered spend " + std::to_string(recovered) +
          " < pre-crash charged " + std::to_string(pre_crash_charged[s]) +
          " — refusing to certify across this recovery");
    }
  }
  sides->BuildServices();
  for (int s = 0; s < 2; ++s) {
    sides->side(s).service->ImportSpentBudgets(recovered_spend[s]);
  }
  PRIVREC_RETURN_NOT_OK(sides->Warmup());
  // Re-derive the parity anchor from the RECOVERED graphs: recovery is
  // exact, so both sides must agree — and agree with the pre-crash
  // schedule.
  if (const std::optional<CommonToggle>& toggle = sides->toggle()) {
    bool recovered_present[2];
    for (int s = 0; s < 2; ++s) {
      recovered_present[s] =
          sides->side(s).graph->VersionedSnapshot().graph->HasEdge(toggle->a,
                                                                   toggle->b);
    }
    if (recovered_present[0] != recovered_present[1]) {
      return Status::Internal(
          "recovered sides disagree on the common toggle slot");
    }
    if (recovered_present[0] != sides->present()) {
      return Status::Internal(
          "recovered graph state disagrees with the pre-crash toggle "
          "schedule");
    }
    mutations_alive = true;  // fresh WAL: toggles flow again
  }
  PRIVREC_RETURN_NOT_OK(run_trials(trials - phase0_trials));
  sides->CheckFiresMirrored();
  if (stats_out != nullptr) {
    *stats_out = pre_crash_stats;
    *stats_out += sides->Stats();
  }
  return sides->ScheduleResult("across_recovery");
}

Result<DpAuditResult> ServiceAuditor::AuditEdgeToggles(const CsrGraph& graph,
                                                       NodeId target,
                                                       size_t max_pairs,
                                                       Rng& rng) const {
  PRIVREC_ASSIGN_OR_RETURN(std::vector<NeighboringPair> pairs,
                           SampleEdgeTogglePairs(graph, target, max_pairs,
                                                 rng));
  if (pairs.empty()) {
    return Status::InvalidArgument("no eligible neighboring pairs");
  }
  return AuditPairsMerged(pairs, target);
}

Result<DpAuditResult> ServiceAuditor::AuditNodeRewirings(const CsrGraph& graph,
                                                         NodeId target,
                                                         size_t max_pairs,
                                                         Rng& rng) const {
  PRIVREC_ASSIGN_OR_RETURN(
      std::vector<NeighboringPair> pairs,
      SampleNodeRewiringPairs(graph, target, max_pairs, rng));
  if (pairs.empty()) {
    return Status::InvalidArgument("no eligible neighboring pairs");
  }
  return AuditPairsMerged(pairs, target);
}

Result<DpAuditResult> ServiceAuditor::AuditPairsMerged(
    const std::vector<NeighboringPair>& pairs, NodeId target) const {
  // The merged bound takes a max over the pairs, so the per-pair
  // confidence must absorb a Bonferroni factor of K for the merged result
  // to stay certified at options_.confidence.
  const double per_pair_confidence =
      1.0 - (1.0 - options_.confidence) / static_cast<double>(pairs.size());
  DpAuditResult merged;
  for (const NeighboringPair& pair : pairs) {
    PRIVREC_ASSIGN_OR_RETURN(
        DpAuditResult audit,
        AuditPairAtConfidence(pair, target, per_pair_confidence));
    merged.pairs_checked += audit.pairs_checked;
    if (audit.max_abs_log_ratio > merged.max_abs_log_ratio) {
      merged.max_abs_log_ratio = audit.max_abs_log_ratio;
      merged.worst_edge_u = audit.worst_edge_u;
      merged.worst_edge_v = audit.worst_edge_v;
    }
    // Merge per-path by max so each path's worst pair survives.
    for (PathEpsilonEstimate& estimate : audit.per_path) {
      PathEpsilonEstimate* existing = nullptr;
      for (PathEpsilonEstimate& entry : merged.per_path) {
        if (entry.path == estimate.path) {
          existing = &entry;
          break;
        }
      }
      if (existing == nullptr) {
        merged.per_path.push_back(std::move(estimate));
        continue;
      }
      if (estimate.epsilon_hat > existing->epsilon_hat) {
        existing->epsilon_hat = estimate.epsilon_hat;
        existing->worst_outcome = estimate.worst_outcome;
      }
      existing->epsilon_lower_bound = std::max(existing->epsilon_lower_bound,
                                               estimate.epsilon_lower_bound);
      existing->worst_z = std::max(existing->worst_z, estimate.worst_z);
      existing->bonferroni_cells =
          std::max(existing->bonferroni_cells, estimate.bonferroni_cells);
    }
  }
  return merged;
}

}  // namespace privrec
