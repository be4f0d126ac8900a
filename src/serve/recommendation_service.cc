#include "serve/recommendation_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/mechanism.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"

namespace privrec {
namespace {

size_t RoundUpPow2(size_t x) {
  size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

size_t ResolveShardCount(size_t requested) {
  size_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  // Clamp before rounding: RoundUpPow2 on a value above 2^63 would never
  // terminate.
  return RoundUpPow2(std::min<size_t>(n, 64));
}

}  // namespace

RecommendationService::RecommendationService(
    DynamicGraph* graph, std::unique_ptr<UtilityFunction> utility,
    const ServiceOptions& options)
    : graph_(graph), utility_(std::move(utility)), options_(options) {
  PRIVREC_CHECK(graph_ != nullptr);
  PRIVREC_CHECK(utility_ != nullptr);
  PRIVREC_CHECK_GT(options.release_epsilon, 0.0);
  PRIVREC_CHECK_GE(options.per_user_budget, options.release_epsilon);
  PRIVREC_CHECK_GT(options.cache_capacity, 0u);
  if (options.privacy_model == PrivacyModel::kNode) {
    // Node-DP serving is only sound against the degree-capped projection:
    // installing the cap here makes every snapshot the shards pin carry
    // the projected view alongside the raw CSR. The uncap_projection
    // trip-wire skips the install — serves then read the raw graph while
    // calibrating to the capped bound, the broken deployment the audit
    // harness certifies.
    PRIVREC_CHECK_GT(options.degree_cap, 0u);
    if (!options.uncap_projection) {
      graph_->SetDegreeCap(options.degree_cap);
    }
  }
  if (options.fault_injector != nullptr) {
    // One injector covers the whole stack: the service evaluates the
    // serve-path points itself and arms the graph-layer points here, so a
    // single Install reaches journal compaction and both patch sites too.
    graph_->SetFaultInjector(options.fault_injector);
  }
  if (options.wal != nullptr) {
    // WAL-first mutations: from here on every graph toggle is durable
    // before it is visible; SaveCheckpoint/RecoverGraph complete the
    // crash-safety loop.
    graph_->AttachWal(options.wal);
  }
  const size_t num_shards = ResolveShardCount(options.num_shards);
  shard_mask_ = num_shards - 1;
  per_shard_capacity_ = std::max<size_t>(1, options.cache_capacity / num_shards);
  // Splittable seeding: every shard gets an independent stream, derived
  // deterministically from the service seed (the determinism contract of
  // the Rng-less overloads).
  SplitMix64 seeder(options.seed);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(seeder.Next()));
  }
}

size_t RecommendationService::ShardIndex(NodeId user) const {
  // Fibonacci-style mixing so striped user-id ranges spread across shards.
  uint64_t h = static_cast<uint64_t>(user) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h >> 32) & shard_mask_;
}

const CsrGraph& RecommendationService::ServingView(
    const DynamicGraph::StampedSnapshot& snap) const {
  if (options_.privacy_model == PrivacyModel::kNode &&
      snap.projected != nullptr) {
    return *snap.projected;
  }
  return *snap.graph;
}

double RecommendationService::SensitivityForLocked(
    Shard& shard, const DynamicGraph::StampedSnapshot& snap) {
  // Computed against this call's own snapshot — never a torn mix of "old
  // utilities, new sensitivity".
  if (!shard.sensitivity_valid || shard.sensitivity_version != snap.version) {
    if (options_.privacy_model == PrivacyModel::kNode) {
      // Node bound on the SAME view the utilities are computed on. Under
      // the uncap_projection trip-wire this evaluates the capped bound
      // against the raw graph — deliberately miscalibrated, so the audit
      // can certify it.
      shard.sensitivity =
          utility_->NodeSensitivityBound(ServingView(snap), options_.degree_cap);
    } else {
      shard.sensitivity = utility_->SensitivityBound(*snap.graph);
    }
    shard.sensitivity_version = snap.version;
    shard.sensitivity_valid = true;
  }
  return shard.sensitivity;
}

void RecommendationService::EvictIfNeededLocked(Shard& shard) {
  if (shard.cache.size() < per_shard_capacity_) return;
  // Runs on nearly every miss once the cache is full (a uniform workload
  // over a graph much larger than the cache), so both passes below read
  // only the shard's contiguous slots (32 B each, 16 KB at 512 slots),
  // never the entries' cold heap allocations. The entry stays behind a
  // pointer: stored by value, every slot would be as large as the entry,
  // and the scan would again walk that much memory. Erasing moves the
  // last slot into the hole, so slots stay dense.
  const auto erase_slot = [&shard](size_t i) {
    shard.slot_of.erase(shard.cache[i].user);
    if (i + 1 != shard.cache.size()) {
      shard.cache[i] = std::move(shard.cache.back());
      shard.slot_of[shard.cache[i].user] = static_cast<uint32_t>(i);
    }
    shard.cache.pop_back();
  };
  // Journal-aware eviction: entries whose version fell behind the journal
  // floor can never be delta-repaired — their next visit would be a full
  // recompute counted as a journal_fallback. Purging ALL of them first
  // (they cost a recompute whether evicted or not) keeps capacity for
  // repairable entries and turns would-be fallbacks into plain misses, so
  // journal_fallbacks stays a signal of journal undersizing rather than
  // of cache pressure.
  const uint64_t floor = graph_->journal_floor_version();
  const size_t cached = shard.cache.size();
  for (size_t i = 0; i < shard.cache.size();) {
    if (shard.cache[i].version < floor) {
      erase_slot(i);  // slot i now holds the former last slot
    } else {
      ++i;
    }
  }
  if (shard.cache.size() < cached) {
    shard.stats.doomed_evictions += cached - shard.cache.size();
    return;
  }
  // Every entry is still repairable: evict the least recently used one
  // (last_used values are unique, so the victim is too).
  size_t victim = 0;
  for (size_t i = 1; i < shard.cache.size(); ++i) {
    if (shard.cache[i].last_used < shard.cache[victim].last_used) victim = i;
  }
  erase_slot(victim);
}

Status RecommendationService::InjectServeFaultsLocked(Shard& shard) {
  FaultInjector* injector = options_.fault_injector;
  if (injector == nullptr || !injector->armed()) return Status::OK();
  if (std::optional<FaultPoint> point = injector->ShouldFailServe()) {
    ++shard.stats.injected_faults;
    return Status::Unavailable(std::string("injected fault: ") +
                               FaultPointName(*point));
  }
  if (injector->ShouldFire(FaultPoint::kShardStall)) {
    ++shard.stats.injected_faults;
    const uint32_t micros =
        injector->plan().rule(FaultPoint::kShardStall).stall_micros;
    if (micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    }
  }
  return Status::OK();
}

bool RecommendationService::AdmitOrShed(Shard& shard, NodeId user,
                                        Status* shed_status) {
  const OverloadPolicy& policy = options_.overload;
  if (policy.max_queue_depth == 0 && policy.max_inflight_per_shard == 0) {
    return true;
  }
  const uint32_t depth = shard.inflight.load(std::memory_order_acquire);
  if (policy.max_queue_depth > 0 && depth >= policy.max_queue_depth) {
    shard.shed_overload.fetch_add(1, std::memory_order_relaxed);
    *shed_status = Status::Unavailable("shard overloaded: queue-depth cap");
    return false;
  }
  if (policy.max_inflight_per_shard == 0 ||
      depth < policy.max_inflight_per_shard) {
    return true;
  }
  // Over the soft cap: shed the requests with the least lifetime budget
  // left (they are closest to a refusal anyway), queue the rest. The hint
  // map is the accountant's last published remaining() — admission must
  // not take shard.mu, so it reads this snapshot instead.
  double remaining = options_.per_user_budget;
  {
    std::lock_guard<std::mutex> lock(shard.budget_mu);
    auto it = shard.remaining_hint.find(user);
    if (it != shard.remaining_hint.end()) remaining = it->second;
  }
  if (remaining <= policy.shed_budget_fraction * options_.per_user_budget) {
    shard.shed_overload.fetch_add(1, std::memory_order_relaxed);
    *shed_status =
        Status::Unavailable("shard overloaded: low-budget request shed");
    return false;
  }
  return true;
}

void RecommendationService::UpdateBudgetHintLocked(Shard& shard, NodeId user) {
  // Only the soft cap reads the hints.
  if (options_.overload.max_inflight_per_shard == 0) return;
  auto it = shard.accountants.find(user);
  const double remaining = it == shard.accountants.end()
                               ? options_.per_user_budget
                               : it->second.remaining();
  std::lock_guard<std::mutex> lock(shard.budget_mu);
  shard.remaining_hint[user] = remaining;
}

void RecommendationService::DeterministicBackoff(uint32_t attempt) const {
  const uint64_t micros =
      static_cast<uint64_t>(attempt) * options_.retry.backoff_micros;
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

PrivacyAccountant& RecommendationService::AccountantForLocked(Shard& shard,
                                                              NodeId user) {
  auto it = shard.accountants.find(user);
  if (it == shard.accountants.end()) {
    it = shard.accountants
             .emplace(user, PrivacyAccountant(options_.per_user_budget,
                                              options_.budget_window))
             .first;
  }
  return it->second;
}

RecommendationService::CacheEntry RecommendationService::ComputeEntryLocked(
    Shard& shard, NodeId user, const DynamicGraph::StampedSnapshot& snap,
    double sensitivity) {
  // Shared snapshot (no copy) + per-shard workspace: a fresh entry costs
  // only the utility traversal, not an O(n + m) graph materialization.
  return CacheEntry(utility_->Compute(ServingView(snap), user, shard.workspace),
                    sensitivity, shard.index_scratch);
}

void RecommendationService::RepairEntryLocked(
    Shard& shard, NodeId user, const DynamicGraph::StampedSnapshot& snap,
    double sensitivity, uint64_t version, CacheEntry& entry) {
  // Journal repair is an EDGE-model tool: the journal records raw-graph
  // toggles, but under kNode the serve path reads the projected view, and
  // a raw delta (u,v) can evict a third arc (u,w) from u's capped prefix —
  // an arc change no raw-journal keep test can see. Until a
  // projected-delta journal exists (follow-up in ROADMAP), kNode entries
  // recompute against the view on every version change (the baseline path
  // below), which is exact and still touches no other entry.
  // Distinguishes the FORCED fallback (journal could not replay the
  // window, or an injected kRepairFail) from repair being structurally
  // unavailable — only the former counts as a stale_fallback_serve.
  bool forced_fallback = false;
  bool attempt_repair = options_.privacy_model == PrivacyModel::kEdge &&
                        utility_->SupportsIncrementalUpdate();
  if (attempt_repair && options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFire(FaultPoint::kRepairFail)) {
    // Injected repair failure: abandon the journal without draining it and
    // take the exact full-recompute fallback below.
    ++shard.stats.injected_faults;
    forced_fallback = true;
    attempt_repair = false;
  }
  if (attempt_repair) {
    auto deltas = graph_->EdgeDeltasBetween(version, snap.version);
    if (deltas.ok()) {
      // Membership against the post-batch snapshot is exact as long as the
      // whole window is tested together (see EdgeDeltaAffectsTarget); the
      // utility owns the test because some see a wider blast radius than
      // the structural rule (Jaccard's union term, the Katz/PPR walk cone)
      // — and need the whole window at once to reconstruct pre-window
      // state (EdgeDeltaWindowAffects).
      if (!utility_->EdgeDeltaWindowAffects(*snap.graph, *deltas, user,
                                            entry.utilities)) {
        // The cached vector — and its frozen sampler — are still exactly
        // right; only the stamp moves. Sensitivity drift is covered by the
        // caller's calibration ratchet.
        ++shard.stats.cache_hits;
        ++shard.stats.delta_kept;
        entry.calibration_sensitivity =
            std::max(entry.calibration_sensitivity, sensitivity);
        return;
      }
      // Affected: recompute this one entry against the snapshot. The vector
      // changed, so the frozen sampler dies and the calibration re-anchors
      // at the snapshot the new vector reflects. Recomputing is exact and,
      // at serving scale, no dearer than splicing the window into the
      // cached vector (README "Keep-or-recompute cache repair").
      Stopwatch repair_watch;
      entry = ComputeEntryLocked(shard, user, snap, sensitivity);
      shard.stats.repair_ns +=
          static_cast<uint64_t>(repair_watch.ElapsedSeconds() * 1e9);
      ++shard.stats.cache_misses;
      ++shard.stats.delta_recomputed;
      return;
    }
    ++shard.stats.journal_fallbacks;
    forced_fallback = true;
  }
  // Baseline path: the pre-incremental design would have erased this entry
  // at mutation time; recompute it in place now (against the serving view:
  // raw under kEdge, projected under kNode).
  entry = ComputeEntryLocked(shard, user, snap, sensitivity);
  ++shard.stats.cache_misses;
  ++shard.stats.cache_invalidations;
  if (forced_fallback) ++shard.stats.stale_fallback_serves;
}

Result<RecommendationService::CacheEntry*>
RecommendationService::GetEntryLocked(
    Shard& shard, NodeId user, const DynamicGraph::StampedSnapshot& snap,
    bool need_sampler) {
  const double sensitivity = SensitivityForLocked(shard, snap);
  ++shard.clock;
  CacheEntry* found = nullptr;
  auto it = shard.slot_of.find(user);
  if (it == shard.slot_of.end()) {
    ++shard.stats.cache_misses;
    auto fresh = std::make_unique<CacheEntry>(
        ComputeEntryLocked(shard, user, snap, sensitivity));
    found = fresh.get();
    EvictIfNeededLocked(shard);
    const bool inserted =
        shard.slot_of.emplace(user, static_cast<uint32_t>(shard.cache.size()))
            .second;
    PRIVREC_CHECK(inserted);
    shard.cache.push_back(
        CacheSlot{user, snap.version, shard.clock, std::move(fresh)});
  } else {
    CacheSlot& slot = shard.cache[it->second];
    slot.last_used = shard.clock;
    found = slot.entry.get();
    if (slot.version != snap.version) {
      RepairEntryLocked(shard, user, snap, sensitivity, slot.version, *found);
      slot.version = snap.version;
    } else {
      ++shard.stats.cache_hits;
      // A mutation elsewhere in the graph can drift the global Δf without
      // changing this user's vector; ratchet the entry's calibration up
      // to the current bound (see CacheEntry::calibration_sensitivity).
      found->calibration_sensitivity =
          std::max(found->calibration_sensitivity, sensitivity);
    }
  }
  CacheEntry& entry = *found;
  if (entry.utilities.num_candidates() == 0) {
    // Cached like any other vector (delta repair keeps it fresh)
    // so repeated requests for an unservable user are O(1) hits, not
    // recomputes; the release itself can never happen.
    return Status::FailedPrecondition("no candidates to recommend");
  }
  if (need_sampler) {
    if (!entry.sampler.has_value() ||
        entry.sampler_sensitivity != entry.calibration_sensitivity) {
      ExponentialMechanism mechanism(options_.release_epsilon,
                                     entry.calibration_sensitivity);
      PRIVREC_ASSIGN_OR_RETURN(RecommendationSampler sampler,
                               mechanism.MakeSampler(entry.utilities));
      entry.sampler.emplace(std::move(sampler));
      entry.sampler_sensitivity = entry.calibration_sensitivity;
    } else {
      ++shard.stats.sampler_reuses;
    }
  }
  return &entry;
}

// ------------------------------------------------------------- serve flow
// dispatch → admit → pin → entry → commit → release. Both release shapes
// (and their audit variants) run these steps in this order; the shapes
// hold only their own pre-checks and their release.

template <typename Body>
std::invoke_result_t<Body&, RecommendationService::Shard&>
RecommendationService::Dispatch(NodeId user, Body body) {
  using ServeResult = std::invoke_result_t<Body&, Shard&>;
  if (user >= graph_->num_nodes()) {
    return Status::InvalidArgument("user out of range");
  }
  Shard& shard = ShardFor(user);
  uint32_t attempt = 0;
  for (;;) {
    Status shed_status;
    if (!AdmitOrShed(shard, user, &shed_status)) {
      if (attempt < options_.retry.max_retries) {
        shard.retries.fetch_add(1, std::memory_order_relaxed);
        DeterministicBackoff(++attempt);
        continue;
      }
      return ServeResult(shed_status);
    }
    {
      InflightGuard guard(shard);
      ServeResult result = [&] {
        std::lock_guard<std::mutex> lock(shard.mu);
        return body(shard);
      }();
      if (result.ok() || result.status().code() != StatusCode::kUnavailable ||
          attempt >= options_.retry.max_retries) {
        return result;
      }
    }
    shard.retries.fetch_add(1, std::memory_order_relaxed);
    DeterministicBackoff(++attempt);
  }
}

Result<RecommendationService::Admission> RecommendationService::AdmitLocked(
    Shard& shard, NodeId user, bool charge_budget, std::string_view reason) {
  // Injected serve faults surface here, BEFORE the accountant: a failed
  // attempt spends nothing, so retrying it is privacy-neutral.
  PRIVREC_RETURN_NOT_OK(InjectServeFaultsLocked(shard));
  Admission admission{options_.release_epsilon, /*degraded=*/false,
                      charge_budget};
  // The audit path skips the accountant entirely — lifetime AND window
  // state, so audits are budget-neutral in both ledgers.
  if (!charge_budget) return admission;
  // Refuse-or-commit charging: the budget is checked here (refusals touch
  // nothing else, so refused traffic costs no cache work), but charged
  // only by CommitLocked, after every other failure mode has passed — a
  // failed serve must never consume ε it released nothing for.
  PrivacyAccountant& accountant = AccountantForLocked(shard, user);
  // The request clock ticks exactly once per charged request, before any
  // affordability check: refused requests still age the window, so a
  // throttled user recovers by waiting, not by hammering.
  if (accountant.AdvanceWindow()) ++shard.stats.window_refreshes;
  if (!accountant.CanCharge(admission.epsilon)) {
    ++shard.stats.refused_budget;
    UpdateBudgetHintLocked(shard, user);
    // A descriptive refusal.
    return accountant.Charge(admission.epsilon, reason);
  }
  if (!accountant.CanChargeInWindow(admission.epsilon)) {
    // Window exhausted while lifetime budget still has room. kDegrade
    // retries at the cheaper epsilon (noisier answer, never over-budget);
    // kReject — or a window too tight even for the degraded charge —
    // refuses until the window turns over.
    const BudgetWindowPolicy& policy = accountant.window_policy();
    if (policy.exhaustion == BudgetWindowPolicy::Exhaustion::kDegrade) {
      admission.epsilon = options_.release_epsilon / policy.degrade_factor;
      admission.degraded = accountant.CanChargeInWindow(admission.epsilon) &&
                           accountant.CanCharge(admission.epsilon);
    }
    if (!admission.degraded) {
      ++shard.stats.refused_window;
      UpdateBudgetHintLocked(shard, user);
      return accountant.Charge(admission.epsilon, reason);
    }
  }
  return admission;
}

Result<const DynamicGraph::StampedSnapshot*> RecommendationService::PinLocked(
    Shard& shard, NodeId user) {
  // One atomic load on the unmutated fast path; the graph's publication
  // mutex is only touched when the version actually moved (once per
  // mutation per shard).
  if (shard.pinned.graph == nullptr ||
      shard.pinned.version != graph_->version()) {
    shard.pinned = graph_->VersionedSnapshot();
  }
  if (user >= shard.pinned.graph->num_nodes()) {
    // The caller's bounds check raced an AddNode; the pinned snapshot is
    // authoritative for everything this serve touches.
    return Status::InvalidArgument("user out of range");
  }
  return &shard.pinned;
}

Status RecommendationService::CommitLocked(Shard& shard, NodeId user,
                                           const Admission& admission,
                                           std::string_view reason) {
  if (!admission.charged) return Status::OK();
  if (options_.budget_ledger != nullptr) {
    // Ledger-before-release: the charge is durable before the noised
    // answer exists. A failed append refuses the serve with nothing
    // charged in memory either — utility lost, privacy intact.
    PRIVREC_RETURN_NOT_OK(
        options_.budget_ledger->AppendCharge(user, admission.epsilon));
    ++shard.stats.ledger_appends;
  }
  // Cache repair pins every entry to this call's snapshot before the
  // charge, so the release after it runs against exactly the state the
  // entry reflects; if it still fails, charging without releasing is the
  // conservative direction for privacy.
  PRIVREC_CHECK_OK(AccountantForLocked(shard, user)
                       .Charge(admission.epsilon, reason));
  UpdateBudgetHintLocked(shard, user);
  return Status::OK();
}

void RecommendationService::CountRelease(ServiceStats& stats,
                                         const Admission& admission,
                                         uint64_t& audit_counter) {
  if (!admission.charged) {
    ++audit_counter;
    return;
  }
  ++stats.served;
  if (admission.degraded) ++stats.degraded_serves;
}

Result<NodeId> RecommendationService::ServeLocked(Shard& shard, NodeId user,
                                                  Rng& rng,
                                                  bool charge_budget) {
  constexpr std::string_view kReason = "single recommendation";
  PRIVREC_ASSIGN_OR_RETURN(const Admission admission,
                           AdmitLocked(shard, user, charge_budget, kReason));
  PRIVREC_ASSIGN_OR_RETURN(const DynamicGraph::StampedSnapshot* snap,
                           PinLocked(shard, user));
  // A degraded serve cannot draw from the frozen sampler (built at the
  // full release_epsilon), so it skips freezing one and samples from a
  // throwaway mechanism below — the frozen sampler stays valid for the
  // full-epsilon serves of the next window.
  PRIVREC_ASSIGN_OR_RETURN(
      CacheEntry * entry,
      GetEntryLocked(shard, user, *snap, /*need_sampler=*/!admission.degraded));
  std::optional<RecommendationSampler> degraded_sampler;
  if (admission.degraded) {
    // Built BEFORE the commit so a sampler failure never spends ε it
    // released nothing for.
    ExponentialMechanism mechanism(admission.epsilon,
                                   entry->calibration_sensitivity);
    PRIVREC_ASSIGN_OR_RETURN(RecommendationSampler sampler,
                             mechanism.MakeSampler(entry->utilities));
    degraded_sampler.emplace(std::move(sampler));
  }
  PRIVREC_RETURN_NOT_OK(CommitLocked(shard, user, admission, kReason));
  CountRelease(shard.stats, admission, shard.stats.audit_serves);
  const Recommendation rec = admission.degraded ? degraded_sampler->Draw(rng)
                                                : entry->sampler->Draw(rng);
  if (!rec.from_zero_block) return rec.node;
  return ResolveZeroUtilityNode(ServingView(*snap), entry->utilities,
                                entry->support, {}, rng);
}

Result<TopKResult> RecommendationService::ServeListLocked(Shard& shard,
                                                          NodeId user,
                                                          size_t k, Rng& rng,
                                                          bool charge_budget) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const std::string reason = "top-" + std::to_string(k) + " list";
  PRIVREC_ASSIGN_OR_RETURN(const Admission admission,
                           AdmitLocked(shard, user, charge_budget, reason));
  PRIVREC_ASSIGN_OR_RETURN(const DynamicGraph::StampedSnapshot* snap,
                           PinLocked(shard, user));
  // Pre-validate what PeelingExponentialTopK would reject — cheap snapshot
  // arithmetic (the paper's candidate convention: everyone but the user
  // and their neighbors), before any cache work or budget commitment. Read
  // from the serving view: under kNode the capped out-degree is what the
  // utility vector will exclude.
  const CsrGraph& view = ServingView(*snap);
  const uint64_t candidates =
      static_cast<uint64_t>(view.num_nodes()) - 1 - view.OutDegree(user);
  if (candidates < k) {
    return Status::FailedPrecondition("fewer candidates than k");
  }
  PRIVREC_ASSIGN_OR_RETURN(
      CacheEntry * entry,
      GetEntryLocked(shard, user, *snap, /*need_sampler=*/false));
  // Defense-in-depth re-check against the vector the peeling will
  // actually run on. Cache repair pins every entry to `snap` before this
  // point (even AddNode routes through the journal fallback), so today
  // the two counts always agree; the guard stays because the charge
  // below must never be spendable on a release that then fails
  // validation, whatever future repair paths exist.
  if (entry->utilities.num_candidates() < k) {
    return Status::FailedPrecondition("fewer candidates than k");
  }
  PRIVREC_RETURN_NOT_OK(CommitLocked(shard, user, admission, reason));
  // Degraded lists run the same peeling mechanism at the cheaper total ε
  // (split ε/k per slot inside) — noisier picks, identical shape.
  auto result = PeelingExponentialTopK(entry->utilities, k, admission.epsilon,
                                       entry->calibration_sensitivity, rng);
  if (result.ok()) {
    // Resolve zero-block picks to DISTINCT uniform zero-utility candidates
    // of `view` — the contract TopKResult documents but defers to the
    // release path. The resolution is part of the privacy argument, not
    // cosmetics: a released sentinel says "this slot's utility is exactly
    // 0", an outcome with probability 0 on the side of a neighboring pair
    // where that candidate's utility is positive — an infinite probability
    // ratio. Uniform without-replacement resolution makes zero picks
    // exchangeable with positive picks, restoring the peeling mechanism's
    // e^ε bound. The peeling never draws the zero slot more often than the
    // block has members, so a pick always remains.
    std::vector<NodeId> taken;
    for (Recommendation& pick : result->picks) {
      if (!pick.from_zero_block) continue;
      PRIVREC_ASSIGN_OR_RETURN(
          pick.node, ResolveZeroUtilityNode(view, entry->utilities,
                                            entry->support, taken, rng));
      taken.push_back(pick.node);
    }
    CountRelease(shard.stats, admission, shard.stats.audit_list_serves);
  }
  return result;
}

Result<NodeId> RecommendationService::ServeRecommendation(NodeId user,
                                                          Rng& rng) {
  return Dispatch(user,
                  [&](Shard& shard) { return ServeLocked(shard, user, rng); });
}

Result<NodeId> RecommendationService::ServeRecommendation(NodeId user) {
  return Dispatch(user, [&](Shard& shard) {
    return ServeLocked(shard, user, shard.rng);
  });
}

Result<NodeId> RecommendationService::ServeForAudit(NodeId user, Rng& rng) {
  return Dispatch(user, [&](Shard& shard) {
    return ServeLocked(shard, user, rng, /*charge_budget=*/false);
  });
}

Result<TopKResult> RecommendationService::ServeList(NodeId user, size_t k,
                                                    Rng& rng) {
  return Dispatch(user, [&](Shard& shard) {
    return ServeListLocked(shard, user, k, rng);
  });
}

Result<TopKResult> RecommendationService::ServeList(NodeId user, size_t k) {
  return Dispatch(user, [&](Shard& shard) {
    return ServeListLocked(shard, user, k, shard.rng);
  });
}

Result<TopKResult> RecommendationService::ServeListForAudit(NodeId user,
                                                            size_t k,
                                                            Rng& rng) {
  return Dispatch(user, [&](Shard& shard) {
    return ServeListLocked(shard, user, k, rng, /*charge_budget=*/false);
  });
}

Status RecommendationService::AddEdge(NodeId u, NodeId v) {
  // The graph publishes the toggle as a block-shared snapshot before this
  // returns and journals it; stale entries are repaired lazily per shard
  // (see RepairEntryLocked). A shard that never serves again keeps its
  // pre-mutation pinned snapshot alive, but that snapshot shares every
  // block the later toggles did not rewrite: it pins its table's top
  // level plus at most two blocks (and their chunks) per toggle since —
  // the price of sweep-free mutations.
  return graph_->AddEdge(u, v);
}

Status RecommendationService::RemoveEdge(NodeId u, NodeId v) {
  return graph_->RemoveEdge(u, v);
}

Status RecommendationService::SaveCheckpoint(const std::string& dir) {
  if (options_.wal == nullptr) {
    return Status::FailedPrecondition(
        "SaveCheckpoint requires ServiceOptions::wal");
  }
  // The view syncs the WAL under the graph's writer mutex before it reads
  // the WAL position, so wal_seq is DURABLE: the manifest never claims
  // coverage past what the WAL fsynced, even under group commit.
  PRIVREC_ASSIGN_OR_RETURN(const DynamicGraph::CheckpointView view,
                           graph_->AtomicCheckpointView());
  PRIVREC_RETURN_NOT_OK(WriteCheckpoint(dir, *view.snapshot.graph,
                                        view.wal_seq, view.snapshot.version,
                                        options_.fault_injector));
  // Post-commit pruning is best-effort durability hygiene: a crash here
  // leaves extra (idempotent-to-ignore) journal behind, never a gap.
  PRIVREC_RETURN_NOT_OK(options_.wal->TruncateSegmentsUpTo(view.wal_seq));
  if (options_.budget_ledger != nullptr) {
    PRIVREC_RETURN_NOT_OK(options_.budget_ledger->Compact());
  }
  return Status::OK();
}

void RecommendationService::ImportSpentBudget(NodeId user, double spent) {
  Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lock(shard.mu);
  AccountantForLocked(shard, user).RestoreSpent(spent);
  UpdateBudgetHintLocked(shard, user);
}

void RecommendationService::ImportSpentBudgets(
    const std::unordered_map<NodeId, double>& spent) {
  for (const auto& [user, eps] : spent) ImportSpentBudget(user, eps);
}

double RecommendationService::RemainingBudget(NodeId user) const {
  const Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.accountants.find(user);
  return it == shard.accountants.end() ? options_.per_user_budget
                                       : it->second.remaining();
}

double RecommendationService::WindowSpent(NodeId user) const {
  const Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.accountants.find(user);
  return it == shard.accountants.end() ? 0.0 : it->second.window_spent();
}

ServiceStats& ServiceStats::operator+=(const ServiceStats& other) {
  // Every field is a uint64_t counter; a field added without a line here
  // fails this check instead of silently dropping out of every sum.
  static_assert(sizeof(ServiceStats) == 22 * sizeof(uint64_t),
                "ServiceStats::operator+= must add every counter");
  served += other.served;
  refused_budget += other.refused_budget;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_invalidations += other.cache_invalidations;
  sampler_reuses += other.sampler_reuses;
  audit_serves += other.audit_serves;
  audit_list_serves += other.audit_list_serves;
  delta_kept += other.delta_kept;
  delta_patched += other.delta_patched;
  delta_recomputed += other.delta_recomputed;
  journal_fallbacks += other.journal_fallbacks;
  doomed_evictions += other.doomed_evictions;
  repair_ns += other.repair_ns;
  refused_window += other.refused_window;
  degraded_serves += other.degraded_serves;
  window_refreshes += other.window_refreshes;
  shed_overload += other.shed_overload;
  retries += other.retries;
  stale_fallback_serves += other.stale_fallback_serves;
  injected_faults += other.injected_faults;
  ledger_appends += other.ledger_appends;
  return *this;
}

ServiceStats RecommendationService::stats() const {
  ServiceStats total;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.stats;
    total.shed_overload +=
        shard.shed_overload.load(std::memory_order_relaxed);
    total.retries += shard.retries.load(std::memory_order_relaxed);
  }
  if (options_.fault_injector != nullptr) {
    // Graph-layer fires (journal compaction + patch fails) and
    // persist-layer fires (torn WAL/ledger appends, checkpoint crashes)
    // are recorded by the injector, not any shard; fold them in once so
    // injected_faults covers the whole stack.
    total.injected_faults += options_.fault_injector->graph_fires();
    total.injected_faults += options_.fault_injector->persist_fires();
  }
  return total;
}

}  // namespace privrec
