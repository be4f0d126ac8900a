#ifndef PRIVREC_CORE_PRIVACY_ACCOUNTANT_H_
#define PRIVREC_CORE_PRIVACY_ACCOUNTANT_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"

namespace privrec {

/// Which neighboring-graph relation the deployment's guarantee is stated
/// against (Definition 1 vs Appendix A):
///  - kEdge: neighbors differ in ONE edge; utilities are calibrated with
///    UtilityFunction::SensitivityBound.
///  - kNode: neighbors differ in one node's ENTIRE neighborhood; serving
///    computes against the degree-capped projected view
///    (graph/degree_cap.h) and calibrates with NodeSensitivityBound, so
///    the rewired node moves at most D arcs per adjacency list.
enum class PrivacyModel { kEdge, kNode };

/// Continual-observation budget policy for long-lived users: lifetime ε is
/// the hard cap, but within it, spend is throttled to `refresh_epsilon`
/// per tumbling window of `window_length` requests (a request = one
/// budget-charging serve attempt against this principal's accountant,
/// counted whether or not it is ultimately refused). On exhaustion inside
/// a window the service either rejects until the window turns over
/// (kReject) or serves at release_epsilon / degrade_factor while the
/// cheaper charge still fits (kDegrade) — degraded answers are noisier,
/// never over-budget.
struct BudgetWindowPolicy {
  bool enabled = false;
  /// Requests per window; must be > 0 when enabled.
  uint64_t window_length = 0;
  /// ε spendable within one window; must be > 0 when enabled.
  double refresh_epsilon = 0;
  enum class Exhaustion { kReject, kDegrade };
  Exhaustion exhaustion = Exhaustion::kReject;
  /// kDegrade serves run at release_epsilon / degrade_factor (> 1).
  double degrade_factor = 4.0;
};

/// Sequential-composition privacy accountant. Pure-ε differential privacy
/// composes additively: releasing outputs of an ε₁-DP and an ε₂-DP
/// mechanism on the same graph is (ε₁+ε₂)-DP. This is the bookkeeping a
/// production deployment needs around the mechanisms in this library —
/// each recommendation served, each re-computation on a changed graph
/// (the paper's Section 8 dynamic setting), spends budget.
///
/// The accountant enforces a hard cap: Charge() fails once the cap would
/// be exceeded, which is the correct failure mode for a privacy system
/// (refuse service, never silently degrade the guarantee).
class PrivacyAccountant {
 public:
  /// `budget` is the total ε this principal may ever spend.
  explicit PrivacyAccountant(double budget);

  /// Accountant with a continual-observation window policy layered over
  /// the lifetime budget. CHECK-fails on a malformed enabled policy
  /// (window_length == 0, refresh_epsilon <= 0, degrade_factor <= 1).
  PrivacyAccountant(double budget, BudgetWindowPolicy window);

  double budget() const { return budget_; }
  double spent() const { return spent_; }
  double remaining() const { return budget_ - spent_; }

  /// True iff Charge(epsilon, ...) would succeed (same float-dust slack at
  /// the boundary). Lets callers refuse up front without side effects and
  /// then commit a Charge that cannot fail.
  bool CanCharge(double epsilon) const;

  /// Records an ε-expenditure. FailedPrecondition (and no charge) if it
  /// would exceed the budget; `reason` only names the charge in that
  /// refusal's message.
  Status Charge(double epsilon, std::string_view reason);

  /// Largest ε that can still be charged.
  double MaxAffordable() const { return remaining(); }

  /// RECOVERY ONLY: raises spent() to `spent` (no-op when already at or
  /// above it). Unlike Charge()
  /// this may push spent() past the budget — the recovered service then
  /// refuses every charge, which is the correct conservative posture when
  /// the durable ledger says a user already spent more than this
  /// accountant's cap. Never lowers spent(), and deliberately bypasses
  /// the window machinery: windows are request-clock-relative and the
  /// clock restarts with the process, while the lifetime spend must not.
  void RestoreSpent(double spent);

  const BudgetWindowPolicy& window_policy() const { return window_; }

  /// Advances the per-user request clock by one. Call EXACTLY ONCE per
  /// budget-charging request, before the affordability checks (the request
  /// belongs to the window it lands in). Returns true when the call
  /// crossed a window boundary and reset the window spend — the caller's
  /// window_refreshes stat. No-op returning false when the policy is
  /// disabled.
  bool AdvanceWindow();

  /// True iff `epsilon` also fits the CURRENT window's remaining refresh
  /// budget (vacuously true when the policy is disabled). Charge()
  /// enforces the same bound, so callers that pre-check can commit.
  bool CanChargeInWindow(double epsilon) const;

  /// Window spend / position observability (tests, dashboards).
  double window_spent() const { return window_spent_; }
  uint64_t window_index() const { return window_index_; }
  uint64_t requests_observed() const { return requests_; }
  uint64_t windows_refreshed() const { return windows_refreshed_; }

 private:
  double budget_;
  double spent_ = 0;
  BudgetWindowPolicy window_;
  double window_spent_ = 0;
  uint64_t window_index_ = 0;
  uint64_t requests_ = 0;
  uint64_t windows_refreshed_ = 0;
};

/// True iff `status` is the accountant's budget-exhausted refusal — the
/// one FailedPrecondition a serving layer treats as healthy back-pressure
/// rather than an error. Lives here so callers (drivers, dashboards,
/// tests) share one predicate instead of each matching the message text.
bool IsBudgetExhausted(const Status& status);

}  // namespace privrec

#endif  // PRIVREC_CORE_PRIVACY_ACCOUNTANT_H_
