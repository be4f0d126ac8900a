#include "core/privacy_accountant.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"

namespace privrec {

PrivacyAccountant::PrivacyAccountant(double budget) : budget_(budget) {
  PRIVREC_CHECK_GE(budget, 0.0);
}

PrivacyAccountant::PrivacyAccountant(double budget, BudgetWindowPolicy window)
    : budget_(budget), window_(window) {
  PRIVREC_CHECK_GE(budget, 0.0);
  if (window_.enabled) {
    PRIVREC_CHECK_GT(window_.window_length, 0u);
    PRIVREC_CHECK_GT(window_.refresh_epsilon, 0.0);
    PRIVREC_CHECK_GT(window_.degrade_factor, 1.0);
  }
}

namespace {

constexpr const char kExhaustedPrefix[] = "privacy budget exhausted";

}  // namespace

bool PrivacyAccountant::CanCharge(double epsilon) const {
  // Tolerate float dust at the boundary so k charges of budget/k succeed.
  return epsilon >= 0 && spent_ + epsilon <= budget_ * (1.0 + 1e-12) + 1e-12;
}

bool PrivacyAccountant::AdvanceWindow() {
  if (!window_.enabled) return false;
  const uint64_t index = requests_ / window_.window_length;
  ++requests_;
  if (index == window_index_) return false;
  // Crossing a boundary resets the window spend exactly once — the
  // tumbling-window refresh. (index can only ever be window_index_ + k for
  // k >= 1 since requests_ is monotone; each boundary is one refresh.)
  window_index_ = index;
  window_spent_ = 0;
  ++windows_refreshed_;
  return true;
}

bool PrivacyAccountant::CanChargeInWindow(double epsilon) const {
  if (!window_.enabled) return true;
  return epsilon >= 0 &&
         window_spent_ + epsilon <=
             window_.refresh_epsilon * (1.0 + 1e-12) + 1e-12;
}

Status PrivacyAccountant::Charge(double epsilon, std::string_view reason) {
  if (epsilon < 0) {
    return Status::InvalidArgument("cannot charge negative epsilon");
  }
  if (!CanCharge(epsilon)) {
    return Status::FailedPrecondition(
        std::string(kExhaustedPrefix) + ": spent " +
        FormatDouble(spent_, 4) + " of " + FormatDouble(budget_, 4) +
        ", cannot charge " + FormatDouble(epsilon, 4) + " for '" +
        std::string(reason) + "'");
  }
  if (!CanChargeInWindow(epsilon)) {
    // The window bound is enforced HERE too, not only in the caller's
    // pre-check: a buggy serve path can refuse, never overspend a window.
    return Status::FailedPrecondition(
        std::string(kExhaustedPrefix) + " (window): spent " +
        FormatDouble(window_spent_, 4) + " of " +
        FormatDouble(window_.refresh_epsilon, 4) + " in window " +
        std::to_string(window_index_) + ", cannot charge " +
        FormatDouble(epsilon, 4) + " for '" + std::string(reason) + "'");
  }
  spent_ += epsilon;
  window_spent_ += epsilon;
  return Status::OK();
}

void PrivacyAccountant::RestoreSpent(double spent) {
  // May exceed budget_: remaining() < 0 then refuses everything.
  spent_ = std::max(spent_, spent);
}

bool IsBudgetExhausted(const Status& status) {
  return status.IsFailedPrecondition() &&
         status.message().rfind(kExhaustedPrefix, 0) == 0;
}

}  // namespace privrec
