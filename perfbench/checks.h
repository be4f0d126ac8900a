#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "schedule.h"

namespace perfbench {

/// What one executed op returned. Times are steady-clock ns; `due_ns` is
/// absolute (phase origin + Op::due_ns).
struct OpResult {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
  bool ok = false;
  /// Single serves: the released node.
  NodeId pick = 0;
};

/// Collects failed output checks; the run is correct iff none failed.
struct CheckReport {
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  void Fail(std::string what) { failures.push_back(std::move(what)); }
  bool ok() const { return failures.empty(); }
};

/// Every released node is a valid candidate on `view` (the graph at the
/// end of the run): not the user, not the user's neighbour, and a list's
/// entries are distinct. The neighbour test is skipped only for a
/// (user, pick) pair the run itself toggled, whose answer may have changed
/// between the serve and the end of the run.
void CheckPicks(const WorkloadConfig& config, const std::vector<Op>& ops,
                const std::vector<OpResult>& results,
                const std::vector<NodeId>& list_picks, const CsrGraph& view,
                CheckReport& report);

/// Single picks classified against each user's support on `view`, and
/// the exact expectation of the same statistics under
/// ExponentialMechanism(epsilon, sensitivity).Distribution.
struct PickStats {
  uint64_t picks = 0;
  double zero_picks = 0;
  double zero_expected = 0;
  double zero_variance = 0;
  /// Accuracy u(pick)/u_max over picks of users with u_max > 0.
  uint64_t accuracy_picks = 0;
  double accuracy_sum = 0;
  double accuracy_expected = 0;
  double accuracy_variance = 0;
};
PickStats ClassifySinglePicks(const std::vector<Op>& ops,
                              const std::vector<OpResult>& results,
                              const CsrGraph& view, double epsilon,
                              double sensitivity);

/// The observed zero-pick count and accuracy sum must each lie within
/// kSigmas standard deviations (+1 for discreteness) of their exact
/// expectation. Valid only where the graph did not move during the run.
inline constexpr double kSigmas = 5.0;
void CheckPickDistribution(const PickStats& stats, CheckReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
