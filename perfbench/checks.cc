#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "core/exponential_mechanism.h"
#include "utility/common_neighbors.h"

namespace perfbench {
namespace {

std::string Format(const char* fmt, double a, double b, double c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

void CheckPicks(const WorkloadConfig& config, const std::vector<Op>& ops,
                const std::vector<OpResult>& results,
                const std::vector<NodeId>& list_picks, const CsrGraph& view,
                CheckReport& report) {
  std::unordered_set<uint64_t> toggled_pairs;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kToggle) toggled_pairs.insert(PairKey(op.u, op.v));
  }
  uint64_t checked = 0;
  uint64_t skipped = 0;
  uint64_t invalid = 0;
  auto valid = [&](NodeId user, NodeId pick) {
    if (pick >= view.num_nodes() || pick == user) return false;
    if (toggled_pairs.count(PairKey(user, pick)) > 0) {
      ++skipped;
      return true;
    }
    ++checked;
    return !view.HasEdge(user, pick);
  };
  auto fail = [&](size_t i, const char* what) {
    if (++invalid <= 5) {
      report.Fail("op " + std::to_string(i) + " (user " +
                  std::to_string(ops[i].u) + "): " + what);
    }
  };
  std::vector<NodeId> list;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!results[i].ok) continue;
    if (ops[i].kind == OpKind::kSingle) {
      if (!valid(ops[i].u, results[i].pick)) fail(i, "single pick invalid");
    } else if (ops[i].kind == OpKind::kList) {
      list.assign(list_picks.begin() + i * config.list_k,
                  list_picks.begin() + (i + 1) * config.list_k);
      for (NodeId pick : list) {
        if (!valid(ops[i].u, pick)) fail(i, "list entry invalid");
      }
      std::sort(list.begin(), list.end());
      if (std::adjacent_find(list.begin(), list.end()) != list.end()) {
        fail(i, "list entries not distinct");
      }
    }
  }
  if (invalid > 5) {
    report.Fail(std::to_string(invalid) + " invalid picks in total");
  }
  report.notes.push_back("pick validity: " + std::to_string(checked) +
                         " neighbour tests, " + std::to_string(skipped) +
                         " skipped (pair toggled during the run), " +
                         std::to_string(invalid) + " invalid");
}

PickStats ClassifySinglePicks(const std::vector<Op>& ops,
                              const std::vector<OpResult>& results,
                              const CsrGraph& view, double epsilon,
                              double sensitivity) {
  std::vector<std::pair<NodeId, size_t>> by_user;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kSingle && results[i].ok) {
      by_user.emplace_back(ops[i].u, i);
    }
  }
  std::sort(by_user.begin(), by_user.end());

  const privrec::CommonNeighborsUtility utility;
  const privrec::ExponentialMechanism mechanism(epsilon, sensitivity);
  privrec::UtilityWorkspace workspace;
  std::vector<privrec::UtilityEntry> support;
  PickStats stats;
  for (size_t g = 0; g < by_user.size();) {
    const NodeId user = by_user[g].first;
    size_t end = g;
    while (end < by_user.size() && by_user[end].first == user) ++end;

    const privrec::UtilityVector vec = utility.Compute(view, user, workspace);
    auto dist = mechanism.Distribution(vec);
    if (!dist.ok()) {
      std::fprintf(stderr, "Distribution failed for user %u: %s\n", user,
                   dist.status().ToString().c_str());
      std::exit(2);
    }
    const double u_max = vec.max_utility();
    double acc = 0;
    double acc2 = 0;
    if (u_max > 0) {
      for (size_t j = 0; j < vec.nonzero().size(); ++j) {
        const double a = vec.nonzero()[j].utility / u_max;
        acc += a * dist->nonzero_probs[j];
        acc2 += a * a * dist->nonzero_probs[j];
      }
    }
    support = vec.nonzero();
    std::sort(support.begin(), support.end(),
              [](const auto& a, const auto& b) { return a.node < b.node; });
    const double z = dist->zero_block_prob;
    for (size_t j = g; j < end; ++j) {
      const NodeId pick = results[by_user[j].second].pick;
      auto it = std::lower_bound(
          support.begin(), support.end(), pick,
          [](const privrec::UtilityEntry& e, NodeId v) { return e.node < v; });
      const bool in_support = it != support.end() && it->node == pick;
      ++stats.picks;
      stats.zero_picks += in_support ? 0.0 : 1.0;
      stats.zero_expected += z;
      stats.zero_variance += z * (1 - z);
      if (u_max > 0) {
        ++stats.accuracy_picks;
        stats.accuracy_sum += in_support ? it->utility / u_max : 0.0;
        stats.accuracy_expected += acc;
        stats.accuracy_variance += std::max(0.0, acc2 - acc * acc);
      }
    }
    g = end;
  }
  return stats;
}

void CheckPickDistribution(const PickStats& stats, CheckReport& report) {
  if (stats.picks == 0 || stats.accuracy_picks == 0) {
    report.Fail("no single picks to test against the mechanism");
    return;
  }
  const double zero_bound = kSigmas * std::sqrt(stats.zero_variance) + 1;
  const double acc_bound = kSigmas * std::sqrt(stats.accuracy_variance) + 1;
  const double zero_gap = std::abs(stats.zero_picks - stats.zero_expected);
  const double acc_gap = std::abs(stats.accuracy_sum - stats.accuracy_expected);
  const double n = static_cast<double>(stats.picks);
  const double m = static_cast<double>(stats.accuracy_picks);
  const std::string zero_line =
      Format("zero-pick share %.5f, exact expectation %.5f, bound ±%.5f",
             stats.zero_picks / n, stats.zero_expected / n, zero_bound / n);
  const std::string acc_line =
      Format("mean accuracy %.5f, exact expectation %.5f, bound ±%.5f",
             stats.accuracy_sum / m, stats.accuracy_expected / m, acc_bound / m);
  report.notes.push_back(zero_line);
  report.notes.push_back(acc_line);
  if (zero_gap > zero_bound) report.Fail(zero_line);
  if (acc_gap > acc_bound) report.Fail(acc_line);
}

}  // namespace perfbench
