#ifndef PRIVREC_UTILITY_LINK_PREDICTORS_H_
#define PRIVREC_UTILITY_LINK_PREDICTORS_H_

#include "utility/utility_function.h"

namespace privrec {

/// Additional link-prediction utilities from Liben-Nowell & Kleinberg's
/// catalogue (the paper draws its utility-function axioms from that work
/// and lists "other utility functions" as future work, Section 8). All
/// satisfy exchangeability by construction; all are 2-hop-local except
/// Katz, which truncates like the weighted-paths family.

/// Jaccard coefficient: u_i = |N(r) ∩ N(i)| / |N(r) ∪ N(i)|.
/// Normalized common neighbors; popular candidates are discounted by
/// their own degree.
class JaccardUtility : public UtilityFunction {
 public:
  std::string name() const override { return "jaccard"; }

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override;

  // Not incremental: an exact keep test must read candidate degrees (the
  // union term), which depend on edges not incident to the target, so the
  // repair route would leak them (see UtilityFunction::EdgeDeltaAffects).
  // Every graph change recomputes this utility's entries.

  /// One edge toggle moves the intersection by <= 1 and the union by <= 1
  /// for up to two affected candidates, each term bounded by 1 (Jaccard is
  /// in [0,1] and changes by at most 1 per candidate); additionally the
  /// toggle shifts the union size for every candidate adjacent to an
  /// endpoint, each shift <= 1/|union| <= 1/2... conservatively 2 per
  /// orientation: Δf <= 4 undirected, 2 directed.
  double SensitivityBound(const CsrGraph& graph) const override;

  /// Promoting to Jaccard 1 means matching r's neighborhood exactly:
  /// d_r additions (+2 bookkeeping), as for common neighbors.
  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override;
};

/// Preferential-attachment score: u_i = deg(r) · deg(i). Degenerate as a
/// personalized signal (it ignores the relationship between r and i
/// entirely) but a standard baseline — and an instructive extreme for the
/// concentration axiom: utility concentrates on global hubs.
class PreferentialAttachmentUtility : public UtilityFunction {
 public:
  std::string name() const override { return "preferential_attachment"; }

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override;

  /// An edge toggle can (a) shift two candidates' degrees (±d_r each) and
  /// (b) add/remove an entire candidate from the 2-hop pool, whose full
  /// score d_r·(deg+1) <= d_max·(d_max+1) then appears/vanishes. Per
  /// orientation: d_max·(d_max+2); doubled for undirected graphs. PA's
  /// huge sensitivity is the point — it is the cautionary extreme among
  /// the predictors (hub-utility functions are nearly impossible to
  /// privatize).
  double SensitivityBound(const CsrGraph& graph) const override;

  /// Make the promoted node the global degree champion: d_max + 1
  /// additions suffice (+1 slack for ties).
  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override;
};

/// Resource-allocation index (Zhou-Lü-Zhang): u_i = Σ_{z ∈ CN} 1/deg(z).
/// Adamic–Adar's harsher cousin; the best-performing 2-hop heuristic on
/// many social graphs.
class ResourceAllocationUtility : public UtilityFunction {
 public:
  std::string name() const override { return "resource_allocation"; }

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override;

  /// Same two-hop weighted-count shape as Adamic-Adar (weight 1/deg), so
  /// the structural keep test (EdgeDeltaAffectsTarget) is exact.
  bool SupportsIncrementalUpdate() const override { return true; }

  /// New common-neighbor term <= 1/1 = 1 (clamped at degree 1... degree of
  /// an intermediate on a path is >= 2 after the toggle, so <= 1/2);
  /// degree-shift term: d·(1/d - 1/(d+1)) = 1/(d+1) <= 1/2. Bound: 1 per
  /// orientation.
  double SensitivityBound(const CsrGraph& graph) const override;

  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override;
};

/// Truncated Katz index: u_i = Σ_{l=1..L} β^l · |walks_l(r, i)| over walks
/// avoiding r as an intermediate. Unlike WeightedPathsUtility this keeps
/// the l=1 term and uses walk (not simple-path) counts, matching Katz's
/// original definition; candidates adjacent to r are excluded from the
/// output anyway, so the l=1 term only matters through longer walks.
class KatzUtility : public UtilityFunction {
 public:
  explicit KatzUtility(double beta = 0.05, int max_length = 4);

  std::string name() const override;

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override;

  // Not incremental: an exact keep test must follow walks past the
  // target's own adjacency, so its verdict would depend on edges the
  // relaxed edge-DP keeps private. Every graph change recomputes.

  /// Geometric series bound: a toggled edge can appear in at most
  /// L·d_max^{L-2} truncated walks per orientation, each weighted <= β²
  /// for walks of length >= 2; dominated by β·(1 + L·(β·d_max)^{L-2})…
  /// computed conservatively in the .cc.
  double SensitivityBound(const CsrGraph& graph) const override;

  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override;

 private:
  double beta_;
  int max_length_;
};

}  // namespace privrec

#endif  // PRIVREC_UTILITY_LINK_PREDICTORS_H_
