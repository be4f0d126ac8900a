#ifndef PRIVREC_UTILITY_SENSITIVITY_H_
#define PRIVREC_UTILITY_SENSITIVITY_H_

#include <cstddef>

#include "graph/csr_graph.h"
#include "random/rng.h"
#include "utility/utility_function.h"

namespace privrec {

/// Result of empirical sensitivity probing.
struct SensitivityEstimate {
  double max_l1 = 0;   // largest observed ||u^G - u^{G'}||_1
  double mean_l1 = 0;  // mean over probes
  size_t samples = 0;
};

/// L1 distance ||a - b||_1 between two utility vectors over the union of
/// their nonzero supports, accumulated in a workspace counter (no per-call
/// hash map). The vectors must address node ids the workspace's counters
/// can hold (anything produced by a Compute that prepared this workspace
/// qualifies).
double UtilityVectorL1Distance(const UtilityVector& a, const UtilityVector& b,
                               UtilityWorkspace& workspace);

/// Exact L1 distance between the utility vectors of `target` on `a` and
/// `b` (zero-padded over the union of nonzero supports). The workspace
/// overload reuses the caller's scratch across both Computes and the
/// accumulation; the convenience form allocates a throwaway workspace.
double UtilityL1Distance(const UtilityFunction& utility, const CsrGraph& a,
                         const CsrGraph& b, NodeId target,
                         UtilityWorkspace& workspace);
double UtilityL1Distance(const UtilityFunction& utility, const CsrGraph& a,
                         const CsrGraph& b, NodeId target);

/// Probes the edge sensitivity of `utility` at `target` by toggling
/// `num_samples` random node pairs (adding the edge if absent, removing it
/// if present) and measuring the L1 utility change. With `relaxed` (the
/// paper's Section 3.2 variant) pairs incident to the target are skipped.
///
/// The sampling loop computes the base vector once and each sample's
/// perturbed vector with one Compute on a perturbed CSR (the CSR
/// materialization already costs the same order as the traversal); the
/// diff is accumulated in a workspace counter, not a per-sample hash
/// map. The workspace overload additionally reuses the caller's scratch
/// buffers; one workspace is reused across the whole loop either way.
///
/// The observed max is a *lower* bound on the true global sensitivity; the
/// analytic SensitivityBound is an upper bound. Tests assert
///   max_observed <= SensitivityBound  on every graph/utility pair.
SensitivityEstimate EstimateEdgeSensitivity(const CsrGraph& graph,
                                            const UtilityFunction& utility,
                                            NodeId target, size_t num_samples,
                                            Rng& rng, bool relaxed,
                                            UtilityWorkspace& workspace);
SensitivityEstimate EstimateEdgeSensitivity(const CsrGraph& graph,
                                            const UtilityFunction& utility,
                                            NodeId target, size_t num_samples,
                                            Rng& rng, bool relaxed = true);

}  // namespace privrec

#endif  // PRIVREC_UTILITY_SENSITIVITY_H_
