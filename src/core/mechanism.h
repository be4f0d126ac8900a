#ifndef PRIVREC_CORE_MECHANISM_H_
#define PRIVREC_CORE_MECHANISM_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "random/alias_sampler.h"
#include "random/rng.h"
#include "utility/utility_vector.h"

namespace privrec {

/// Sentinel for "a zero-utility candidate, identity not materialized".
inline constexpr NodeId kUnresolvedZeroNode =
    std::numeric_limits<NodeId>::max();

/// One drawn recommendation. When a mechanism lands in the zero-utility
/// block (whose members are not materialized in the UtilityVector), `node`
/// is kUnresolvedZeroNode; ResolveZeroUtilityNode picks a concrete uniform
/// member when an actual node id is needed.
struct Recommendation {
  NodeId node = kUnresolvedZeroNode;
  double utility = 0;
  bool from_zero_block = false;
};

/// Exact recommendation distribution of a mechanism on one utility vector:
/// per-nonzero-candidate probabilities plus the total mass of the zero
/// block (within which all candidates are exchangeable, hence uniform).
struct RecommendationDistribution {
  std::vector<double> nonzero_probs;  // aligned with UtilityVector::nonzero()
  double zero_block_prob = 0;

  /// Expected accuracy Σ u_i p_i / u_max (Definition 2's inner expression)
  /// under this distribution. Zero-block mass contributes no utility.
  double ExpectedAccuracy(const UtilityVector& utilities) const;
};

/// O(1)-per-draw sampler over one frozen recommendation distribution:
/// a Walker/Vose alias table over the nonzero candidates plus one
/// aggregated slot for the entire zero-utility block. Build once
/// (O(#nonzero)), then draw as many times as needed — the repeated-draw
/// workhorse behind Monte-Carlo accuracy loops, peeling top-k, and list
/// serving. Self-contained: it copies the (node, utility) entries, so it
/// may outlive the UtilityVector it was built from.
class RecommendationSampler {
 public:
  /// `dist` must be the mechanism's exact output distribution on
  /// `utilities` (aligned nonzero_probs + zero_block_prob).
  RecommendationSampler(const UtilityVector& utilities,
                        RecommendationDistribution dist);

  /// Index in [0, num_nonzero()] — num_nonzero() is the aggregated
  /// zero-block slot (only ever drawn when num_zero() > 0).
  size_t DrawIndex(Rng& rng) const { return alias_.Sample(rng); }

  /// One O(1) draw, distributed exactly as the originating mechanism's
  /// Recommend on the frozen utility vector.
  Recommendation Draw(Rng& rng) const {
    const size_t slot = DrawIndex(rng);
    if (slot == entries_.size()) {
      return Recommendation{kUnresolvedZeroNode, 0.0, true};
    }
    return Recommendation{entries_[slot].node, entries_[slot].utility, false};
  }

  size_t num_nonzero() const { return entries_.size(); }
  uint64_t num_zero() const { return num_zero_; }

  /// Exact probability of drawing nonzero entry i.
  double Probability(size_t i) const { return alias_.Probability(i); }

  /// Exact total probability of the zero-utility block.
  double ZeroBlockProbability() const {
    return num_zero_ == 0 ? 0.0 : alias_.Probability(entries_.size());
  }

  /// The (node, utility) entry behind nonzero slot i.
  const UtilityEntry& entry(size_t i) const { return entries_[i]; }

 private:
  std::vector<UtilityEntry> entries_;
  uint64_t num_zero_;
  AliasSampler alias_;
};

/// A (possibly randomized) single-recommendation algorithm R (Section 3.1):
/// a probability vector over candidates, determined by the utility vector.
/// Implementations declare their privacy guarantee via epsilon() (infinity
/// for non-private baselines).
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  virtual std::string name() const = 0;

  /// The ε of the mechanism's differential-privacy guarantee;
  /// +infinity when the mechanism is not private (R_best).
  virtual double epsilon() const = 0;

  /// Draws one recommendation. Fails with FailedPrecondition when the
  /// candidate set is empty.
  virtual Result<Recommendation> Recommend(const UtilityVector& utilities,
                                           Rng& rng) const = 0;

  /// Exact output distribution. Mechanisms without a closed form (Laplace
  /// for general n) return Unimplemented; use eval/accuracy.h instead.
  virtual Result<RecommendationDistribution> Distribution(
      const UtilityVector& utilities) const {
    (void)utilities;
    return Status::Unimplemented("no closed-form distribution for " + name());
  }

  /// Builds a frozen O(1)-per-draw sampler equivalent to Recommend on this
  /// utility vector. Only mechanisms whose exact distribution is cheap to
  /// materialize override this (ExponentialMechanism: one O(#nonzero)
  /// pass); the default is Unimplemented so repeated-draw call sites fall
  /// back to per-draw Recommend rather than silently paying an expensive
  /// build (Laplace's quadrature costs more than the draws it would save).
  virtual Result<RecommendationSampler> MakeSampler(
      const UtilityVector& utilities) const {
    (void)utilities;
    return Status::Unimplemented("no frozen sampler for " + name());
  }
};

/// Node-sorted index of one utility vector's nonzero support: zero-block
/// membership becomes an O(log s) binary search instead of an O(s) hash-set
/// build per resolution. Built once per vector with the linear radix sort
/// (common/radix_sort.h); 4 B per support entry. An index describes
/// exactly the vector it was built from and must be rebuilt whenever that
/// vector is replaced: a stale index would let a node that now has positive
/// utility through as a uniform zero pick.
class SupportIndex {
 public:
  /// Indexes `utilities`' support; `scratch` is the sort's buffer, so a
  /// caller that rebuilds often can keep one and allocate only the index.
  SupportIndex(const UtilityVector& utilities, std::vector<NodeId>& scratch);
  explicit SupportIndex(const UtilityVector& utilities);

  /// Whether `node` has nonzero utility in the indexed vector.
  bool Contains(NodeId node) const {
    return std::binary_search(sorted_.begin(), sorted_.end(), node);
  }

 private:
  std::vector<NodeId> sorted_;
};

/// Uniformly samples a concrete zero-utility candidate id: a node that is
/// not the target, not an out-neighbor of the target, not in the nonzero
/// support (`support` must index `utilities`), and not in `taken` — the
/// picks a list already resolved, checked by a linear scan, so keep it
/// short (≤ k). Rejection over uniform node draws, then, if 256 draws all
/// miss, one uniform draw from the scanned eligible pool: uniform over the
/// eligible set either way, for single picks and lists alike.
/// FailedPrecondition if the zero block is empty; Internal if `taken`
/// exhausted it.
Result<NodeId> ResolveZeroUtilityNode(const CsrGraph& graph,
                                      const UtilityVector& utilities,
                                      const SupportIndex& support,
                                      std::span<const NodeId> taken,
                                      Rng& rng);

/// Single-pick convenience: builds a throwaway SupportIndex. Callers that
/// resolve repeatedly against one vector should keep the index instead.
Result<NodeId> ResolveZeroUtilityNode(const CsrGraph& graph,
                                      const UtilityVector& utilities,
                                      Rng& rng);

}  // namespace privrec

#endif  // PRIVREC_CORE_MECHANISM_H_
