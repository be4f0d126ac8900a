#include "core/mechanism.h"

#include <algorithm>

#include "common/radix_sort.h"

namespace privrec {
namespace {

/// Alias-table weights: one bucket per nonzero candidate plus, when the
/// zero block is nonempty, one aggregated bucket carrying its whole mass.
std::vector<double> SamplerWeights(const RecommendationDistribution& dist,
                                   uint64_t num_zero) {
  std::vector<double> weights = dist.nonzero_probs;
  if (num_zero > 0) weights.push_back(dist.zero_block_prob);
  return weights;
}

}  // namespace

RecommendationSampler::RecommendationSampler(const UtilityVector& utilities,
                                             RecommendationDistribution dist)
    : entries_(utilities.nonzero()),
      num_zero_(utilities.num_zero()),
      alias_(SamplerWeights(dist, utilities.num_zero())) {}

double RecommendationDistribution::ExpectedAccuracy(
    const UtilityVector& utilities) const {
  const double u_max = utilities.max_utility();
  if (u_max <= 0) return 0;
  double expected = 0;
  const auto& entries = utilities.nonzero();
  for (size_t i = 0; i < entries.size() && i < nonzero_probs.size(); ++i) {
    expected += entries[i].utility * nonzero_probs[i];
  }
  return expected / u_max;
}

SupportIndex::SupportIndex(const UtilityVector& utilities,
                           std::vector<NodeId>& scratch) {
  sorted_.reserve(utilities.nonzero().size());
  for (const UtilityEntry& e : utilities.nonzero()) sorted_.push_back(e.node);
  RadixSortKeys(sorted_, scratch);
}

SupportIndex::SupportIndex(const UtilityVector& utilities) {
  std::vector<NodeId> scratch;
  *this = SupportIndex(utilities, scratch);
}

Result<NodeId> ResolveZeroUtilityNode(const CsrGraph& graph,
                                      const UtilityVector& utilities,
                                      const SupportIndex& support,
                                      std::span<const NodeId> taken,
                                      Rng& rng) {
  if (utilities.num_zero() == 0) {
    return Status::FailedPrecondition("no zero-utility candidates");
  }
  const NodeId target = utilities.target();
  auto eligible = [&](NodeId v) {
    return v != target && !graph.HasEdge(target, v) && !support.Contains(v) &&
           std::find(taken.begin(), taken.end(), v) == taken.end();
  };
  // Zero-utility candidates are a constant fraction of V in all realistic
  // inputs, so rejection terminates fast. Rejection over uniform draws
  // conditioned on eligibility is uniform over the eligible set; so is the
  // pool draw that caps pathological graphs (a tiny zero block), which
  // keeps a single release uniform over the block rather than biased to
  // its lowest id.
  for (int attempt = 0; attempt < 256; ++attempt) {
    const NodeId v = static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
    if (eligible(v)) return v;
  }
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (eligible(v)) pool.push_back(v);
  }
  if (pool.empty()) {
    return Status::Internal("zero-utility candidate bookkeeping mismatch");
  }
  return pool[rng.NextBounded(pool.size())];
}

Result<NodeId> ResolveZeroUtilityNode(const CsrGraph& graph,
                                      const UtilityVector& utilities,
                                      Rng& rng) {
  return ResolveZeroUtilityNode(graph, utilities, SupportIndex(utilities), {},
                                rng);
}

}  // namespace privrec
