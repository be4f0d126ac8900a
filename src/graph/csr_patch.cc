#include "graph/csr_patch.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace privrec {
namespace {

/// One net arc mutation after in-window cancellation.
struct ArcOp {
  NodeId src;
  NodeId dst;
  bool insert;  // false = erase
};

/// Expands the delta window into per-arc toggles, cancels inverse pairs,
/// and returns the surviving ops sorted by (src, dst). Fails on a net
/// count outside ±1 (a toggle sequence the journal could never have
/// produced).
Status NetArcOps(const CsrGraph& prev, std::span<const EdgeDelta> deltas,
                 std::vector<ArcOp>* ops) {
  // Keyed aggregation on packed (src, dst); the window is small (the
  // caller bounds it by the journal capacity), so a sorted flat vector
  // beats hashing.
  std::vector<std::pair<uint64_t, int>> net;
  net.reserve(deltas.size() * 2);
  const NodeId num_nodes = prev.num_nodes();
  for (const EdgeDelta& delta : deltas) {
    if (delta.u >= num_nodes || delta.v >= num_nodes) {
      return Status::InvalidArgument("delta endpoint out of range");
    }
    const int sign = delta.added ? 1 : -1;
    net.emplace_back((static_cast<uint64_t>(delta.u) << 32) | delta.v, sign);
    if (!prev.directed()) {
      net.emplace_back((static_cast<uint64_t>(delta.v) << 32) | delta.u, sign);
    }
  }
  std::sort(net.begin(), net.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ops->clear();
  ops->reserve(net.size());
  for (size_t i = 0; i < net.size();) {
    const uint64_t key = net[i].first;
    int sum = 0;
    for (; i < net.size() && net[i].first == key; ++i) sum += net[i].second;
    if (sum == 0) continue;
    if (sum < -1 || sum > 1) {
      return Status::InvalidArgument("malformed journal window: |net| > 1");
    }
    ops->push_back(ArcOp{static_cast<NodeId>(key >> 32),
                         static_cast<NodeId>(key & 0xffffffffULL), sum > 0});
  }
  return Status::OK();
}

}  // namespace

Result<CsrGraph> PatchCsr(const CsrGraph& prev,
                          std::span<const EdgeDelta> deltas) {
  std::vector<ArcOp> ops;
  PRIVREC_RETURN_NOT_OK(NetArcOps(prev, deltas, &ops));

  // Validate every op against prev BEFORE sizing the output: the splice
  // below trusts that each insert lands in a fresh slot and each erase
  // matches a stored arc, and an inconsistent op at a high node id must
  // not let earlier (valid) inserts write past the net-sized buffer.
  for (const ArcOp& op : ops) {
    const bool present = prev.HasEdge(op.src, op.dst);
    if (op.insert && present) {
      return Status::InvalidArgument("net insertion of a present arc");
    }
    if (!op.insert && !present) {
      return Status::InvalidArgument("net deletion of an absent arc");
    }
  }

  const NodeId num_nodes = prev.num_nodes();
  int64_t arc_shift = 0;
  for (const ArcOp& op : ops) arc_shift += op.insert ? 1 : -1;
  const int64_t new_arc_count =
      static_cast<int64_t>(prev.num_arcs()) + arc_shift;
  if (new_arc_count < 0) {
    return Status::InvalidArgument("window erases more arcs than exist");
  }

  std::vector<uint64_t> offsets(static_cast<size_t>(num_nodes) + 1);
  std::vector<NodeId> targets(static_cast<size_t>(new_arc_count));
  offsets[0] = 0;

  // One sweep over the node range. `ops` is grouped by src ascending, so
  // between consecutive touched nodes we bulk-copy the untouched span and
  // re-base its offsets by the running shift; at a touched node we merge
  // its sorted neighbor list against its sorted op group.
  size_t oi = 0;                // next op
  NodeId copied_through = 0;    // nodes whose spans are already emitted
  uint64_t write_pos = 0;       // next free slot in `targets`
  const auto copy_untouched = [&](NodeId end) {
    // Spans of [copied_through, end) are byte-identical to prev's.
    if (end > copied_through) {
      const std::span<const NodeId> first = prev.OutNeighbors(copied_through);
      const uint64_t span_arcs =
          (prev.OutNeighbors(end - 1).data() + prev.OutDegree(end - 1)) -
          first.data();
      if (span_arcs > 0) {
        std::memcpy(targets.data() + write_pos, first.data(),
                    span_arcs * sizeof(NodeId));
      }
      for (NodeId v = copied_through; v < end; ++v) {
        write_pos += prev.OutDegree(v);
        offsets[v + 1] = write_pos;
      }
      copied_through = end;
    }
  };

  while (oi < ops.size()) {
    const NodeId src = ops[oi].src;
    copy_untouched(src);
    // Merge prev's sorted neighbors of `src` with its op group.
    const std::span<const NodeId> nbrs = prev.OutNeighbors(src);
    size_t ni = 0;
    while (oi < ops.size() && ops[oi].src == src) {
      const ArcOp& op = ops[oi];
      while (ni < nbrs.size() && nbrs[ni] < op.dst) {
        targets[write_pos++] = nbrs[ni++];
      }
      if (op.insert) {
        if (ni < nbrs.size() && nbrs[ni] == op.dst) {
          return Status::InvalidArgument("net insertion of a present arc");
        }
        targets[write_pos++] = op.dst;
      } else {
        if (ni >= nbrs.size() || nbrs[ni] != op.dst) {
          return Status::InvalidArgument("net deletion of an absent arc");
        }
        ++ni;  // drop it
      }
      ++oi;
    }
    while (ni < nbrs.size()) targets[write_pos++] = nbrs[ni++];
    offsets[src + 1] = write_pos;
    copied_through = src + 1;
  }
  copy_untouched(num_nodes);
  // The per-node merges conserve arcs by construction; a mismatch here
  // would mean NetArcOps and the splice disagreed about the window.
  PRIVREC_CHECK_EQ(write_pos, targets.size());
  return CsrGraph(std::move(offsets), std::move(targets), prev.directed());
}

}  // namespace privrec
