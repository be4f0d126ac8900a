#include "graph/csr_graph.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace privrec {
namespace {

constexpr NodeId kBlockNodes = CsrGraph::kBlockNodes;
constexpr NodeId kChunkBlocks = CsrGraph::kChunkBlocks;

/// Allocates one block whose local slot i holds `list_of(i)` (an empty
/// span for slots past the graph's last node).
template <typename ListOf>
std::shared_ptr<const uint32_t[]> BuildBlock(ListOf list_of) {
  uint64_t arcs = 0;
  for (NodeId i = 0; i < kBlockNodes; ++i) arcs += list_of(i).size();
  PRIVREC_CHECK_LE(arcs, std::numeric_limits<uint32_t>::max())
      << "a block's arcs must fit its 32-bit local offsets";
  std::shared_ptr<uint32_t[]> block =
      std::make_shared_for_overwrite<uint32_t[]>(kBlockNodes + 1 + arcs);
  uint32_t* offsets = block.get();
  NodeId* targets = offsets + kBlockNodes + 1;
  uint32_t pos = 0;
  for (NodeId i = 0; i < kBlockNodes; ++i) {
    offsets[i] = pos;
    const std::span<const NodeId> list = list_of(i);
    std::copy(list.begin(), list.end(), targets + pos);
    pos += static_cast<uint32_t>(list.size());
  }
  offsets[kBlockNodes] = pos;
  return block;
}

}  // namespace

CsrGraph::CsrGraph(std::vector<uint64_t> offsets, std::vector<NodeId> targets,
                   bool directed)
    : num_arcs_(targets.size()), directed_(directed) {
  PRIVREC_CHECK(!offsets.empty()) << "offsets must have num_nodes+1 entries";
  PRIVREC_CHECK_EQ(offsets.front(), 0u);
  PRIVREC_CHECK_EQ(offsets.back(), targets.size());
  num_nodes_ = static_cast<NodeId>(offsets.size() - 1);
  const uint64_t num_blocks =
      (static_cast<uint64_t>(num_nodes_) + kBlockNodes - 1) / kBlockNodes;
  chunks_.reserve((num_blocks + kChunkBlocks - 1) / kChunkBlocks);
  for (uint64_t first = 0; first < num_blocks; first += kChunkBlocks) {
    auto chunk = std::make_shared<Chunk>();
    const uint64_t end = std::min<uint64_t>(num_blocks, first + kChunkBlocks);
    for (uint64_t b = first; b < end; ++b) {
      (*chunk)[b - first] =
          BuildBlock([&](NodeId i) -> std::span<const NodeId> {
            const uint64_t v = b * kBlockNodes + i;
            if (v >= num_nodes_) return {};
            return {targets.data() + offsets[v],
                    targets.data() + offsets[v + 1]};
          });
    }
    chunks_.push_back(std::move(chunk));
  }
}

CsrGraph CsrGraph::Empty(NodeId num_nodes, bool directed) {
  return CsrGraph(std::vector<uint64_t>(num_nodes + 1, 0), {}, directed);
}

bool CsrGraph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

uint32_t CsrGraph::MaxOutDegree() const {
  uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    best = std::max(best, OutDegree(v));
  }
  return best;
}

uint32_t CsrGraph::CountCommonNeighbors(NodeId u, NodeId v) const {
  auto a = OutNeighbors(u);
  auto b = OutNeighbors(v);
  uint32_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

bool CsrGraph::Equals(const CsrGraph& other) const {
  if (directed_ != other.directed_ || num_nodes_ != other.num_nodes_ ||
      num_arcs_ != other.num_arcs_) {
    return false;
  }
  // Equal node counts give equally shaped tables; slots past num_nodes()
  // are empty in both, so whole blocks compare word for word.
  for (size_t c = 0; c < chunks_.size(); ++c) {
    if (chunks_[c] == other.chunks_[c]) continue;
    for (NodeId i = 0; i < kChunkBlocks; ++i) {
      const uint32_t* mine = (*chunks_[c])[i].get();
      const uint32_t* theirs = (*other.chunks_[c])[i].get();
      if (mine == theirs) continue;  // shared, or both past the last block
      if (mine[kBlockNodes] != theirs[kBlockNodes] ||
          !std::equal(mine, mine + kBlockNodes + 1 + mine[kBlockNodes],
                      theirs)) {
        return false;
      }
    }
  }
  return true;
}

void CsrGraph::SetBlock(uint64_t b, Block block) {
  const uint64_t c = b / kChunkBlocks;
  auto chunk = c < chunks_.size() ? std::make_shared<Chunk>(*chunks_[c])
                                  : std::make_shared<Chunk>();
  (*chunk)[b % kChunkBlocks] = std::move(block);
  if (c < chunks_.size()) {
    chunks_[c] = std::move(chunk);
  } else {
    chunks_.push_back(std::move(chunk));
  }
}

void CsrGraph::SetOutNeighbors(NodeId v, std::span<const NodeId> neighbors) {
  PRIVREC_CHECK_LT(v, num_nodes_);
  // The new block is complete before SetBlock drops this graph's reference
  // to the old one, so `neighbors` may point into it.
  const uint32_t* old = BlockOf(v);
  const NodeId local = v % kBlockNodes;
  num_arcs_ = num_arcs_ - OutDegree(v) + neighbors.size();
  SetBlock(v / kBlockNodes, BuildBlock([&](NodeId i) {
             return i == local ? neighbors : ListIn(old, i);
           }));
}

NodeId CsrGraph::AddNode() {
  if (num_nodes_ % kBlockNodes == 0) {
    SetBlock(num_nodes_ / kBlockNodes,
             BuildBlock([](NodeId) { return std::span<const NodeId>(); }));
  }
  return num_nodes_++;
}

}  // namespace privrec
