#ifndef PRIVREC_GRAPH_CSR_GRAPH_H_
#define PRIVREC_GRAPH_CSR_GRAPH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace privrec {

/// Node identifier. Graphs in scope (10^5..10^8 nodes in the paper's
/// discussion, 10^5 in its experiments) fit comfortably in 32 bits.
using NodeId = uint32_t;

/// Compressed-sparse-row graph: the substrate every utility function and
/// mechanism operates on.
///
/// - Directed graphs store out-adjacency; undirected graphs store each edge
///   as two arcs. `directed()` records which interpretation applies.
/// - Neighbor lists are sorted and duplicate-free, enabling O(log d)
///   HasEdge and linear-merge common-neighbor intersection.
///
/// Layout: nodes fall into fixed blocks of kBlockNodes consecutive ids.
/// Each block is one immutable shared allocation of 32-bit words — its
/// kBlockNodes + 1 local offsets followed by its nodes' targets — so
/// OutNeighbors(v) is one contiguous span inside v's block. Slots past
/// num_nodes() in the last block hold empty lists. The block pointers sit
/// in a two-level table: immutable shared chunks of kChunkBlocks pointers,
/// indexed by this graph's own vector of chunk pointers. A graph is that
/// vector plus its node and arc counts.
///
/// Copying a graph copies the chunk vector and shares every chunk and
/// block. The two edits (SetOutNeighbors, AddNode) change only this
/// instance: an edited block is rebuilt into a fresh allocation, its chunk
/// is copied with the new pointer swapped in, and no published block or
/// chunk is ever written. That is what lets DynamicGraph publish each
/// mutation as a snapshot sharing all but the toggled endpoints' blocks
/// with its predecessor, while readers keep the predecessor intact
/// (graph/csr_patch.h). A `const CsrGraph` is immutable and safe to share
/// across threads.
class CsrGraph {
 public:
  /// Nodes per block. A splice rebuilds whole blocks, so a smaller block
  /// is cheaper to rebuild but needs more pointers to index.
  static constexpr NodeId kBlockNodes = 128;

  /// Block pointers per chunk of the table. Copying a graph copies one
  /// shared_ptr per chunk, and an edit copies the kChunkBlocks pointers
  /// of its chunk, instead of one per block: each copy touches its
  /// target's reference count, which on a serving host is usually a cache
  /// miss. At 200k nodes a one-level table made the copy (and the later
  /// release) of 1,563 block pointers most of a toggle's cost.
  static constexpr NodeId kChunkBlocks = 32;

  /// Builds from flat per-arc vectors, split into blocks. `offsets` has
  /// num_nodes+1 entries; arcs of node v are targets[offsets[v]..
  /// offsets[v+1]). Neighbor lists must already be sorted and deduplicated
  /// (GraphBuilder guarantees this).
  CsrGraph(std::vector<uint64_t> offsets, std::vector<NodeId> targets,
           bool directed);

  /// Empty graph with `num_nodes` isolated nodes.
  static CsrGraph Empty(NodeId num_nodes, bool directed);

  CsrGraph(const CsrGraph&) = default;
  CsrGraph& operator=(const CsrGraph&) = default;
  CsrGraph(CsrGraph&&) noexcept = default;
  CsrGraph& operator=(CsrGraph&&) noexcept = default;

  NodeId num_nodes() const { return num_nodes_; }

  /// Number of stored arcs (directed edges). For undirected graphs this is
  /// twice num_edges().
  uint64_t num_arcs() const { return num_arcs_; }

  /// Logical edge count: arcs for directed graphs, arcs/2 for undirected.
  uint64_t num_edges() const {
    return directed_ ? num_arcs() : num_arcs() / 2;
  }

  bool directed() const { return directed_; }

  uint32_t OutDegree(NodeId v) const {
    const uint32_t* block = BlockOf(v);
    const NodeId local = v % kBlockNodes;
    return block[local + 1] - block[local];
  }

  /// Sorted out-neighbors of v.
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return ListIn(BlockOf(v), v % kBlockNodes);
  }

  /// O(log deg(u)) membership test for arc u -> v.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Largest out-degree over all nodes (the paper's d_max).
  uint32_t MaxOutDegree() const;

  /// Number of common out-neighbors |N(u) ∩ N(v)| via sorted merge.
  uint32_t CountCommonNeighbors(NodeId u, NodeId v) const;

  /// Structural equality (same node count, direction, and arcs).
  bool Equals(const CsrGraph& other) const;

  /// Replaces v's out-list with `neighbors` (sorted, duplicate-free; it may
  /// point into any graph, this one included). Rebuilds v's block into a
  /// fresh allocation and copies its chunk, O(block arcs + |neighbors| +
  /// kChunkBlocks); graphs that share the old block or chunk are
  /// unaffected.
  void SetOutNeighbors(NodeId v, std::span<const NodeId> neighbors);

  /// Appends an isolated node and returns its id. Shares every existing
  /// block; a new (empty) block is allocated, and the last chunk copied or
  /// a new one started, only when the last block is full.
  NodeId AddNode();

 private:
  static constexpr NodeId kChunkNodes = kBlockNodes * kChunkBlocks;

  /// kBlockNodes + 1 local offsets, then the block's targets.
  using Block = std::shared_ptr<const uint32_t[]>;
  /// Block pointers of kChunkBlocks consecutive blocks; entries past the
  /// last block are null.
  using Chunk = std::array<Block, kChunkBlocks>;

  const uint32_t* BlockOf(NodeId v) const {
    return (*chunks_[v / kChunkNodes])[v / kBlockNodes % kChunkBlocks].get();
  }

  /// The list in local slot `local` of `block`.
  static std::span<const NodeId> ListIn(const uint32_t* block, NodeId local) {
    const NodeId* targets = block + kBlockNodes + 1;
    return {targets + block[local], targets + block[local + 1]};
  }

  /// Points block `b` of this graph at `block`, through a fresh copy of
  /// its chunk (a fresh chunk when `b` starts one).
  void SetBlock(uint64_t b, Block block);

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  uint64_t num_arcs_ = 0;
  NodeId num_nodes_ = 0;
  bool directed_;
};

}  // namespace privrec

#endif  // PRIVREC_GRAPH_CSR_GRAPH_H_
