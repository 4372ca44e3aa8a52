#ifndef OIPA_GRAPH_GRAPH_H_
#define OIPA_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace oipa {

/// Vertex identifier: dense, 0-based.
using VertexId = int32_t;
/// Edge identifier: dense, 0-based; indexes per-edge attribute arrays.
using EdgeId = int64_t;

/// A directed edge (source, target).
struct Edge {
  VertexId src;
  VertexId dst;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  }
};

/// Immutable directed graph in compressed sparse row form, with both
/// forward (out-neighbor) and reverse (in-neighbor) adjacency. Every edge
/// has a stable EdgeId shared by both directions, so per-edge attributes
/// (e.g. topic-wise influence probabilities) are stored in parallel arrays
/// indexed by EdgeId.
///
/// Construct via GraphBuilder (graph_builder.h) or the generators
/// (generators.h); the constructor below takes a deduplicated,
/// source-sorted edge list.
class Graph {
 public:
  /// Builds CSR from `edges`, which must be sorted by (src, dst) and free
  /// of duplicates and self-loops (GraphBuilder enforces this). EdgeId i
  /// corresponds to edges[i].
  Graph(VertexId num_vertices, std::vector<Edge> edges);

  /// An empty graph with `num_vertices` isolated vertices.
  static Graph Empty(VertexId num_vertices);

  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  /// The i-th edge (EdgeId -> endpoints).
  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Out-neighbors of v as (neighbor, edge id) pairs.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_nbrs_.data() + out_offsets_[v],
            out_nbrs_.data() + out_offsets_[v + 1]};
  }
  std::span<const EdgeId> OutEdgeIds(VertexId v) const {
    return {out_edge_ids_.data() + out_offsets_[v],
            out_edge_ids_.data() + out_offsets_[v + 1]};
  }

  /// In-neighbors of v (sources of edges pointing at v) with edge ids.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_nbrs_.data() + in_offsets_[v],
            in_nbrs_.data() + in_offsets_[v + 1]};
  }
  std::span<const EdgeId> InEdgeIds(VertexId v) const {
    return {in_edge_ids_.data() + in_offsets_[v],
            in_edge_ids_.data() + in_offsets_[v + 1]};
  }
  /// Position of v's first in-edge in the reverse-CSR order, the order
  /// InNeighbors/InEdgeIds list them in. Per-edge arrays kept in that
  /// order (InfluenceGraph::InProbs) are sliced with it.
  int64_t InOffset(VertexId v) const { return in_offsets_[v]; }

  int64_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  int64_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Average out-degree m/n (0 for empty vertex set).
  double AverageDegree() const;

  /// Out-degree sequence as doubles (for power-law fitting).
  std::vector<double> OutDegreeSequence() const;

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;

  std::vector<int64_t> out_offsets_;
  std::vector<VertexId> out_nbrs_;
  std::vector<EdgeId> out_edge_ids_;

  std::vector<int64_t> in_offsets_;
  std::vector<VertexId> in_nbrs_;
  std::vector<EdgeId> in_edge_ids_;
};

}  // namespace oipa

#endif  // OIPA_GRAPH_GRAPH_H_
