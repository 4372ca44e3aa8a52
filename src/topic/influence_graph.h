#ifndef OIPA_TOPIC_INFLUENCE_GRAPH_H_
#define OIPA_TOPIC_INFLUENCE_GRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "topic/campaign.h"
#include "topic/edge_topic_probs.h"

namespace oipa {

/// A homogeneous influence graph: the social graph plus one activation
/// probability per edge. This is what a single viral piece "sees": the
/// topic-aware model collapses to p(t, e) = t . p(e) for a piece t
/// (Section III-A of the paper).
///
/// The probabilities are stored twice: in EdgeId order for the forward
/// users (cascades, LT weights, heuristics) and in the graph's in-edge
/// (reverse-CSR) order, so the reverse BFS of RR sampling reads them as
/// a contiguous stream beside InNeighbors instead of gathering one
/// EdgeId-indexed float per examined edge.
class InfluenceGraph {
 public:
  InfluenceGraph(const Graph* graph, std::vector<float> edge_probs);

  /// Collapses the topic-aware probabilities for one piece.
  static InfluenceGraph ForPiece(const Graph& graph,
                                 const EdgeTopicProbs& probs,
                                 const TopicVector& piece);

  /// Topic-blind collapse: mean probability across all topics (what the
  /// classical-IM baseline runs on).
  static InfluenceGraph TopicBlind(const Graph& graph,
                                   const EdgeTopicProbs& probs);

  /// Uniform probability p on every edge (classic IC benchmarks).
  static InfluenceGraph Uniform(const Graph& graph, float p);

  /// Weighted-cascade: probability 1/in-degree(dst) on each edge.
  static InfluenceGraph WeightedCascade(const Graph& graph);

  const Graph& graph() const { return *graph_; }
  float EdgeProb(EdgeId e) const { return edge_probs_[e]; }
  const std::vector<float>& edge_probs() const { return edge_probs_; }

  /// Probabilities of v's in-edges, parallel to graph().InNeighbors(v):
  /// InProbs(v)[i] == EdgeProb(graph().InEdgeIds(v)[i]).
  std::span<const float> InProbs(VertexId v) const {
    return {in_probs_.data() + graph_->InOffset(v),
            static_cast<size_t>(graph_->InDegree(v))};
  }

 private:
  /// Tag for probabilities already known to lie in [0, 1] (collapses).
  struct Trusted {};
  /// Derives the in-edge-order copy; the public constructor adds the
  /// range check.
  InfluenceGraph(const Graph* graph, std::vector<float> edge_probs, Trusted);

  /// ForPiece for every entry of `pieces`, in one pass over the edges.
  static std::vector<InfluenceGraph> ForPieces(
      const Graph& graph, const EdgeTopicProbs& probs,
      const std::vector<const TopicVector*>& pieces);

  friend std::vector<InfluenceGraph> BuildPieceGraphs(
      const Graph& graph, const EdgeTopicProbs& probs,
      const Campaign& campaign);

  const Graph* graph_;  // not owned
  std::vector<float> edge_probs_;  // EdgeId order
  std::vector<float> in_probs_;    // reverse-CSR order
};

/// Builds one InfluenceGraph per campaign piece. The returned graphs alias
/// `graph`, which must outlive them.
std::vector<InfluenceGraph> BuildPieceGraphs(const Graph& graph,
                                             const EdgeTopicProbs& probs,
                                             const Campaign& campaign);

}  // namespace oipa

#endif  // OIPA_TOPIC_INFLUENCE_GRAPH_H_
