#include "topic/influence_graph.h"

#include "util/logging.h"

namespace oipa {

InfluenceGraph::InfluenceGraph(const Graph* graph,
                               std::vector<float> edge_probs)
    : InfluenceGraph(graph, std::move(edge_probs), Trusted{}) {
  for (float p : edge_probs_) {
    OIPA_CHECK_GE(p, 0.0f);
    OIPA_CHECK_LE(p, 1.0f);
  }
}

InfluenceGraph::InfluenceGraph(const Graph* graph,
                               std::vector<float> edge_probs, Trusted)
    : graph_(graph), edge_probs_(std::move(edge_probs)) {
  OIPA_CHECK(graph_ != nullptr);
  OIPA_CHECK_EQ(static_cast<EdgeId>(edge_probs_.size()),
                graph_->num_edges());
  in_probs_.resize(edge_probs_.size());
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    const auto eids = graph_->InEdgeIds(v);
    float* out = in_probs_.data() + graph_->InOffset(v);
    for (size_t i = 0; i < eids.size(); ++i) out[i] = edge_probs_[eids[i]];
  }
}

std::vector<InfluenceGraph> InfluenceGraph::ForPieces(
    const Graph& graph, const EdgeTopicProbs& probs,
    const std::vector<const TopicVector*>& pieces) {
  OIPA_CHECK_EQ(probs.num_edges(), graph.num_edges());
  for (const TopicVector* piece : pieces) {
    OIPA_CHECK_EQ(piece->num_topics(), probs.num_topics());
  }
  // One pass over the topic entries serves every piece.
  std::vector<std::vector<float>> edge_probs(
      pieces.size(), std::vector<float>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const std::span<const TopicProb> entries = probs.EdgeEntries(e);
    for (size_t j = 0; j < pieces.size(); ++j) {
      edge_probs[j][e] = static_cast<float>(
          EdgeTopicProbs::PieceProb(entries, *pieces[j]));
    }
  }
  std::vector<InfluenceGraph> out;
  out.reserve(pieces.size());
  for (std::vector<float>& piece_probs : edge_probs) {
    out.push_back(InfluenceGraph(&graph, std::move(piece_probs), Trusted{}));
  }
  return out;
}

InfluenceGraph InfluenceGraph::ForPiece(const Graph& graph,
                                        const EdgeTopicProbs& probs,
                                        const TopicVector& piece) {
  return std::move(ForPieces(graph, probs, {&piece}).front());
}

InfluenceGraph InfluenceGraph::TopicBlind(const Graph& graph,
                                          const EdgeTopicProbs& probs) {
  OIPA_CHECK_EQ(probs.num_edges(), graph.num_edges());
  std::vector<float> edge_probs(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    edge_probs[e] = static_cast<float>(probs.MeanProb(e));
  }
  return InfluenceGraph(&graph, std::move(edge_probs));
}

InfluenceGraph InfluenceGraph::Uniform(const Graph& graph, float p) {
  return InfluenceGraph(
      &graph, std::vector<float>(graph.num_edges(), p));
}

InfluenceGraph InfluenceGraph::WeightedCascade(const Graph& graph) {
  std::vector<float> edge_probs(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const int64_t indeg = graph.InDegree(graph.edge(e).dst);
    edge_probs[e] = indeg > 0 ? 1.0f / static_cast<float>(indeg) : 0.0f;
  }
  return InfluenceGraph(&graph, std::move(edge_probs));
}

std::vector<InfluenceGraph> BuildPieceGraphs(const Graph& graph,
                                             const EdgeTopicProbs& probs,
                                             const Campaign& campaign) {
  std::vector<const TopicVector*> pieces;
  pieces.reserve(campaign.num_pieces());
  for (int j = 0; j < campaign.num_pieces(); ++j) {
    pieces.push_back(&campaign.piece(j).topics);
  }
  return InfluenceGraph::ForPieces(graph, probs, pieces);
}

}  // namespace oipa
