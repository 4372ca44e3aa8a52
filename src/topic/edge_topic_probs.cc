#include "topic/edge_topic_probs.h"

#include <algorithm>

#include "util/logging.h"

namespace oipa {

EdgeTopicProbs::EdgeTopicProbs(EdgeId num_edges, int num_topics)
    : num_topics_(num_topics) {
  OIPA_CHECK_GE(num_edges, 0);
  OIPA_CHECK_GT(num_topics, 0);
  offsets_.assign(num_edges + 1, 0);
}

void EdgeTopicProbs::SetEdge(EdgeId e, std::vector<TopicProb> entries) {
  OIPA_CHECK_EQ(e, next_edge_) << "SetEdge must be called in EdgeId order";
  OIPA_CHECK_LT(e, num_edges());
  std::sort(entries.begin(), entries.end(),
            [](const TopicProb& a, const TopicProb& b) {
              return a.topic < b.topic;
            });
  for (size_t i = 0; i < entries.size(); ++i) {
    OIPA_CHECK_GE(entries[i].topic, 0);
    OIPA_CHECK_LT(entries[i].topic, num_topics_);
    OIPA_CHECK_GE(entries[i].prob, 0.0f);
    OIPA_CHECK_LE(entries[i].prob, 1.0f);
    if (i > 0) OIPA_CHECK_NE(entries[i].topic, entries[i - 1].topic);
    entries_.push_back(entries[i]);
  }
  offsets_[e + 1] = static_cast<int64_t>(entries_.size());
  ++next_edge_;
}

double EdgeTopicProbs::AverageNonZeros() const {
  if (num_edges() == 0) return 0.0;
  return static_cast<double>(entries_.size()) /
         static_cast<double>(num_edges());
}

double EdgeTopicProbs::Prob(EdgeId e, int topic) const {
  for (const TopicProb& tp : EdgeEntries(e)) {
    if (tp.topic == topic) return tp.prob;
  }
  return 0.0;
}

double EdgeTopicProbs::PieceProb(EdgeId e, const TopicVector& piece) const {
  OIPA_CHECK_EQ(piece.num_topics(), num_topics_);
  return PieceProb(EdgeEntries(e), piece);
}

double EdgeTopicProbs::PieceProb(std::span<const TopicProb> entries,
                                 const TopicVector& piece) {
  double p = 0.0;
  for (const TopicProb& tp : entries) {
    p += piece[tp.topic] * static_cast<double>(tp.prob);
  }
  return std::clamp(p, 0.0, 1.0);
}

double EdgeTopicProbs::MeanProb(EdgeId e) const {
  double sum = 0.0;
  for (const TopicProb& tp : EdgeEntries(e)) sum += tp.prob;
  return sum / static_cast<double>(num_topics_);
}

}  // namespace oipa
