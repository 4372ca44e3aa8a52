#include "rrset/mrr_collection.h"

#include "diffusion/lt_cascade.h"
#include "rrset/rr_sampler.h"
#include "util/logging.h"
#include "util/threading.h"

namespace oipa {

MrrCollection MrrCollection::Generate(
    std::span<const InfluenceGraph> piece_graphs, int64_t theta,
    uint64_t seed, DiffusionModel model, int num_threads) {
  OIPA_CHECK_GE(theta, 0);
  OIPA_CHECK(!piece_graphs.empty());
  const VertexId n = piece_graphs[0].graph().num_vertices();

  MrrCollection mc;
  mc.theta_ = 0;
  mc.num_pieces_ = static_cast<int>(piece_graphs.size());
  mc.num_vertices_ = n;
  mc.base_seed_ = seed;
  mc.model_ = model;
  mc.extendable_ = true;
  mc.Extend(piece_graphs, theta, num_threads);
  return mc;
}

void MrrCollection::Extend(std::span<const InfluenceGraph> piece_graphs,
                           int64_t new_theta, int num_threads) {
  OIPA_CHECK(extendable_)
      << "Extend on a collection without sampling provenance";
  OIPA_CHECK_EQ(static_cast<int>(piece_graphs.size()), num_pieces_);
  const VertexId n = num_vertices_;
  for (const InfluenceGraph& ig : piece_graphs) {
    OIPA_CHECK_EQ(ig.graph().num_vertices(), n)
        << "all pieces must share the social graph";
  }
  OIPA_CHECK_LE(new_theta, kMaxTheta) << "sample ids are 32-bit";
  if (new_theta <= theta_) return;
  const int64_t begin = theta_;
  const int64_t extra = new_theta - begin;
  const int ell = num_pieces_;
  if (n == 0) {
    // No vertices: every sample is empty and there is nothing to index.
    theta_ = new_theta;
    return;
  }

  // Precompute LT weights once per piece when sampling under LT.
  std::vector<std::vector<float>> lt_weights;
  if (model_ == DiffusionModel::kLinearThreshold) {
    lt_weights.reserve(ell);
    for (const InfluenceGraph& ig : piece_graphs) {
      lt_weights.push_back(LtWeights(ig));
    }
  }

  // Shard-local buffers stitched afterwards, so results are independent
  // of the thread count (per-sample seeds fix the randomness).
  const int shards = ResolveThreadCount(num_threads);
  std::vector<std::vector<VertexId>> shard_roots(shards);
  std::vector<std::vector<int32_t>> shard_sizes(shards);
  std::vector<std::vector<VertexId>> shard_nodes(shards);

  ParallelFor(extra, shards, [&](int shard, int64_t lo, int64_t hi) {
    RrSampler sampler(n);
    std::vector<VertexId> set;
    auto& roots = shard_roots[shard];
    auto& sizes = shard_sizes[shard];
    auto& nodes = shard_nodes[shard];
    for (int64_t s = lo; s < hi; ++s) {
      const int64_t i = begin + s;
      Rng root_rng(PerSampleSeed(base_seed_, i, -1));
      const VertexId root = static_cast<VertexId>(root_rng.NextBounded(n));
      roots.push_back(root);
      for (int j = 0; j < ell; ++j) {
        Rng rng(PerSampleSeed(base_seed_, i, j));
        if (model_ == DiffusionModel::kLinearThreshold) {
          SampleLtRrSet(piece_graphs[j].graph(), lt_weights[j], root,
                        &rng, &set);
        } else {
          sampler.Sample(piece_graphs[j], root, &rng, &set);
        }
        sizes.push_back(static_cast<int32_t>(set.size()));
        nodes.insert(nodes.end(), set.begin(), set.end());
      }
    }
  });

  for (int shard = 0; shard < shards; ++shard) {
    roots_.insert(roots_.end(), shard_roots[shard].begin(),
                  shard_roots[shard].end());
    for (int32_t size : shard_sizes[shard]) {
      offsets_.push_back(offsets_.back() + size);
    }
    nodes_.insert(nodes_.end(), shard_nodes[shard].begin(),
                  shard_nodes[shard].end());
  }
  theta_ = new_theta;
  OIPA_CHECK_EQ(static_cast<int64_t>(roots_.size()), theta_);
  OIPA_CHECK_EQ(static_cast<int64_t>(offsets_.size()),
                theta_ * ell + 1);

  AppendIndexSegment(begin);
}

MrrCollection MrrCollection::FromParts(
    int64_t theta, int num_pieces, VertexId num_vertices,
    std::vector<VertexId> roots, std::vector<int64_t> offsets,
    std::vector<VertexId> nodes, uint64_t base_seed, DiffusionModel model,
    bool extendable) {
  OIPA_CHECK_GE(theta, 0);
  OIPA_CHECK_LE(theta, kMaxTheta) << "sample ids are 32-bit";
  OIPA_CHECK_GT(num_pieces, 0);
  OIPA_CHECK_GE(num_vertices, 0);
  OIPA_CHECK_EQ(static_cast<int64_t>(roots.size()), theta);
  OIPA_CHECK_EQ(static_cast<int64_t>(offsets.size()),
                theta * num_pieces + 1);
  OIPA_CHECK(offsets.empty() || offsets.front() == 0);
  OIPA_CHECK(offsets.empty() ||
             offsets.back() == static_cast<int64_t>(nodes.size()));
  for (size_t i = 1; i < offsets.size(); ++i) {
    OIPA_CHECK_LE(offsets[i - 1], offsets[i]);
  }
  for (VertexId v : nodes) {
    OIPA_CHECK_GE(v, 0);
    OIPA_CHECK_LT(v, num_vertices);
  }
  for (VertexId r : roots) {
    OIPA_CHECK_GE(r, 0);
    OIPA_CHECK_LT(r, num_vertices);
  }
  MrrCollection mc;
  mc.theta_ = theta;
  mc.num_pieces_ = num_pieces;
  mc.num_vertices_ = num_vertices;
  mc.base_seed_ = base_seed;
  mc.model_ = model;
  mc.extendable_ = extendable;
  mc.roots_ = std::move(roots);
  mc.offsets_ = std::move(offsets);
  mc.nodes_ = std::move(nodes);
  if (theta > 0 && num_vertices > 0) mc.AppendIndexSegment(0);
  return mc;
}

void MrrCollection::AppendIndexSegment(int64_t begin) {
  if (begin == theta_) return;  // zero-sample growth: nothing to index
  const int64_t keys =
      static_cast<int64_t>(num_pieces_) * (num_vertices_ + 1);
  IndexSegment seg;
  seg.begin_sample = begin;
  seg.end_sample = theta_;
  seg.offsets.assign(keys + 1, 0);
  if (num_pieces_ == 1) {
    // One piece (the IM baselines' RR sets): a member's key is the
    // vertex itself, so count in one flat pass with no per-set loop,
    // whose unpredictable trip counts would double the index time.
    const VertexId* member = nodes_.data() + offsets_[begin];
    const VertexId* const end = nodes_.data() + offsets_[theta_];
    for (; member != end; ++member) ++seg.offsets[*member + 1];
  } else {
    for (int64_t i = begin; i < theta_; ++i) {
      for (int j = 0; j < num_pieces_; ++j) {
        for (VertexId v : Set(i, j)) {
          const int64_t key =
              static_cast<int64_t>(j) * (num_vertices_ + 1) + v;
          ++seg.offsets[key + 1];
        }
      }
    }
  }
  for (int64_t k = 0; k < keys; ++k) seg.offsets[k + 1] += seg.offsets[k];
  seg.samples.resize(
      static_cast<size_t>(offsets_[theta_ * num_pieces_] -
                          offsets_[begin * num_pieces_]));
  std::vector<int64_t> fill(seg.offsets.begin(), seg.offsets.end() - 1);
  for (int64_t i = begin; i < theta_; ++i) {
    for (int j = 0; j < num_pieces_; ++j) {
      for (VertexId v : Set(i, j)) {
        const int64_t key =
            static_cast<int64_t>(j) * (num_vertices_ + 1) + v;
        seg.samples[fill[key]++] = static_cast<SampleId>(i);
      }
    }
  }
  segments_.push_back(std::move(seg));
}

int64_t MrrCollection::MemoryBytes() const {
  auto bytes = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  int64_t total = bytes(roots_) + bytes(offsets_) + bytes(nodes_);
  for (const IndexSegment& seg : segments_) {
    total += bytes(seg.offsets) + bytes(seg.samples);
  }
  return total;
}

std::vector<int64_t> MrrCollection::SamplesContaining(int piece,
                                                      VertexId v) const {
  std::vector<int64_t> out;
  ForEachSampleContaining(piece, v,
                          [&out](int64_t i) { out.push_back(i); });
  return out;
}

}  // namespace oipa
