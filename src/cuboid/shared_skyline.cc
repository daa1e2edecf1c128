#include "cuboid/shared_skyline.h"

namespace caqe {

SharedSkylineEvaluator::SharedSkylineEvaluator(const MinMaxCuboid* cuboid,
                                               bool dva_mode)
    : cuboid_(cuboid), dva_mode_(dva_mode) {
  CAQE_CHECK(cuboid_ != nullptr);
  root_ = std::make_unique<IncrementalSkyline>(cuboid_->union_space().Dims());
  const auto& nodes = cuboid_->nodes();
  node_skylines_.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].subspace == cuboid_->union_space()) {
      root_alias_node_ = static_cast<int>(i);
    } else {
      node_skylines_[i] =
          std::make_unique<IncrementalSkyline>(nodes[i].subspace.Dims());
    }
  }
  accepted_scratch_.resize(nodes.size(), 0);
}

SharedInsertOutcome SharedSkylineEvaluator::Insert(const double* values,
                                                   int64_t id,
                                                   int64_t* comparisons) {
  return InsertReusing(values, id, comparisons);
}

const SharedInsertOutcome& SharedSkylineEvaluator::InsertReusing(
    const double* values, int64_t id, int64_t* comparisons) {
  SharedInsertOutcome& out = outcome_;
  out.accepted = QuerySet{};
  out.evictions.clear();

  // Every per-node insert below runs the batched dominance scans of
  // IncrementalSkyline::InsertInto (one SIMD kernel call per window phase);
  // the strictly_dominated bit feeding the Theorem-1 gate comes from the
  // kernel's all-dimension strict flag, so gating decisions are identical
  // to the scalar path's.
  evicted_scratch_.clear();
  bool root_strict = false;
  const bool root_accepted = root_->InsertInto(
      values, id, evicted_scratch_, &root_strict, comparisons);
  const auto& nodes = cuboid_->nodes();

  // Scratch codes: 0 = rejected by a strict dominator (gate children),
  // 1 = accepted, 2 = rejected by a tied dominator (children must still
  // see the tuple — a tie on their dimensions breaks Theorem 1's
  // strictness argument).
  const char root_code = root_accepted ? 1 : (root_strict ? 0 : 2);

  // Nodes are ordered feeders-first (descending subspace size), so
  // accepted_scratch_[feeder] is final before a fed node is visited.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const CuboidNode& node = nodes[i];
    if (!released_.empty() && released_[i]) {
      // Code 2 (pass-through) is safe: the feeder closure guarantees no
      // kept node reads a released node's scratch, and 2 never gates.
      accepted_scratch_[i] = 2;
      continue;
    }
    if (static_cast<int>(i) == root_alias_node_) {
      accepted_scratch_[i] = root_code;
      node.preference_of.ForEach([&](int q) {
        if (root_accepted) out.accepted.Add(q);
        for (int64_t evicted_id : evicted_scratch_) {
          out.evictions.emplace_back(q, evicted_id);
        }
      });
      continue;
    }
    const char feeder_code = (node.feeder >= 0)
                                 ? accepted_scratch_[node.feeder]
                                 : root_code;
    if (dva_mode_ && feeder_code == 0) {
      // A strict dominator in the feeder space dominates strictly in every
      // subspace: gate the whole subtree.
      accepted_scratch_[i] = 0;
      continue;
    }
    node_evicted_scratch_.clear();
    bool node_strict = false;
    const bool node_accepted = node_skylines_[i]->InsertInto(
        values, id, node_evicted_scratch_, &node_strict, comparisons);
    accepted_scratch_[i] = node_accepted ? 1 : (node_strict ? 0 : 2);
    node.preference_of.ForEach([&](int q) {
      if (node_accepted) out.accepted.Add(q);
      for (int64_t evicted_id : node_evicted_scratch_) {
        out.evictions.emplace_back(q, evicted_id);
      }
    });
  }
  return out;
}

void SharedSkylineEvaluator::ReleaseQueries(const QuerySet& active_locals) {
  const auto& nodes = cuboid_->nodes();
  if (released_.empty()) released_.resize(nodes.size(), 0);
  std::vector<char> keep(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].preference_of.Intersects(active_locals)) keep[i] = 1;
  }
  // Feeders come before fed nodes, so a descending sweep closes the gating
  // chain: every kept node drags its feeder (transitively) into the keep
  // set before the feeder itself is visited.
  for (size_t i = nodes.size(); i-- > 0;) {
    if (keep[i] && nodes[i].feeder >= 0) keep[nodes[i].feeder] = 1;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (keep[i] || static_cast<int>(i) == root_alias_node_) continue;
    released_[i] = 1;
    node_skylines_[i].reset();
  }
}

const IncrementalSkyline& SharedSkylineEvaluator::query_skyline(int q) const {
  const int node = cuboid_->preference_node(q);
  return node_skyline(node);
}

const IncrementalSkyline& SharedSkylineEvaluator::node_skyline(int n) const {
  CAQE_DCHECK(n >= 0 && n < static_cast<int>(node_skylines_.size()));
  if (n == root_alias_node_) return *root_;
  return *node_skylines_[n];
}

}  // namespace caqe
