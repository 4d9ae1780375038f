#include "anchor/follower_oracle.h"

#include <algorithm>
#include <functional>

#include "graph/dynamic_csr.h"

namespace avt {

void FollowerOracle::ResizeScratch() {
  const size_t n = graph_->NumVertices();
  anchor_.Resize(n);
  bump_.Resize(n);
  deg_minus_.Resize(n);
  in_heap_.Resize(n);
  candidate_.Resize(n);
  eliminated_.Resize(n);
  support_.Resize(n);
  base_anchor_.Resize(n);
  base_bump_.Resize(n);
  base_deg_minus_.Resize(n);
  base_candidate_.Resize(n);
  d_bump_.Resize(n);
  d_deg_minus_.Resize(n);
  d_candidate_.Resize(n);
  d_in_heap_.Resize(n);
  base_valid_ = false;
  // Reserve the hot vectors once; queries then run allocation-free after
  // a short warm-up (forward passes rarely touch more than a small
  // fraction of the graph, so these grow to their high-water mark and
  // stay there).
  unique_anchors_.reserve(64);
  visited_.reserve(256);
  candidates_in_order_.reserve(256);
  review_.reserve(256);
  heap_.reserve(256);
}

// Phase 1: the optimistic forward cascade, parameterized over the array
// bundle it writes. One definition serves the per-query scratch
// (CountFollowers / UpperBound) and the resident base (BuildBase) so the
// two can never drift — the MarginalUpperBound == UpperBound invariant
// the lazy argmax proof rests on depends on that. `in_heap_` and `heap_`
// are shared transients (only live during one cascade).
template <typename Adjacency>
uint32_t FollowerOracle::RunCascade(
    const Adjacency& adj, std::span<const VertexId> anchors, VertexId extra,
    uint32_t k, EpochArray<uint8_t>& anchor_flags, EpochArray<uint32_t>& bump,
    EpochArray<uint32_t>& deg_minus, EpochArray<uint8_t>& candidate,
    std::vector<VertexId>& anchors_out, std::vector<VertexId>& visited_out,
    std::vector<VertexId>* candidates_out) {
  anchor_flags.Clear();
  bump.Clear();
  deg_minus.Clear();
  candidate.Clear();
  in_heap_.Clear();
  anchors_out.clear();
  visited_out.clear();
  if (candidates_out) candidates_out->clear();
  heap_.clear();

  auto add_anchor = [&](VertexId a) {
    if (!anchor_flags.Get(a)) {
      anchor_flags.Set(a, 1);
      anchors_out.push_back(a);
    }
  };
  for (VertexId a : anchors) add_anchor(a);
  if (extra != kNoVertex) add_anchor(extra);

  auto push = [this](VertexId v) {
    if (!in_heap_.Get(v)) {
      in_heap_.Set(v, 1);
      heap_.push_back({order_->CoreOf(v), order_->TagOf(v), v});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  };

  // Seed: anchors raise the potential of neighbors they precede (anchors
  // positioned after a neighbor are already inside its deg+ bound).
  for (VertexId a : anchors_out) {
    for (VertexId w : adj.Neighbors(a)) {
      if (order_->CoreOf(w) >= k || anchor_flags.Get(w)) continue;
      if (order_->Precedes(a, w)) {
        bump.Add(w, 1);
        push(w);
      }
    }
  }

  uint32_t count = 0;
  while (!heap_.empty()) {
    VertexId w = heap_.front().vertex;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    visited_out.push_back(w);
    ++stats_.visited;
    uint64_t upper = static_cast<uint64_t>(order_->DegPlus(w)) +
                     deg_minus.Get(w) + bump.Get(w);
    if (upper < k) continue;  // final: later pushes only target
                              // later positions.
    candidate.Set(w, 1);
    ++count;
    if (candidates_out) candidates_out->push_back(w);
    for (VertexId x : adj.Neighbors(w)) {
      if (order_->CoreOf(x) >= k || anchor_flags.Get(x)) continue;
      if (!order_->Precedes(w, x)) continue;
      if (candidate.Get(x)) continue;
      deg_minus.Add(x, 1);
      push(x);
    }
  }
  return count;
}

template <typename Adjacency>
uint32_t FollowerOracle::ForwardPass(const Adjacency& adj,
                                     std::span<const VertexId> anchors,
                                     VertexId extra, uint32_t k) {
  eliminated_.Clear();
  support_.Clear();
  return RunCascade(adj, anchors, extra, k, anchor_, bump_, deg_minus_,
                    candidate_, unique_anchors_, visited_,
                    &candidates_in_order_);
}

template <typename Adjacency>
uint32_t FollowerOracle::Eliminate(const Adjacency& adj, uint32_t k,
                                   std::vector<VertexId>* followers) {
  // Elimination fixpoint with exact support. `review_` doubles as the
  // FIFO (head index instead of std::queue — no per-query allocation).
  review_.clear();
  size_t head = 0;
  for (VertexId w : candidates_in_order_) {
    uint32_t support = 0;
    for (VertexId x : adj.Neighbors(w)) {
      if (anchor_.Get(x) || order_->CoreOf(x) >= k || candidate_.Get(x)) {
        ++support;
      }
    }
    support_.Set(w, support);
    if (support < k) review_.push_back(w);
  }
  while (head < review_.size()) {
    VertexId w = review_[head++];
    if (eliminated_.Get(w)) continue;
    if (support_.Get(w) >= k) continue;
    eliminated_.Set(w, 1);
    candidate_.Set(w, 0);
    ++stats_.eliminated;
    for (VertexId x : adj.Neighbors(w)) {
      if (candidate_.Get(x) && !eliminated_.Get(x) && !anchor_.Get(x)) {
        support_.Add(x, static_cast<uint32_t>(-1));
        if (support_.Get(x) < k) review_.push_back(x);
      }
    }
  }

  uint32_t count = 0;
  for (VertexId w : candidates_in_order_) {
    if (candidate_.Get(w)) {
      ++count;
      if (followers) followers->push_back(w);
    }
  }
  return count;
}

template <typename F>
decltype(auto) FollowerOracle::WithAdjacency(F&& f) {
  if (dcsr_ != nullptr) return f(*dcsr_);
  if (csr_ != nullptr) return f(*csr_);
  return f(*graph_);
}

uint32_t FollowerOracle::CountFollowers(std::span<const VertexId> anchors,
                                        VertexId extra, uint32_t k,
                                        std::vector<VertexId>* followers) {
  ++stats_.queries;
  if (followers) followers->clear();
  if (k == 0) return 0;  // every vertex is trivially in the 0-core
  return WithAdjacency([&](const auto& adj) {
    ForwardPass(adj, anchors, extra, k);
    return Eliminate(adj, k, followers);
  });
}

uint32_t FollowerOracle::UpperBound(std::span<const VertexId> anchors,
                                    VertexId extra, uint32_t k) {
  ++stats_.bound_queries;
  if (k == 0) return 0;
  return WithAdjacency(
      [&](const auto& adj) { return ForwardPass(adj, anchors, extra, k); });
}

void FollowerOracle::BuildBase(std::span<const VertexId> anchors,
                               uint32_t k) {
  base_k_ = k;
  base_valid_ = true;
  if (k == 0) {
    base_anchor_.Clear();
    base_bump_.Clear();
    base_deg_minus_.Clear();
    base_candidate_.Clear();
    base_anchors_.clear();
    base_visited_.clear();
    base_count_ = 0;
    return;
  }
  base_count_ = WithAdjacency([&](const auto& adj) {
    return RunCascade(adj, anchors, kNoVertex, k, base_anchor_, base_bump_,
                      base_deg_minus_, base_candidate_, base_anchors_,
                      base_visited_, nullptr);
  });
}

template <typename Adjacency>
uint32_t FollowerOracle::MarginalUpperBoundImpl(const Adjacency& adj,
                                                VertexId x) {
  const uint32_t k = base_k_;
  // Overlay reset: four epoch bumps, no O(n) work.
  d_bump_.Clear();
  d_deg_minus_.Clear();
  d_candidate_.Clear();
  d_in_heap_.Clear();
  marginal_visited_.clear();
  heap_.clear();

  marginal_visited_.push_back(x);
  if (base_anchor_.Get(x)) return base_count_;  // trial set == base set
  if (base_candidate_.Get(x)) {
    // x's phase-1 influence on others is already in the base state (a
    // candidate propagates the same +1 credit to its later neighbors
    // that an anchor's bump would); promoting it to an anchor only
    // removes its own candidacy.
    return base_count_ - 1;
  }

  auto push = [this](VertexId v) {
    if (!d_in_heap_.Get(v)) {
      d_in_heap_.Set(v, 1);
      heap_.push_back({order_->CoreOf(v), order_->TagOf(v), v});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  };

  // Seeds: x's bump to later neighbors that are not already settled.
  for (VertexId w : adj.Neighbors(x)) {
    if (order_->CoreOf(w) >= k || base_anchor_.Get(w)) continue;
    if (base_candidate_.Get(w)) continue;  // already a candidate
    if (order_->Precedes(x, w)) {
      d_bump_.Add(w, 1);
      push(w);
    }
  }

  // Continue the base fixpoint: influence flows only forward in K-order,
  // so the position-ordered pops decide every vertex after all of its
  // (base + marginal) earlier contributors — the combined result is the
  // least fixpoint for base_anchors ∪ {x}.
  uint32_t added = 0;
  while (!heap_.empty()) {
    VertexId w = heap_.front().vertex;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    marginal_visited_.push_back(w);
    ++stats_.visited;
    uint64_t upper = static_cast<uint64_t>(order_->DegPlus(w)) +
                     base_bump_.Get(w) + d_bump_.Get(w) +
                     base_deg_minus_.Get(w) + d_deg_minus_.Get(w);
    if (upper < k) continue;
    d_candidate_.Set(w, 1);
    ++added;
    for (VertexId z : adj.Neighbors(w)) {
      if (order_->CoreOf(z) >= k || base_anchor_.Get(z) || z == x) continue;
      if (!order_->Precedes(w, z)) continue;
      if (base_candidate_.Get(z) || d_candidate_.Get(z)) continue;
      d_deg_minus_.Add(z, 1);
      push(z);
    }
  }
  return base_count_ + added;
}

void FollowerOracle::SnapshotBase(std::vector<BaseState>* out) const {
  out->clear();
  auto add = [&](VertexId v) {
    out->push_back({v, base_bump_.Get(v), base_deg_minus_.Get(v),
                    base_anchor_.Get(v), base_candidate_.Get(v)});
  };
  // Anchors are never pushed, so the two lists are disjoint, and every
  // vertex a cascade credits (bump or deg-) is pushed and popped once.
  for (VertexId v : base_anchors_) add(v);
  for (VertexId v : base_visited_) add(v);
  std::sort(out->begin(), out->end(),
            [](const BaseState& a, const BaseState& b) {
              return a.vertex < b.vertex;
            });
}

void FollowerOracle::AppendBaseChange(std::span<const BaseState> snapshot,
                                      std::vector<VertexId>* out) {
  auto in_snapshot = [snapshot](VertexId v) {
    auto it = std::lower_bound(
        snapshot.begin(), snapshot.end(), v,
        [](const BaseState& s, VertexId id) { return s.vertex < id; });
    return it != snapshot.end() && it->vertex == v;
  };
  WithAdjacency([&](const auto& adj) {
    auto emit = [&](VertexId v) {
      out->push_back(v);
      for (VertexId w : adj.Neighbors(v)) out->push_back(w);
    };
    // Vertices on the snapshot's support: compare field by field (off
    // the resident support they read all-zero and differ).
    for (const BaseState& s : snapshot) {
      const BaseState now{s.vertex, base_bump_.Get(s.vertex),
                          base_deg_minus_.Get(s.vertex),
                          base_anchor_.Get(s.vertex),
                          base_candidate_.Get(s.vertex)};
      if (!now.SameState(s)) emit(s.vertex);
    }
    // Resident support off the snapshot's: an anchor flag or a credit
    // against the snapshot's all-zero state, so always changed.
    for (VertexId v : base_anchors_) {
      if (!in_snapshot(v)) emit(v);
    }
    for (VertexId v : base_visited_) {
      if (!in_snapshot(v)) emit(v);
    }
  });
}

uint32_t FollowerOracle::MarginalUpperBound(VertexId x) {
  AVT_DCHECK(base_valid_);
  ++stats_.bound_queries;
  if (base_k_ == 0) {
    marginal_visited_.assign(1, x);
    return 0;
  }
  return WithAdjacency(
      [&](const auto& adj) { return MarginalUpperBoundImpl(adj, x); });
}

}  // namespace avt
