#include "maint/maintainer.h"

#include <algorithm>
#include <functional>

namespace avt {

void CoreMaintainer::Reset(const Graph& graph) {
  graph_ = graph;
  order_.Build(graph_);
  stats_.Reset();
  last_applied_.clear();
  if (csr_enabled_) csr_.Rebuild(graph_);
  const size_t n = graph_.NumVertices();
  insert_.Resize(n);
  cd_.Resize(n);
  dropped_.Resize(n);
  affected_mark_.Resize(n);
}

void CoreMaintainer::EnsureVertices(VertexId count) {
  if (count <= graph_.NumVertices()) return;
  while (graph_.NumVertices() < count) {
    graph_.AddVertex();
    order_.AddVertex();
  }
  if (csr_enabled_) csr_.EnsureVertices(count);
  const size_t n = graph_.NumVertices();
  insert_.Grow(n);
  cd_.Grow(n);
  dropped_.Grow(n);
  affected_mark_.Grow(n);
}

void CoreMaintainer::SetCsrMirror(bool enabled) {
  // An enabled mirror is kept in lockstep by every mutation (and Reset
  // rebuilds it), so re-enabling is a no-op — no redundant O(n + m)
  // rebuild when a tracker re-initializes.
  if (enabled == csr_enabled_) return;
  csr_enabled_ = enabled;
  if (enabled) {
    csr_.Rebuild(graph_);
  } else {
    csr_ = DynamicCsr{};
  }
}

void CoreMaintainer::MarkAffected(VertexId v) {
  if (!collecting_affected_) return;
  if (!affected_mark_.Get(v)) {
    affected_mark_.Set(v, kAffectedBit);
    affected_list_.push_back(v);
  }
}

void CoreMaintainer::MarkMoved(VertexId v) {
  if (!collecting_affected_) return;
  if (affected_mark_.Get(v) > kAffectedBit) return;  // moved before
  affected_mark_.Set(v, kAffectedBit | ((order_.CoreOf(v) + 1) << 1));
}

bool CoreMaintainer::InsertEdge(VertexId u, VertexId v) {
  if (!graph_.AddEdge(u, v)) return false;
  if (csr_enabled_) csr_.AddEdge(u, v);
  ++stats_.edges_inserted;

  // Lemma 1: the endpoint earlier in K-order gains a later neighbor.
  VertexId root = order_.Precedes(u, v) ? u : v;
  order_.IncrementDegPlus(root, +1);
  MarkAffected(u);
  MarkAffected(v);

  const uint32_t level = order_.CoreOf(root);
  // Lemma 2: core numbers can only change when deg+(root) exceeds its
  // core number.
  if (order_.DegPlus(root) <= level) return true;
  if (csr_enabled_) {
    RunInsertCascade(csr_, root, level);
  } else {
    RunInsertCascade(graph_, root, level);
  }
  return true;
}

template <typename Adjacency>
void CoreMaintainer::RunInsertCascade(const Adjacency& adj, VertexId root,
                                      uint32_t level) {
  ++stats_.cascades;
  insert_.Clear();
  heap_.clear();
  candidates_.clear();
  eliminated_list_.clear();
  queue_.clear();

  // Forward pass in K-order position over level `level`, visiting only
  // the root and vertices a candidate pushed. Pops are ordered by tag,
  // so every vertex is popped after all candidates that precede it have
  // been decided, and deg-(w) is then exactly the number of candidate
  // neighbors before w. The one scan of a candidate's neighborhood also
  // counts its support |{x : core(x) > level}| + |{candidate x}|: the
  // candidates before it now, each later one when that one scans it.
  heap_.emplace_back(order_.TagOf(root), root);
  insert_.Mutable(root).queued = true;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
    const auto [tag, w] = heap_.back();
    heap_.pop_back();
    MarkAffected(w);
    ++stats_.visited;
    InsertSlot& slot = insert_.Mutable(w);
    if (order_.DegPlus(w) + slot.deg_minus <= level) {
      // Final: it stays put, and its deg- candidate neighbors before it
      // all move behind it (promoted, or eliminated to the level's back).
      order_.IncrementDegPlus(w, static_cast<int32_t>(slot.deg_minus));
      continue;
    }
    slot.candidate = true;
    candidates_.push_back(w);
    uint32_t support = 0;
    for (VertexId x : adj.Neighbors(w)) {
      const uint32_t core = order_.CoreOf(x);
      if (core != level) {
        if (core > level) ++support;
        continue;
      }
      if (order_.TagOf(x) < tag) {  // decided already
        if (insert_.Get(x).candidate) {
          ++support;
          ++insert_.Mutable(x).support;
        }
        continue;
      }
      InsertSlot& later = insert_.Mutable(x);
      ++later.deg_minus;
      if (!later.queued) {
        later.queued = true;
        heap_.emplace_back(order_.TagOf(x), x);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
      }
    }
    slot.support = support;
  }

  // Elimination to fixpoint: a candidate without level+1 supporters
  // among the neighbors above `level` and the surviving candidates
  // fails. The surviving candidates still adjacent to it end up after
  // it (promoted, or eliminated later to the level's back), so its
  // support at elimination is its new deg+. For a candidate x after it,
  // deg-(x) drops too: deg- keeps counting surviving candidates before x.
  for (VertexId w : candidates_) {
    if (insert_.Get(w).support <= level) queue_.push_back(w);
  }
  for (size_t head = 0; head < queue_.size(); ++head) {
    const VertexId w = queue_[head];
    InsertSlot& slot = insert_.Mutable(w);
    if (!slot.candidate) continue;  // eliminated already
    if (slot.support > level) continue;  // revived support? impossible,
                                         // but keep the check cheap.
    slot.candidate = false;
    eliminated_list_.push_back(w);
    order_.SetDegPlus(w, slot.support);
    // With every candidate eliminated there is no support to take back.
    if (eliminated_list_.size() == candidates_.size()) continue;
    const uint64_t tag = order_.TagOf(w);
    for (VertexId x : adj.Neighbors(w)) {
      if (!insert_.Get(x).candidate) continue;
      InsertSlot& survivor = insert_.Mutable(x);
      if (order_.TagOf(x) > tag) --survivor.deg_minus;
      if (--survivor.support <= level) queue_.push_back(x);
    }
  }

  // Apply moves. Survivors rise to level+1, entering at the front in
  // their original relative order (push front in reverse pop order).
  // A survivor's new later neighbors are those above `level` plus the
  // survivors after it: its support minus the survivors before it.
  for (auto it = candidates_.rbegin(); it != candidates_.rend(); ++it) {
    const VertexId w = *it;
    const InsertSlot& slot = insert_.Get(w);
    if (!slot.candidate) continue;
    order_.SetDegPlus(w, slot.support - slot.deg_minus);
    MarkMoved(w);
    order_.MoveToLevelFront(w, level + 1);
    ++stats_.promotions;
  }
  // Failed candidates move to the back of their level in elimination
  // order (restores deg+ <= core; see class comment).
  for (VertexId w : eliminated_list_) {
    MarkMoved(w);
    order_.MoveToLevelBack(w, level);
  }
}

bool CoreMaintainer::RemoveEdge(VertexId u, VertexId v) {
  // Edge endpoints arrive from stream deltas; like InsertEdge, a
  // removal the graph declines (absent edge, self-loop) is a benign
  // no-op — never an assertion, because external input must not be
  // able to abort the process. The graph mutates first; the index is
  // touched only once the removal actually happened.
  Graph::ErasedSlots slots;
  if (!graph_.RemoveEdge(u, v, &slots)) return false;
  // Fix deg+ of the earlier endpoint now that its later neighbor is
  // gone (Lemma 1, mirrored).
  VertexId earlier = order_.Precedes(u, v) ? u : v;
  order_.IncrementDegPlus(earlier, -1);
  if (csr_enabled_) csr_.RemoveEdge(u, v, slots);
  ++stats_.edges_removed;
  MarkAffected(u);
  MarkAffected(v);

  const uint32_t ku = order_.CoreOf(u);
  const uint32_t kv = order_.CoreOf(v);
  const uint32_t level = std::min(ku, kv);
  if (level == 0) return true;  // an endpoint already at core 0 (only
                                // possible transiently; nothing to drop).
  VertexId seeds[2];
  size_t num_seeds = 0;
  if (ku == level) seeds[num_seeds++] = u;
  if (kv == level) seeds[num_seeds++] = v;
  if (csr_enabled_) {
    RunRemoveCascade(csr_, {seeds, num_seeds}, level);
  } else {
    RunRemoveCascade(graph_, {seeds, num_seeds}, level);
  }
  return true;
}

template <typename Adjacency>
void CoreMaintainer::RunRemoveCascade(const Adjacency& adj,
                                      std::span<const VertexId> seeds,
                                      uint32_t level) {
  cd_.Clear();
  dropped_.Clear();
  dropped_list_.clear();
  queue_.clear();

  // cd(w): number of neighbors currently supporting w at `level`, i.e.
  // with effective core >= level, where already-dropped vertices count as
  // level-1. Computed lazily on first touch.
  auto effective_core = [this](VertexId x, uint32_t lvl) -> uint32_t {
    uint32_t c = order_.CoreOf(x);
    return dropped_.Get(x) ? lvl - 1 : c;
  };
  auto touch = [&](VertexId w) {
    if (cd_.Contains(w)) return;
    uint32_t count = 0;
    for (VertexId x : adj.Neighbors(w)) {
      if (effective_core(x, level) >= level) ++count;
    }
    cd_.Set(w, count);
  };

  for (VertexId s : seeds) {
    touch(s);
    ++stats_.visited;
    if (cd_.Get(s) < level) queue_.push_back(s);
  }

  // Dropped vertices join the back of level-1 in drop order, so when w
  // drops its later neighbors there are exactly the ones not dropped
  // yet at level >= `level` (kept, or dropped after w): the drop scan
  // sets deg+(w). A neighbor x at `level` before w loses w from its
  // later set; if x drops too, its own drop scan overwrites deg+(x).
  for (size_t head = 0; head < queue_.size(); ++head) {
    const VertexId w = queue_[head];
    if (dropped_.Get(w)) continue;
    if (cd_.Get(w) >= level) continue;
    dropped_.Set(w, 1);
    dropped_list_.push_back(w);
    MarkAffected(w);
    const uint64_t tag = order_.TagOf(w);
    uint32_t later = 0;
    for (VertexId x : adj.Neighbors(w)) {
      const uint32_t core = order_.CoreOf(x);
      if (core < level || dropped_.Get(x)) continue;
      ++later;
      if (core != level) continue;
      if (order_.TagOf(x) < tag) order_.IncrementDegPlus(x, -1);
      if (cd_.Contains(x)) {
        cd_.Add(x, static_cast<uint32_t>(-1));
      } else {
        touch(x);  // already reflects w's drop via effective_core
        ++stats_.visited;
      }
      if (cd_.Get(x) < level) queue_.push_back(x);
    }
    order_.SetDegPlus(w, later);
  }
  if (dropped_list_.empty()) return;
  ++stats_.cascades;

  // Dropped vertices join the back of level-1 in drop order (valid: at
  // drop time each had < level supporters counting later-dropped ones).
  for (VertexId w : dropped_list_) {
    MarkMoved(w);
    order_.MoveToLevelBack(w, level - 1);
    ++stats_.demotions;
  }
}

std::vector<VertexId> CoreMaintainer::ApplyDelta(const EdgeDelta& delta) {
  affected_mark_.Clear();
  affected_list_.clear();
  last_applied_.clear();
  collecting_affected_ = true;
  for (const Edge& e : delta.insertions) {
    last_applied_.push_back(InsertEdge(e.u, e.v));
  }
  for (const Edge& e : delta.deletions) {
    last_applied_.push_back(RemoveEdge(e.u, e.v));
  }
  collecting_affected_ = false;
  return std::move(affected_list_);
}

bool CoreMaintainer::InjectIndexFaultForDrill() {
  if (graph_.NumVertices() == 0) return false;
  // Desync the index from the graph: promote the front vertex of the
  // highest populated level one level up. CoreOf now overstates that
  // vertex's core number: it is alone above its old level, so its mcd
  // (neighbours at its level or above) is 0 < its level, and the
  // certificate fails at it — detectable by both the sampled probe and
  // the full invariant pass.
  uint32_t level = order_.MaxLevel();
  for (;;) {
    const VertexId v = order_.LevelFront(level);
    if (v != kNoVertex) {
      order_.MoveToLevelBack(v, level + 1);
      return true;
    }
    if (level == 0) return false;
    --level;
  }
}

}  // namespace avt
