#include "anchor/candidate_index.h"

#include "anchor/candidates.h"
#include "util/status.h"

namespace avt {

void CandidateIndex::Seed(const Graph& graph, uint32_t k,
                          std::span<const VertexId> candidates) {
  k_ = k;
  const size_t n = graph.NumVertices();
  flags_.assign(n, 0);
  head_.assign(n, kNil);
  entries_.clear();
  free_ = kNil;
  size_t total = 0;
  for (VertexId w : candidates) total += graph.Degree(w);
  entries_.reserve(total);
  for (VertexId w : candidates) {
    flags_[w] = kCand;
    for (VertexId x : graph.Neighbors(w)) Link(x, w);
  }
}

void CandidateIndex::EnsureVertices(VertexId count) {
  if (count <= flags_.size()) return;
  flags_.resize(count, 0);
  head_.resize(count, kNil);
}

void CandidateIndex::Link(VertexId u, VertexId w) {
  uint32_t e = free_;
  if (e != kNil) {
    free_ = entries_[e].next;
    entries_[e] = {w, head_[u]};
  } else {
    e = static_cast<uint32_t>(entries_.size());
    entries_.push_back({w, head_[u]});
  }
  head_[u] = e;
}

void CandidateIndex::Unlink(VertexId u, VertexId w) {
  for (uint32_t* link = &head_[u]; *link != kNil;
       link = &entries_[*link].next) {
    const uint32_t e = *link;
    if (entries_[e].vertex != w) continue;
    *link = entries_[e].next;
    entries_[e].next = free_;
    free_ = e;
    return;
  }
  AVT_DCHECK(false);  // w was not listed at u: the index has drifted
}

void CandidateIndex::Recheck(const Graph& graph, const KOrder& order,
                             VertexId w) {
  const bool now = IsAnchorCandidate(graph, order, w, k_);
  if (now == IsCandidate(w)) return;
  flags_[w] ^= kCand;
  for (VertexId x : graph.Neighbors(w)) {
    if (now) {
      Link(x, w);
    } else {
      Unlink(x, w);
    }
  }
}

void CandidateIndex::Update(const CoreMaintainer& maintainer,
                            const EdgeDelta& delta,
                            std::span<const VertexId> impacted) {
  const Graph& graph = maintainer.graph();
  const KOrder& order = maintainer.order();
  // 1. Replay the applied edge operations against the old verdicts, in
  // application order: afterwards every list is N(u) ∩ Cand_old over
  // the new adjacency.
  const std::vector<bool>& applied = maintainer.last_applied();
  size_t op = 0;
  for (const Edge& e : delta.insertions) {
    if (!applied[op++]) continue;
    if (IsCandidate(e.u)) Link(e.v, e.u);
    if (IsCandidate(e.v)) Link(e.u, e.v);
  }
  for (const Edge& e : delta.deletions) {
    if (!applied[op++]) continue;
    if (IsCandidate(e.u)) Unlink(e.v, e.u);
    if (IsCandidate(e.v)) Unlink(e.u, e.v);
  }
  // 2. Re-evaluate, once each, every vertex whose verdict can have
  // changed (file comment): I, plus the neighbours of moved vertices
  // whose old or new core is k-1. Rechecks change no graph or order
  // state, so the second pass walks the same sets to clear the marks.
  auto for_each_suspect = [&](auto&& fn) {
    for (VertexId v : impacted) fn(v);
    if (k_ == 0) return;
    for (VertexId v : impacted) {
      const uint32_t before = maintainer.CoreBeforeMove(v);
      if (before == CoreMaintainer::kNotMoved) continue;
      if (before != k_ - 1 && order.CoreOf(v) != k_ - 1) continue;
      for (VertexId w : graph.Neighbors(v)) fn(w);
    }
  };
  for_each_suspect([&](VertexId w) {
    if (flags_[w] & kSeen) return;
    flags_[w] |= kSeen;
    Recheck(graph, order, w);
  });
  for_each_suspect(
      [this](VertexId w) { flags_[w] &= static_cast<uint8_t>(~kSeen); });
}

size_t CandidateIndex::Footprint() const {
  return flags_.capacity() * sizeof(uint8_t) +
         head_.capacity() * sizeof(uint32_t) +
         entries_.capacity() * sizeof(Entry);
}

}  // namespace avt
