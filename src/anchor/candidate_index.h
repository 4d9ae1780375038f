// Maintained Theorem-3 candidate index for the incremental tracker.
//
// IncAVT's replacement pool (Algorithm 6 line 12) is the impacted set I
// and its neighbours, restricted to the Theorem-3 candidates
//     T(w) := core(w) < k  ∧  ∃u ∈ N(w): core(u) = k-1 ∧ w ≺ u
// (anchor/candidates.h). Evaluating T afresh for every neighbour of every
// impacted vertex costs O(Σ_{v∈I} deg v) adjacency scans per delta, and
// churn endpoints are degree-biased, so I always holds hubs. This index
// keeps each vertex's verdict and, for every vertex u, the list
// N(u) ∩ Cand, so the pool is read off in O(|I| + Σ_{v∈I} |N(v) ∩ Cand|).
//
// Why per-delta upkeep stays exact. T(w) reads N(w), w's core and
// position, and the cores and positions of w's neighbours. Across one
// CoreMaintainer::ApplyDelta only three things change a verdict:
//   * a changed edge — both endpoints are impacted;
//   * w itself moved in the K-order — every moved vertex is impacted;
//   * a neighbour u moved and its core before or after the delta is k-1
//     (otherwise the term for u is false on both sides).
// Level relabels keep relative order and change nothing. Update therefore
// replays the applied edge operations in order against the old verdicts,
// re-evaluates T on I ∪ N(moved vertices with old or new core k-1), and
// patches the neighbour lists of each vertex whose verdict flipped.
//
// Memory: a 4-byte list head and a 1-byte flag per vertex, plus one
// 8-byte entry per (vertex, candidate neighbour) pair in one shared entry
// pool whose freed entries are reused through a free list.

#ifndef AVT_ANCHOR_CANDIDATE_INDEX_H_
#define AVT_ANCHOR_CANDIDATE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "corelib/korder.h"
#include "graph/graph.h"
#include "maint/maintainer.h"

namespace avt {

/// Theorem-3 verdicts plus per-vertex candidate-neighbour lists, kept in
/// step with a CoreMaintainer one delta at a time.
class CandidateIndex {
 public:
  /// Rebuilds the index for `graph` with threshold k. `candidates` must
  /// be exactly the graph's Theorem-3 candidates (CollectAnchorCandidates
  /// over the same graph and K-order).
  void Seed(const Graph& graph, uint32_t k,
            std::span<const VertexId> candidates);

  /// Appends isolated vertices up to `count` ids (no candidates: an
  /// isolated vertex has no shell neighbour).
  void EnsureVertices(VertexId count);

  /// Brings the index up to date after `maintainer`.ApplyDelta(delta),
  /// which returned `impacted`; the index must describe the maintainer's
  /// graph and K-order as they were before that call.
  void Update(const CoreMaintainer& maintainer, const EdgeDelta& delta,
              std::span<const VertexId> impacted);

  bool IsCandidate(VertexId v) const { return (flags_[v] & kCand) != 0; }

  /// Calls fn(w) for every candidate w adjacent to u, in no set order.
  template <typename Fn>
  void ForEachCandidateNeighbor(VertexId u, Fn&& fn) const {
    for (uint32_t e = head_[u]; e != kNil; e = entries_[e].next) {
      fn(entries_[e].vertex);
    }
  }

  /// Bytes held by the verdicts, list heads and entry pool.
  size_t Footprint() const;

 private:
  struct Entry {
    VertexId vertex;
    uint32_t next;
  };
  static constexpr uint32_t kNil = static_cast<uint32_t>(-1);
  /// flags_ bits: the verdict, and Update's mark for the vertices it
  /// has rechecked (cleared before Update returns).
  static constexpr uint8_t kCand = 1;
  static constexpr uint8_t kSeen = 2;

  /// Links w into u's list.
  void Link(VertexId u, VertexId w);
  /// Unlinks w from u's list (it must be there).
  void Unlink(VertexId u, VertexId w);
  /// Re-evaluates T(w); on a flip, patches w into / out of the lists of
  /// all its neighbours.
  void Recheck(const Graph& graph, const KOrder& order, VertexId w);

  uint32_t k_ = 0;
  std::vector<uint8_t> flags_;
  std::vector<uint32_t> head_;
  std::vector<Entry> entries_;
  uint32_t free_ = kNil;  // head of the freed-entry chain
};

}  // namespace avt

#endif  // AVT_ANCHOR_CANDIDATE_INDEX_H_
