// Order-based core maintenance (paper Section 5.2, Algorithms 4 and 5).
//
// CoreMaintainer owns a Graph plus its KOrder index and keeps both
// consistent under edge insertions and deletions. A batch delta is applied
// one edge at a time: a single edge changes any core number by at most
// one, so the published single-edge OrderInsert / OrderRemoval updates,
// looped over the batch, implement the paper's bounded K-order maintenance
// exactly (docs/ARCHITECTURE.md, "Per-edge maintenance is exact").
//
// Insertion cascade ("EdgeInsert"). Let the root be the endpoint earlier
// in K-order, at level K. Its remaining degree deg+ rises by one; if it
// now exceeds K a promotion cascade runs over level K in order: a visited
// vertex w is an optimistic candidate when
//     deg+(w) + deg-(w) > K
// where deg-(w) counts already-candidate neighbors positioned before w.
// Candidates whose exact support
//     |{x in nbr(w) : core(x) >= K+1}| + |{x in nbr(w) : x candidate}|
// falls below K+1 are then eliminated to a fixpoint. Survivors form
// exactly the set of vertices whose core number rises to K+1 (the unique
// maximal self-supporting set); they move, preserving relative order, to
// the front of level K+1. Eliminated vertices move to the back of level K
// in elimination order, which provably restores deg+(v) <= core(v).
//
// Deletion cascade ("EdgeRemove"). Only vertices at level K = min endpoint
// core can drop, by exactly one level. Starting from the endpoints, a
// vertex drops when its current-core degree (the paper's max-core degree,
// Definition 6) falls below K; drops propagate to level-K neighbors.
// Dropped vertices move to the back of level K-1 in drop order.
//
// Cost. An insertion scans each candidate's neighborhood once, in the
// forward pass, which also counts the candidate's support, and an
// eliminated candidate once more to withdraw that support while other
// candidates are alive. A deletion scans a vertex once to count its
// current-core degree and once when it drops. deg+ is never recounted:
// every changed value follows from those scans (docs/PERFORMANCE.md,
// "Exact maintenance cascades"). The scratch is epoch-stamped and the
// work lists are reused members, so a cascade allocates nothing.
//
// The cascades scan graph_ directly: the maintainer keeps no second copy
// of the adjacency, and a tracker's oracles read this same graph.
//
// After every edge operation the index satisfies the full invariant suite
// of corelib/invariants.h; randomized differential tests in
// tests/maintainer_*.cc verify this against fresh decompositions, and
// tests/maintainer_test.cc pins every position and deg+ to golden digests.

#ifndef AVT_MAINT_MAINTAINER_H_
#define AVT_MAINT_MAINTAINER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "corelib/korder.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "util/epoch.h"

namespace avt {

/// Counters describing maintenance work done (for benches/tests).
struct MaintenanceStats {
  uint64_t edges_inserted = 0;
  uint64_t edges_removed = 0;
  uint64_t promotions = 0;   // vertices whose core rose
  uint64_t demotions = 0;    // vertices whose core fell
  uint64_t visited = 0;      // vertices examined by cascades
  uint64_t cascades = 0;     // operations that triggered a cascade

  void Reset() { *this = MaintenanceStats{}; }
};

/// Graph + K-order pair kept consistent under edge churn.
class CoreMaintainer {
 public:
  CoreMaintainer() = default;

  /// Takes a copy of `graph` and builds the index.
  void Reset(const Graph& graph);

  const Graph& graph() const { return graph_; }
  const KOrder& order() const { return order_; }
  uint32_t CoreOf(VertexId v) const { return order_.CoreOf(v); }

  /// No-op kept for perfbench/src/replay.cc, the one remaining caller;
  /// it goes with the next change to the benchmark.
  void SetCsrMirror(bool) {}

  /// Grows the vertex universe to at least `count` ids: isolated
  /// vertices appended to the graph, the K-order (back of level 0) and
  /// every cascade scratch array — all in lockstep, no rebuild.
  /// Streaming delta sources discover vertices mid-stream; callers grow
  /// before ApplyDelta so edge endpoints are always in range. Existing state (cores, tags, deg+) is untouched:
  /// an isolated vertex cannot change any other vertex's core number.
  void EnsureVertices(VertexId count);

  /// Inserts one edge, updating cores/K-order. Returns false if the edge
  /// already existed (no-op).
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes one edge. Returns false if absent (no-op).
  bool RemoveEdge(VertexId u, VertexId v);

  /// Applies a whole delta (insertions then deletions, matching the
  /// paper's G'_t = G_{t-1} (+) E+ followed by E-). Returns the set of
  /// vertices touched by any cascade (deduplicated): the union the paper
  /// calls VI and VR before filtering by core number. The two reports
  /// below describe what the call changed, until the next ApplyDelta.
  std::vector<VertexId> ApplyDelta(const EdgeDelta& delta);

  /// One flag per operation of the last ApplyDelta's delta, in the order
  /// it applied them — the insertions, then the deletions: true iff the
  /// operation changed the graph (a duplicate insertion, an absent
  /// removal or a self-loop did not). The flagged operations, in this
  /// order, are the applied sequence; callers that keep indexes derived
  /// from the graph replay them instead of rescanning adjacency.
  const std::vector<bool>& last_applied() const { return last_applied_; }

  /// kNotMoved, or — for a vertex the last ApplyDelta moved in the
  /// K-order (promoted, demoted, or repositioned within its level) — its
  /// core number before that delta. Every moved vertex is in the
  /// returned impacted set; a vertex not moved kept its core and its
  /// order relative to every other unmoved vertex (level relabels
  /// preserve order).
  uint32_t CoreBeforeMove(VertexId v) const {
    const uint32_t mark = affected_mark_.Get(v);
    return mark > kAffectedBit ? (mark >> 1) - 1 : kNotMoved;
  }
  static constexpr uint32_t kNotMoved = static_cast<uint32_t>(-1);

  const MaintenanceStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Corruption drill (tests, `avt_cli stream --corrupt-state-after`):
  /// moves one vertex — the front of the highest populated level — one
  /// level up WITHOUT touching the graph, so the index reports a wrong
  /// core number: exactly the signature of a maintenance regression or
  /// a memory fault. Returns false on an empty universe. Never called
  /// by library code; the integrity audits (core/health.h) exist to
  /// catch states like the one this creates.
  bool InjectIndexFaultForDrill();

 private:
  void RunInsertCascade(VertexId root, uint32_t level);
  void RunRemoveCascade(std::span<const VertexId> seeds, uint32_t level);
  void MarkAffected(VertexId v);
  /// Records v's pre-delta core on its first move of the delta; call
  /// before moving it, while CoreOf(v) still is that core.
  void MarkMoved(VertexId v);

  Graph graph_;
  KOrder order_;
  MaintenanceStats stats_;

  // Insertion-cascade scratch: one 16-byte slot per vertex with its
  // epoch stamp. A cascade reads and writes these fields together, so
  // one slot costs one cache line where five arrays cost five.
  struct InsertSlot {
    uint32_t deg_minus = 0;  // candidates before it (surviving ones,
                             // once elimination runs)
    uint32_t support = 0;    // neighbors above the level + candidates
    bool queued = false;     // pushed onto the heap
    bool candidate = false;  // a candidate not (yet) eliminated
  };
  static_assert(sizeof(InsertSlot) == 12, "16 bytes with the epoch stamp");

  // Scratch for cascades (sized to vertex count by Reset()).
  EpochArray<InsertSlot> insert_;
  EpochArray<uint32_t> cd_;         // current-core degree (deletions)
  EpochArray<uint8_t> dropped_;

  // Cascade work lists, cleared per cascade and never shrunk, so a
  // cascade allocates nothing once they reach their high-water marks.
  using HeapEntry = std::pair<uint64_t, VertexId>;  // (tag, vertex)
  std::vector<HeapEntry> heap_;      // min-heap on tag (std::greater)
  std::vector<VertexId> queue_;      // FIFO, read by a moving head index
  std::vector<VertexId> candidates_;       // in decision (tag) order
  std::vector<VertexId> eliminated_list_;  // in elimination order
  std::vector<VertexId> dropped_list_;     // in drop order

  // Batch-level affected set, kept after ApplyDelta for the reports. A
  // mark is kAffectedBit, plus (core before the delta + 1) << 1 once
  // the vertex moved: the same 8-byte slot a 1-byte mark occupies.
  static constexpr uint32_t kAffectedBit = 1;
  EpochArray<uint32_t> affected_mark_;
  std::vector<VertexId> affected_list_;
  std::vector<bool> last_applied_;
  bool collecting_affected_ = false;
};

}  // namespace avt

#endif  // AVT_MAINT_MAINTAINER_H_
