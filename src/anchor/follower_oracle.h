// Fast, non-destructive follower computation over the K-order
// (generalization of the paper's Algorithm 3 to anchor *sets*).
//
// Given anchors S and threshold k, the followers F_k(S) are the unique
// maximal set F of non-anchor vertices outside C_k such that every member
// has at least k neighbors in C_k ∪ S ∪ F. The oracle finds F in two
// phases without touching the index:
//
//  1. Optimistic forward pass in K-order. Anchoring bumps the potential of
//     a neighbor w by one for every anchor positioned before w (anchors
//     after w are already counted by deg+(w), the invariant upper bound).
//     Visiting affected vertices in K-order position, w becomes a
//     candidate when
//         deg+(w) + deg-(w) + bump(w) >= k,
//     where deg-(w) counts candidate neighbors positioned before w.
//     Candidates propagate deg- to their later neighbors below the k-core.
//     An induction over positions shows every true follower becomes a
//     candidate (docs/ARCHITECTURE.md, "The oracle's forward pass keeps
//     every follower"), so the pass yields a superset of F.
//
//  2. Elimination fixpoint. A candidate's exact support counts neighbors
//     that are anchors, k-core members (core >= k), or surviving
//     candidates; candidates with support < k are removed until stable.
//     Because F stays inside the surviving set throughout and the final
//     survivor set is itself valid, the fixpoint equals F exactly.
//
// Unlike the single-anchor Algorithm 3, candidates may live on any level
// below k-1 (with several anchors a low-core vertex can reach k engaged
// neighbors); the pass therefore orders by full (level, tag) position.
//
// Phase 1 alone is exposed as UpperBound(): its candidate count is a
// certified upper bound on |F| at a fraction of a full query's cost
// (no support scans, no fixpoint). The lazy pick loops use it — as
// marginal probes over a resident base, below — to decide which
// candidates deserve a full query, and because the bound is valid (not
// a stale heuristic), the lazy argmax is bit-identical to the
// exhaustive scan. See docs/PERFORMANCE.md.
//
// All scratch state is epoch-stamped and all hot vectors are reused
// across queries: evaluating a candidate anchor set is allocation-free
// and leaves the K-order untouched, which is what lets Greedy and IncAVT
// probe thousands of hypothetical sets per snapshot. Every cascade is
// templated over an adjacency view — any type exposing
// Neighbors(v) -> contiguous span in Graph's iteration order — so the
// oracle scans whichever backing the caller binds: the graph itself
// (the incremental tracker scans the maintainer's graph as churn
// mutates it) or a frozen CsrView snapshot of it (one-shot solvers).
// Both iterate neighbors in the identical order, so results are
// bit-identical across backings.

#ifndef AVT_ANCHOR_FOLLOWER_ORACLE_H_
#define AVT_ANCHOR_FOLLOWER_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "corelib/korder.h"
#include "graph/graph.h"
#include "util/epoch.h"

namespace avt {

/// Work counters for a follower query (paper's "visited vertices").
struct OracleStats {
  uint64_t queries = 0;        // full CountFollowers evaluations
  uint64_t bound_queries = 0;  // phase-1-only UpperBound evaluations
  uint64_t visited = 0;        // vertices popped by forward passes
  uint64_t eliminated = 0;     // candidates removed by fixpoints

  void Reset() { *this = OracleStats{}; }
};

/// Read-only follower computation bound to a (graph, K-order) pair.
/// The referenced structures must outlive the oracle and stay consistent
/// (rebuild/maintain them through CoreMaintainer). An optional CsrView
/// snapshot of the same graph routes all neighbor scans through
/// contiguous storage; it does not follow later mutations, so only
/// callers that never mutate the graph (the one-shot solvers) bind one.
class FollowerOracle {
 public:
  FollowerOracle(const Graph* graph, const KOrder* order,
                 const CsrView* csr = nullptr)
      : graph_(graph), order_(order), csr_(csr) {
    ResizeScratch();
  }

  /// Re-binds after the underlying graph/order changed size.
  void ResizeScratch();

  /// Returns |F_k(anchors)|; optionally materializes the follower set
  /// (K-order position order). Anchors inside the k-core contribute
  /// nothing (handled gracefully); duplicate anchors are allowed.
  uint32_t CountFollowers(std::span<const VertexId> anchors, uint32_t k,
                          std::vector<VertexId>* followers = nullptr) {
    return CountFollowers(anchors, kNoVertex, k, followers);
  }

  /// Same, for the trial set anchors ∪ {extra} without materializing it
  /// (extra == kNoVertex means no extra anchor). This is the pick-loop
  /// hot call: no per-trial vector copy.
  uint32_t CountFollowers(std::span<const VertexId> anchors, VertexId extra,
                          uint32_t k,
                          std::vector<VertexId>* followers = nullptr);

  /// Certified upper bound on CountFollowers(anchors, extra, k): the
  /// phase-1 candidate count, skipping support scans and the elimination
  /// fixpoint. Guaranteed >= the exact count for identical inputs (the
  /// fixpoint only removes candidates).
  uint32_t UpperBound(std::span<const VertexId> anchors, VertexId extra,
                      uint32_t k);

  // --- marginal probes over a resident base cascade -----------------
  //
  // The pick loops evaluate UpperBound(S, x) for every candidate x of a
  // pool; re-walking S's whole cascade per probe is the dominant cost.
  // BuildBase runs phase 1 for S once and keeps its state resident;
  // MarginalUpperBound(x) then *continues* the fixpoint with x's seeds
  // over epoch-cleared overlay arrays, touching only x's marginal
  // region, and returns exactly UpperBound(S, x, k). This is sound
  // because the phase-1 candidate set is the least fixpoint of a
  // monotone credit rule: influence flows only forward in K-order, so
  // continuing the ordered pass from the base fixpoint with extra seeds
  // reaches the trial set's fixpoint (tests/follower_oracle_test.cc pins
  // MarginalUpperBound == UpperBound on random graphs).
  //
  // Read set. A probe reads resident base state (anchor, bump, deg-,
  // candidate) only at x, at x's neighbors, at the vertices it pops,
  // and at the neighbors of the vertices it adds as candidates; the
  // rest is K-order state shared by every base. Its marginal
  // MUB(x) - |base| is therefore a function of that read set alone:
  // for two bases S0 and B over the same graph and K-order, let Δ be
  // the vertices whose resident state differs (AppendBaseChange). If
  // x's S0 region — x plus its pops, LastMarginalVisited() — avoids
  // Δ ∪ N(Δ), every read sees identical values and
  //     MUB_B(x) - |base(B)| == MUB_S0(x) - |base(S0)|.
  // TrialEngine probes a pool once against S0 and re-probes only the
  // candidates whose region meets Δ ∪ N(Δ).
  //
  // Base state survives full CountFollowers queries (disjoint scratch);
  // it is invalidated by ResizeScratch or the next BuildBase.

  /// Runs and retains phase 1 for `anchors` at threshold k.
  void BuildBase(std::span<const VertexId> anchors, uint32_t k);
  bool HasBase() const { return base_valid_; }
  void InvalidateBase() { base_valid_ = false; }
  /// |base|: the phase-1 candidate count of the resident base.
  uint32_t BaseCount() const { return base_count_; }

  /// Phase-1 candidate count of base_anchors ∪ {x} (== UpperBound for
  /// that trial set), at the cost of x's marginal cascade only.
  uint32_t MarginalUpperBound(VertexId x);

  /// x itself (first) plus the vertices the last MarginalUpperBound
  /// popped beyond the base region: the probe's region.
  std::span<const VertexId> LastMarginalVisited() const {
    return marginal_visited_;
  }

  /// One vertex's resident base state: everything a marginal probe
  /// reads besides the K-order.
  struct BaseState {
    VertexId vertex;
    uint32_t bump;
    uint32_t deg_minus;
    uint8_t anchor;
    uint8_t candidate;
    bool SameState(const BaseState& other) const {
      return bump == other.bump && deg_minus == other.deg_minus &&
             anchor == other.anchor && candidate == other.candidate;
    }
  };

  /// The resident base state on its support — the base anchors and
  /// pops; every other vertex reads all-zero — sorted by vertex id.
  void SnapshotBase(std::vector<BaseState>* out) const;

  /// Appends Δ ∪ N(Δ), where Δ holds the vertices whose resident base
  /// state differs from `snapshot` (a SnapshotBase of another base over
  /// the same graph and K-order). May append a vertex more than once.
  void AppendBaseChange(std::span<const BaseState> snapshot,
                        std::vector<VertexId>* out);

  const OracleStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  /// Phase 1 for anchors ∪ {extra}: fills candidate_ /
  /// candidates_in_order_ and returns the candidate count.
  template <typename Adjacency>
  uint32_t ForwardPass(const Adjacency& adj,
                       std::span<const VertexId> anchors, VertexId extra,
                       uint32_t k);

  /// Phase 2: elimination fixpoint over candidates_in_order_.
  template <typename Adjacency>
  uint32_t Eliminate(const Adjacency& adj, uint32_t k,
                     std::vector<VertexId>* followers);

  const Graph* graph_;
  const KOrder* order_;
  const CsrView* csr_;
  OracleStats stats_;

  /// The phase-1 cascade, parameterized over the array bundle it writes
  /// (per-query scratch vs resident base) so both paths share one
  /// definition. Records the pops in `visited_out` when non-null.
  /// Returns the candidate count.
  template <typename Adjacency>
  uint32_t RunCascade(const Adjacency& adj,
                      std::span<const VertexId> anchors, VertexId extra,
                      uint32_t k, EpochArray<uint8_t>& anchor_flags,
                      EpochArray<uint32_t>& bump,
                      EpochArray<uint32_t>& deg_minus,
                      EpochArray<uint8_t>& candidate,
                      std::vector<VertexId>& anchors_out,
                      std::vector<VertexId>* visited_out,
                      std::vector<VertexId>* candidates_out);

  template <typename Adjacency>
  uint32_t MarginalUpperBoundImpl(const Adjacency& adj, VertexId x);

  /// Single definition of the backing choice (the frozen snapshot when
  /// bound, else the graph): every query entry point dispatches through
  /// this so the rule cannot drift per method.
  template <typename F>
  decltype(auto) WithAdjacency(F&& f);

  EpochArray<uint8_t> anchor_;
  EpochArray<uint32_t> bump_;
  EpochArray<uint32_t> deg_minus_;
  EpochArray<uint8_t> in_heap_;
  EpochArray<uint8_t> candidate_;
  EpochArray<uint8_t> eliminated_;
  EpochArray<uint32_t> support_;

  // Resident base cascade (BuildBase) + per-probe overlays. The overlays
  // are the only state a marginal probe writes, so "resetting" a probe
  // is four O(1) epoch bumps.
  EpochArray<uint8_t> base_anchor_;
  EpochArray<uint32_t> base_bump_;
  EpochArray<uint32_t> base_deg_minus_;
  EpochArray<uint8_t> base_candidate_;
  EpochArray<uint32_t> d_bump_;
  EpochArray<uint32_t> d_deg_minus_;
  EpochArray<uint8_t> d_candidate_;
  EpochArray<uint8_t> d_in_heap_;
  std::vector<VertexId> base_anchors_;
  std::vector<VertexId> base_visited_;
  std::vector<VertexId> marginal_visited_;
  uint32_t base_k_ = 0;
  uint32_t base_count_ = 0;
  bool base_valid_ = false;

  // Hot vectors reused across queries (reserved by ResizeScratch).
  std::vector<VertexId> unique_anchors_;
  std::vector<VertexId> candidates_in_order_;
  std::vector<VertexId> review_;

  // Binary heap of (level, tag, vertex) reused across queries. A flat
  // POD key beats the seed's pair<pair<u64,u64>, VertexId> layout: one
  // comparison chain, no tuple machinery, contiguous storage.
  struct HeapItem {
    uint64_t level;
    uint64_t tag;
    VertexId vertex;
    // Min-heap on K-order position. Tags are unique within a level, so
    // the vertex id never decides.
    friend bool operator>(const HeapItem& a, const HeapItem& b) {
      if (a.level != b.level) return a.level > b.level;
      return a.tag > b.tag;
    }
  };
  std::vector<HeapItem> heap_;
};

}  // namespace avt

#endif  // AVT_ANCHOR_FOLLOWER_ORACLE_H_
