// IncAVT: the paper's incremental AVT algorithm (Section 5, Algorithm 6).
//
// State carried between snapshots:
//   * CoreMaintainer — graph + K-order kept consistent by the bounded
//     maintenance of Algorithms 4/5 (no per-snapshot rebuild). Its
//     graph is the tracker's only adjacency: the cascades, the
//     candidate index and every oracle scan read it;
//   * the previous anchor set S_{t-1};
//   * a Theorem-3 candidate index (anchor/candidate_index.h): every
//     vertex's verdict plus, per vertex, its candidate neighbours.
// Nothing else survives a transition, so every work counter is a
// function of that state and the delta.
//
// Per transition:
//   1. Apply E+ / E- through the maintainer, collecting the impacted
//     vertex set I (the union of the paper's VI and VR); its report of
//     the applied edge operations and moved vertices brings the
//     candidate index up to date without rescanning the graph.
//   2. Seed S_t := S_{t-1} and recount the incumbent F(S_t) with one
//     follower query on the new snapshot.
//   3. Build the replacement pool: impacted vertices and their neighbors,
//      outside C_k(G_t), passing the Theorem-3 filter (Algorithm 6 line
//      12) — read off the candidate index as ⋃_{v∈I} ({v} ∪ N(v)) ∩ Cand
//      minus the anchors, in O(|I| + Σ_{v∈I} |N(v) ∩ Cand|). The pool is
//      sorted by id so tie-breaks are deterministic and independent of
//      cascade traversal order.
//   4. Local search: for each u in S_t, try every pool vertex v as a
//      replacement; commit the swap whenever it strictly increases the
//      follower count (lines 9-16). Follower counts come from the
//      non-destructive FollowerOracle on the maintained K-order.
//
// Step 4 is one TrialEngine session per transition in every mode. In
// lazy mode (default) every pool vertex is probed ONCE against the
// anchors at entry S0: the oracle's certified marginal bound
// (phase-1-only cascade) plus the region the probe read. Each swap slot
// (base S minus the slot's anchor) and each extend step (base S)
// rebuilds only its own base cascade, re-probes the few candidates
// whose S0 region meets the vertices where the two base cascades differ
// (or their neighbors), and takes every other bound as the exact
// |base| + S0 marginal. A slot's certified bounds are popped lazily; if
// the top bound cannot strictly beat the incumbent follower count, the
// whole slot is settled with zero full queries — the common
// steady-state outcome. See anchor/trial_engine.h.
//
// Lazy sessions commit anchors bit-identical to the eager loop
// (tests/lazy_greedy_test.cc), with anchors and work counters identical
// at every thread count (tests/parallel_determinism_test.cc).
//
// The pool is usually tiny relative to the full Theorem-3 candidate set —
// that is the entire advantage the paper measures in Figures 4/6/8.

#ifndef AVT_CORE_INC_AVT_H_
#define AVT_CORE_INC_AVT_H_

#include <vector>

#include "anchor/candidate_index.h"
#include "anchor/follower_oracle.h"
#include "anchor/trial_engine.h"
#include "core/avt.h"
#include "maint/maintainer.h"

namespace avt {

/// Ablation modes for the incremental tracker (the full algorithm is
/// kRestricted; the others isolate where its speedup comes from).
enum class IncAvtMode {
  /// Algorithm 6 as published: maintained K-order + candidates
  /// restricted to churn-impacted vertices.
  kRestricted,
  /// Maintained K-order but the full Theorem-3 candidate pool per
  /// snapshot: measures the value of candidate restriction alone.
  kMaintainedFull,
  /// Carry S_{t-1} forward untouched (only refill if the budget is
  /// short): the "do-nothing" lower bound on tracking cost/quality.
  kCarryForward,
};

/// Execution knobs for IncAvtTracker.
struct IncAvtOptions {
  /// Lazy local search: shared certified-bound probes (see file
  /// comment). Bit-identical anchors to the eager loop.
  bool lazy = true;
  /// Trial-engine worker count for the slot-trial local search (and the
  /// first snapshot's greedy solve); <= 1 runs serial. Anchors and work
  /// counters are bit-identical to the serial session at every thread
  /// count (tests/parallel_determinism_test.cc).
  uint32_t num_threads = 1;
  /// Delta-transaction width the tracker requests from the driving
  /// engine (AvtEngine honors it via AvtTracker::PreferredBatchSize).
  /// With N > 1 the engine merges N consecutive source deltas into one
  /// canonical net-effect transaction, so the tracker pays ONE
  /// candidate-index update and pool read, ONE incumbent recount and
  /// ONE local search per N deltas — and observes exactly every N-th
  /// snapshot of the stream, with state bit-identical to what the
  /// per-delta replay reaches at those boundaries (DeltaBatcher's
  /// last-op-wins guarantee; tests/differential_fuzz_test.cc pins it).
  /// 1 (default) is verbatim per-delta delivery.
  size_t batch_size = 1;
};

/// Incremental tracker (the paper's primary contribution).
class IncAvtTracker : public AvtTracker {
 public:
  IncAvtTracker(uint32_t k, uint32_t l,
                IncAvtMode mode = IncAvtMode::kRestricted,
                IncAvtOptions options = IncAvtOptions{})
      : k_(k), l_(l), mode_(mode), options_(options) {}

  AvtSnapshotResult ProcessFirst(const Graph& g0) override;
  AvtSnapshotResult ProcessDelta(const EdgeDelta& delta) override;
  /// Streaming growth: new isolated vertices join the maintained graph,
  /// K-order (back of level 0), the oracle/engine scratch, and this
  /// tracker's per-vertex state. An isolated vertex changes no
  /// follower count, so the anchors stay valid.
  void EnsureVertices(VertexId count) override;
  size_t PreferredBatchSize() const override {
    return options_.batch_size < 1 ? 1 : options_.batch_size;
  }
  std::string name() const override {
    switch (mode_) {
      case IncAvtMode::kRestricted: return "IncAVT";
      case IncAvtMode::kMaintainedFull: return "IncAVT-fullpool";
      case IncAvtMode::kCarryForward: return "IncAVT-carry";
    }
    return "IncAVT";
  }

  const CoreMaintainer& maintainer() const { return maintainer_; }
  const std::vector<VertexId>& current_anchors() const { return anchors_; }
  /// The replacement pool the last ProcessDelta searched (ascending).
  const std::vector<VertexId>& last_pool() const { return pool_; }

  /// The maintained graph + K-order index: exactly the redundant state
  /// integrity audits certify against each other, plus the trial
  /// engine's pool to certify them on.
  TrackerAuditView AuditView() const override {
    return {&maintainer_.graph(), &maintainer_.order(),
            engine_ != nullptr ? engine_->pool() : nullptr};
  }
  bool InjectAuditFaultForDrill() override {
    return maintainer_.InjectIndexFaultForDrill();
  }

 private:
  /// |C_k| of the maintained graph (anchors excluded by construction:
  /// anchors are tracked outside the k-core).
  uint32_t KCoreSize() const;

  /// Local search over `pool` (already sorted) as one trial-engine
  /// session — lazy or eager, at any thread count. Updates anchors_ and
  /// current; returns work counters via snap.
  void LocalSearch(const std::vector<VertexId>& pool, uint32_t& current,
                   AvtSnapshotResult& snap);

  uint32_t k_;
  uint32_t l_;
  IncAvtMode mode_;
  IncAvtOptions options_;
  size_t t_ = 0;
  CoreMaintainer maintainer_;
  /// Slot-trial evaluator bound to the maintainer's graph and K-order:
  /// every oracle scan, serial and per-worker, reads the one maintained
  /// adjacency. Its worker-0 oracle serves the tracker's own serial
  /// queries, so threads=1 holds one oracle.
  std::unique_ptr<TrialEngine> engine_;
  std::vector<VertexId> anchors_;
  /// Theorem-3 verdicts and candidate-neighbour lists, updated from each
  /// ApplyDelta's report (unused by kCarryForward, which has no pool).
  CandidateIndex candidates_;
  /// Per-vertex flag bytes. kAnchor marks S_t and is kept in step at
  /// every commit; it keeps anchors out of the pool. kPooled is the
  /// pool build's dedupe mark (a vertex next to several impacted
  /// vertices is pooled once) and is cleared again before the search,
  /// so no per-delta O(n) reset is needed.
  enum : uint8_t { kAnchor = 1, kPooled = 2 };
  std::vector<uint8_t> flags_;
  std::vector<VertexId> pool_;
};

}  // namespace avt

#endif  // AVT_CORE_INC_AVT_H_
