// IncAVT: the paper's incremental AVT algorithm (Section 5, Algorithm 6).
//
// State carried between snapshots:
//   * CoreMaintainer — graph + K-order kept consistent by the bounded
//     maintenance of Algorithms 4/5 (no per-snapshot rebuild);
//   * the previous anchor set S_{t-1};
//   * a Theorem-3 candidate index (anchor/candidate_index.h): every
//     vertex's verdict plus, per vertex, its candidate neighbours;
//   * (lazy mode) a memo of trial evaluations with their dependency
//     regions, reused across snapshots until churn touches them.
//
// Per transition:
//   1. Apply E+ / E- through the maintainer, collecting the impacted
//     vertex set I (the union of the paper's VI and VR); its report of
//     the applied edge operations and moved vertices brings the
//     candidate index up to date without rescanning the graph.
//   2. Seed S_t := S_{t-1}.
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
// Lazy mode (default) accelerates step 4 without changing its output:
//
//   * Step 4 is one TrialEngine session per transition. Every pool
//     vertex is probed ONCE against the anchors at entry S0: the
//     oracle's certified marginal bound (phase-1-only cascade) plus the
//     region the probe read. Each swap slot (base S minus the slot's
//     anchor) and each extend step (base S) rebuilds only its own base
//     cascade, re-probes the few candidates whose S0 region meets the
//     vertices where the two base cascades differ (or their
//     neighbors), and takes every other bound as the exact
//     |base| + S0 marginal. A slot's certified bounds are popped
//     lazily; if the top bound cannot strictly beat the incumbent
//     follower count, the whole slot is settled with zero full queries
//     — the common steady-state outcome. See anchor/trial_engine.h.
//   * The incumbent F(S) is memoized with its dependency region (the
//     trial anchors plus all vertices its forward pass popped). Its
//     value is a pure function of the edges incident to that region and
//     the K-order positions of the region and its neighbors, so it
//     stays exact while churn leaves the region and its one-hop
//     neighborhood alone, and ProcessDelta reuses it instead of
//     recounting. Each entry is registered at region ∪ N(region) when
//     recorded, and ProcessDelta kills the entries registered at I:
//     by symmetry of adjacency that is exactly "region meets
//     I ∪ N(I)", and a region whose own edges changed lost its entry
//     at that very delta (its endpoint is in I), so the registration-
//     time neighbourhood is still current. The memoized slot loop of
//     the kMaintainedFull ablation (LazyLocalSearch) additionally
//     records per-(slot, candidate) values; in kRestricted the pool is
//     itself a subset of I ∪ N(I), so such entries could never hit.
//
//   Both accelerations preserve bit-identical anchors versus the eager
//   loop (enforced by tests/lazy_greedy_test.cc), at every thread count
//   (tests/parallel_determinism_test.cc).
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
#include "core/memo_store.h"
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
  /// Lazy local search: shared certified-bound probes + the incumbent
  /// memo (see file comment). Bit-identical anchors to the eager loop.
  bool lazy = true;
  /// Trial-engine worker count for the slot-trial local search (and the
  /// first snapshot's greedy solve); <= 1 runs serial. Parallel trials
  /// skip the kMaintainedFull cross-snapshot slot memo (worker oracles
  /// hold no cross-call state); anchors and work counters are
  /// bit-identical to the serial session at every thread count
  /// (tests/parallel_determinism_test.cc).
  uint32_t num_threads = 1;
  /// Cascade-scan backing (enum in core/avt.h). kMaintained (default)
  /// has the CoreMaintainer patch a DynamicCsr in lockstep with the
  /// graph, so every oracle scan — serial and per-worker — reads
  /// contiguous slabs with no per-delta rebuild; kRebuildPerDelta
  /// snapshots a fresh CsrView each transition; kNone scans the dynamic
  /// adjacency. All three backings iterate neighbors in the identical
  /// order, so anchors are bit-identical across modes (pinned by the
  /// differential fuzz and the PR-4 perf gate).
  IncAvtCsrMode csr = IncAvtCsrMode::kMaintained;
  /// Delta-transaction width the tracker requests from the driving
  /// engine (AvtEngine honors it via AvtTracker::PreferredBatchSize).
  /// With N > 1 the engine merges N consecutive source deltas into one
  /// canonical net-effect transaction, so the tracker pays ONE memo
  /// invalidation pass, ONE candidate-index update and pool read, and
  /// ONE local search per N deltas — and observes exactly every N-th
  /// snapshot of the stream, with state bit-identical to what the
  /// per-delta replay reaches at those boundaries (DeltaBatcher's
  /// last-op-wins guarantee; tests/differential_fuzz_test.cc pins it).
  /// 1 (default) is verbatim per-delta delivery.
  size_t batch_size = 1;
  /// Retention policy for the cross-snapshot trial memo (enum in
  /// core/avt.h, store in core/memo_store.h). Anchors are bit-identical
  /// under every policy — eviction only costs recomputation (pinned by
  /// the differential-fuzz policy matrix). Ignored in eager mode, which
  /// keeps no cross-snapshot memo at all.
  MemoPolicy memo_policy = MemoPolicy::kMemoizeAll;
  /// Byte budget for MemoPolicy::kLru (0 = the store's default 1 MiB);
  /// the memo table's slot array never outgrows it. Ignored by the
  /// other policies.
  size_t memo_budget_bytes = 0;
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
  /// K-order (back of level 0), CSR mirror, the oracle/engine scratch,
  /// and this tracker's per-vertex state, all without invalidating the
  /// cross-snapshot memo — an isolated vertex intersects no recorded
  /// dependency region and cannot change any query's result.
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
  /// integrity audits certify against each other.
  TrackerAuditView AuditView() const override {
    return {&maintainer_.graph(), &maintainer_.order()};
  }
  bool InjectAuditFaultForDrill() override {
    return maintainer_.InjectIndexFaultForDrill();
  }

 private:
  /// A (key, generation) reference into the memo store: the store
  /// stamps every Record, so a reference whose entry was overwritten,
  /// evicted, or cleared elsewhere is recognizably stale — skipped by
  /// the invalidation walk and dropped by compaction instead of
  /// accumulating forever. Stored as a node of a singly linked list in
  /// the shared touch_nodes_ pool.
  struct TouchNode {
    uint64_t key;
    uint32_t gen;
    uint32_t next;  // next node of the list, or kNilNode
  };

  /// One touch/bound list: its head node plus its compaction trigger. A
  /// list compacts (drops stale references) when it reaches
  /// max(kTouchCompactMin, twice the survivors of its last compaction)
  /// references — so every O(n) sweep is paid for by at least n/2
  /// preceding pushes, amortized O(1). `pushes_left` counts down to it.
  /// Eight bytes per vertex and no allocation of its own: all lists
  /// share one node pool, so the index never scatters small blocks over
  /// the heap.
  struct TouchList {
    uint32_t head = kNilNode;
    uint32_t pushes_left = kTouchCompactMin;
  };

  /// |C_k| of the maintained graph (anchors excluded by construction:
  /// anchors are tracked outside the k-core).
  uint32_t KCoreSize() const;

  /// Registers (key, gen) at every vertex of the given region spans (a
  /// query's anchors + forward-pass pops) and at their neighbours, so
  /// ProcessDelta needs to invalidate at the impacted vertices only.
  void RecordTouch(uint64_t key, uint32_t gen,
                   std::span<const VertexId> region_a,
                   std::span<const VertexId> region_b);

  /// Pushes (key, gen) onto a touch/bound list — or, when the list's
  /// latest reference has the same key, replaces it (the same entry, or
  /// one the new Record superseded) — compacting stale references when
  /// the list hits its trigger.
  void PushTouch(TouchList& list, uint64_t key, uint32_t gen);
  /// Returns an unlinked node to the free chain; keeps touch_total_ in
  /// step.
  void ReleaseTouchNode(uint32_t node);
  /// Drops references whose memo entries are gone or superseded.
  void CompactTouchList(TouchList& list);
  /// Empties a list (references only — entries stay) and resets its
  /// trigger; keeps touch_total_ in step.
  void ClearTouchList(TouchList& list);

  /// Kills every memo entry a list references (stale references are
  /// skipped), then empties the list.
  void EraseAndClear(TouchList& list);

  /// Local search over `pool` (already sorted) as one trial-engine
  /// session — lazy or eager, at any thread count. Updates anchors_ and
  /// current; returns work counters via snap.
  void LocalSearch(const std::vector<VertexId>& pool, uint32_t& current,
                   AvtSnapshotResult& snap);
  /// The serial lazy kMaintainedFull + memo ablation: per-slot bound
  /// heaps whose entries are memoized across snapshots.
  void LazyLocalSearch(const std::vector<VertexId>& pool, uint32_t& current,
                       AvtSnapshotResult& snap);

  uint32_t k_;
  uint32_t l_;
  IncAvtMode mode_;
  IncAvtOptions options_;
  size_t t_ = 0;
  CoreMaintainer maintainer_;
  /// Slot-trial evaluator bound to the maintainer's graph/order plus
  /// whichever CSR backing options_.csr selects (the per-worker oracles
  /// share the maintained mirror read-only). Its worker-0 oracle serves
  /// the tracker's own serial queries, so threads=1 holds one oracle.
  std::unique_ptr<TrialEngine> engine_;
  /// kRebuildPerDelta scratch: filled from the maintained graph in
  /// ProcessFirst and refilled at the start of every ProcessDelta
  /// (caller-owned buffers, so the rebuild reuses its high-water
  /// allocation). Stable address — the engine binds it once.
  CsrView rebuilt_csr_;
  std::vector<VertexId> anchors_;
  /// Theorem-3 verdicts and candidate-neighbour lists, updated from each
  /// ApplyDelta's report (unused by kCarryForward, which has no pool).
  CandidateIndex candidates_;
  /// Per-vertex flag bytes. kAnchor marks S_t and is kept in step at
  /// every commit; it keeps anchors out of the pool and out of
  /// LazyLocalSearch's live sets. kPooled is the pool build's dedupe
  /// mark (a vertex next to several impacted vertices is pooled once)
  /// and is cleared again before the search, so no per-delta O(n) reset
  /// is needed.
  enum : uint8_t { kAnchor = 1, kPooled = 2 };
  std::vector<uint8_t> flags_;
  std::vector<VertexId> pool_;

  // --- lazy-mode state ---------------------------------------------
  /// Cross-snapshot trial memo behind the MemoPolicy abstraction (key
  /// space and retention semantics documented in core/memo_store.h).
  /// Cleared whenever anchors_ changes (a new base invalidates every
  /// trial); churn kills individual entries via touch_index_, and a dead
  /// base drags its dependent bounds along (slot_bound_keys_). Policies
  /// may additionally evict entries (LRU budget, top-value-only) — the
  /// generation stamps keep those evictions and this tracker's
  /// invalidation bookkeeping consistent with each other.
  TrialMemoStore memo_;
  /// Per-transition deltas for AvtSnapshotResult's memo counters.
  TrialMemoStore::Stats last_memo_stats_;
  /// Inverted dependency index: touch_index_[v] lists the memo entries
  /// whose region contains v or a neighbour of v. ProcessDelta erases
  /// exactly those entries for each impacted vertex;
  /// stale references are skipped via their generation stamp and
  /// dropped by per-list compaction. touch_total_ (references currently
  /// held across ALL lists) still triggers a periodic full reset as the
  /// global backstop.
  std::vector<TouchList> touch_index_;
  size_t touch_total_ = 0;
  /// slot_bound_keys_[slot] — references to bounds probed against the
  /// slot's current base cascade; erased together with the base.
  std::vector<TouchList> slot_bound_keys_;
  /// Node pool shared by every touch/bound list; freed nodes chain
  /// from touch_free_ and are reused first.
  std::vector<TouchNode> touch_nodes_;
  uint32_t touch_free_ = kNilNode;

  static constexpr uint64_t kIncumbentKey = TrialMemoStore::kIncumbentKey;
  static constexpr uint64_t kBaseKeyBase = TrialMemoStore::kBaseKeyBase;
  static constexpr uint32_t kTouchCompactMin = 64;
  static constexpr uint32_t kNilNode = static_cast<uint32_t>(-1);
};

}  // namespace avt

#endif  // AVT_CORE_INC_AVT_H_
