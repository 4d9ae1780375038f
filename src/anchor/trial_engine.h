// Deterministic parallel trial evaluation: the one primitive behind both
// pick loops.
//
// GreedySolver's per-pick argmax and IncAvtTracker's per-slot local
// search both reduce to the same question: among live candidates x,
// which trial set base ∪ {x} has the most followers — tie-break smallest
// id — optionally restricted to counts strictly above an incumbent
// floor? Both loops ask it repeatedly over ONE candidate set with a
// slowly changing base (l greedy picks; IncAVT's l swap slots plus the
// extend phase), so the engine runs them as a session: Begin fixes the
// candidates, each Pick answers the question for one base, and each
// winner leaves the session. Every trial is a pure function of the
// shared read-only (graph, K-order[, CSR]) triple; what is NOT trivially
// parallel is keeping the answer and the work counters bit-identical at
// every thread count. TrialEngine owns that guarantee:
//
//   * one FollowerOracle per worker — oracle queries are non-destructive
//     over the shared structures, and each worker's cascade scratch
//     (including its own resident base cascade) is private. Worker 0's
//     oracle is also the caller's serial oracle (oracle()), so a
//     single-threaded engine allocates exactly one;
//   * lazy sessions probe ONCE per session. Begin builds the base
//     cascade of S0 (IncAVT: the anchors at transaction entry; greedy:
//     ∅) and probes every candidate x against it — fanned out over
//     per-worker GRAPH REGIONS (candidates sorted by K-order position
//     (level, tag), then block-split, so a worker's probes share
//     cache-resident K-order state). It keeps each probe's marginal
//     MUB_S0(x) − |base(S0)| and its region (x plus the vertices it
//     popped), and ranks the candidates once by (marginal desc, id asc).
//     Each Pick with base B then builds base(B) on worker 0, computes Δ
//     — the vertices whose resident base state differs between S0 and B
//     — and re-probes only the candidates whose S0 region meets
//     Δ ∪ N(Δ). Every other bound is exactly |base(B)| + marginal_S0(x)
//     (the read-set argument in anchor/follower_oracle.h), so the ranked
//     list stays in (bound desc, id asc) order under the constant
//     offset. The pick pops the larger of the list head and a small
//     heap holding the re-probes and resolved entries — the unchanged
//     CELF rule: settle with zero further queries if the top cannot
//     beat the floor, accept it if exact, otherwise resolve it with ONE
//     full query on worker 0 and re-insert. Because every bound is a
//     pure function of (base, candidate, k), the pop sequence — hence
//     the winner AND the full_queries/bound_probes counters — is
//     identical at every thread count and equal to a loop that probes
//     every candidate against every base; only the probes drop
//     (tests/trial_engine_test.cc pins both);
//   * eager sessions fan each Pick's full queries out with work stealing
//     (ParallelFor) and keep a per-worker running best — valid because
//     the global (followers desc, id asc) maximum of a set is reachable
//     from any partition of it, and the query count is |live| at every
//     thread count;
//   * small candidate sets skip the fan-out entirely (the base-cascade
//     rebuild per worker plus the fork-join wakeup dwarf a handful of
//     marginal probes); the serial path computes the identical bounds,
//     so the cutover is invisible in outputs and counters.
//
// Anchors are bit-identical to the serial path at every thread count,
// and the work counters are thread-count-invariant — both pinned by
// tests/parallel_determinism_test.cc.

#ifndef AVT_ANCHOR_TRIAL_ENGINE_H_
#define AVT_ANCHOR_TRIAL_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "anchor/follower_oracle.h"
#include "util/thread_pool.h"

namespace avt {

/// How one Pick selects its winner.
struct TrialPolicy {
  /// When true, only trials with followers strictly above `floor`
  /// qualify (IncAVT's swap slots); a lazy pick whose top bound cannot
  /// beat the floor settles with zero full queries.
  bool gate = false;
  uint32_t floor = 0;
};

/// Winner plus deterministic work counters. Both counters are pure
/// functions of the session and the pick's (base, policy) — never of
/// the thread count.
struct TrialOutcome {
  VertexId vertex = kNoVertex;  // kNoVertex: no live candidate qualified
  uint32_t followers = 0;       // exact F(base ∪ {vertex})
  uint64_t full_queries = 0;
  uint64_t bound_probes = 0;    // re-probes against this pick's base
};

/// Parallel (or serial, num_threads <= 1) trial evaluator bound to one
/// read-only (graph, order[, csr]) triple. The referenced structures must
/// outlive the engine and stay unchanged during a session; after the
/// graph/order are maintained in place (IncAVT), the next session simply
/// reads the new state.
class TrialEngine {
 public:
  TrialEngine(const Graph* graph, const KOrder* order, const CsrView* csr,
              uint32_t num_threads);

  uint32_t num_threads() const { return num_threads_; }

  /// The workers' pool (null at 1 thread). It is idle between sessions,
  /// so callers may run their own fork-join work on it there.
  ThreadPool* pool() const { return pool_.get(); }

  /// Worker 0's oracle, for the caller's own serial queries between
  /// picks (its resident base is the engine's; do not BuildBase on it
  /// during a lazy session).
  FollowerOracle& oracle() { return *oracles_[0]; }

  /// Re-sizes every worker oracle's scratch after the bound graph/order
  /// grew (streaming sources add vertices mid-stream). Call between
  /// sessions only.
  void ResizeScratch();

  /// Opens a session over `candidates` (duplicate-free, disjoint from
  /// every base a Pick passes; any order). Lazy sessions probe every
  /// candidate against `s0` here and return the number of probes run
  /// (|candidates|); eager sessions ignore `s0` and return 0.
  uint64_t Begin(std::span<const VertexId> candidates,
                 std::span<const VertexId> s0, uint32_t k, bool lazy);

  /// Argmax over the session's remaining candidates of F(base ∪ {x})
  /// under `policy`. The winner leaves the session.
  TrialOutcome Pick(std::span<const VertexId> base,
                    const TrialPolicy& policy);

  /// Closes the session and releases its scratch. A one-shot solve
  /// calls it so its candidate set — which can dwarf the per-transaction
  /// sessions that follow — does not stay resident.
  void End();

  /// Total cascade vertices visited across all worker oracles (the
  /// solver-level cascade_visited metric).
  uint64_t CascadeVisited() const;

 private:
  /// (vertex, candidate index): one vertex of one probe's S0 region.
  struct RegionRef {
    VertexId vertex;
    uint32_t index;
  };
  /// Heap entry of a lazy pick: max-heap by value with smaller id first
  /// on ties — the common tie-break of every pick loop.
  struct LazyEntry {
    uint32_t value;  // exact ? F(base ∪ {v}) : certified upper bound
    VertexId vertex;
    uint32_t index;
    bool exact;
    bool operator<(const LazyEntry& other) const {
      if (value != other.value) return value < other.value;
      return vertex > other.vertex;
    }
  };

  TrialOutcome PickLazy(std::span<const VertexId> base,
                        const TrialPolicy& policy);
  TrialOutcome PickEager(std::span<const VertexId> base,
                         const TrialPolicy& policy);
  void Take(uint32_t index);

  const uint32_t num_threads_;
  const KOrder* order_;               // partition key source (level, tag)
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  std::vector<std::unique_ptr<FollowerOracle>> oracles_;

  // --- session state (scratch reused across sessions) ----------------
  uint32_t k_ = 0;
  bool lazy_ = false;
  std::vector<VertexId> candidates_;
  std::vector<uint8_t> taken_;  // per candidate index: a past winner
  size_t remaining_ = 0;
  std::vector<uint32_t> live_;  // eager pick scratch: live indices
  // Lazy only: the S0 probes.
  std::vector<FollowerOracle::BaseState> s0_state_;
  uint32_t s0_count_ = 0;
  std::vector<int32_t> marginal_;  // MUB_S0(x) − |base(S0)|, >= -1
  std::vector<uint32_t> ranked_;   // indices by (marginal desc, id asc)
  std::vector<RegionRef> regions_;  // every probe region, by vertex
  std::vector<std::vector<RegionRef>> worker_regions_;  // workers >= 1
  std::vector<uint32_t> perm_;  // K-order-sorted indices (fan-out)
  // Lazy pick scratch: candidates re-probed this pick carry its stamp.
  std::vector<uint32_t> reprobed_at_;
  uint32_t pick_stamp_ = 0;
  std::vector<VertexId> change_;  // Δ ∪ N(Δ), with repeats
  std::vector<LazyEntry> heap_;
};

}  // namespace avt

#endif  // AVT_ANCHOR_TRIAL_ENGINE_H_
