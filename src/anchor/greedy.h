// The paper's optimized Greedy algorithm (Section 4), plus the execution
// strategies used by the ablation benches.
//
// Per pick, the algorithm needs argmax over candidates x of the follower
// count F(S ∪ {x}) given the anchors S already chosen. Both accelerations
// of Section 4 are active in every mode:
//   4.1 candidate reduction — only vertices preceding a (k-1)-shell
//       neighbor in K-order are probed;
//   4.2 fast follower computation — order-based cascade instead of a
//       fresh core decomposition per candidate.
//
// Execution strategies for the pick loop (both route through
// anchor/trial_engine.h and compose freely with num_threads):
//   * lazy (DEFAULT) — CELF-style lazy evaluation with *certified* upper
//     bounds. The anchored-k-core objective is not submodular (the paper
//     proves inapproximability), so the classic CELF trick of reusing
//     stale gains as bounds is unsound here: a candidate's gain can grow
//     as S grows, and a stale bound would silently change the argmax.
//     Instead, each pick uses a cheap certified bound per candidate for
//     the current S (FollowerOracle::UpperBound — the phase-1 cascade
//     without the elimination fixpoint; reused from the ∅ probe only
//     where it is provably the same value), then pops a max-heap keyed
//     (bound desc, id asc), fully evaluating only the top until an
//     exact entry dominates every remaining bound. Because bound >=
//     exact always holds for the same trial set, the accepted pick is
//     provably the exhaustive argmax under the same tie-break
//     (followers desc, id asc) — anchors are bit-identical to the
//     serial scan while full oracle queries collapse to a handful per
//     pick.
//   * lazy = false ("scan") — the textbook loop: one full oracle query
//     per candidate per pick. Kept as the reference for tests and the
//     perf gate.
//
// The whole solve is one TrialEngine session. Lazy probes every
// candidate once against ∅ and, per pick, re-probes only candidates
// whose probe region the chosen anchors' base cascade touches — every
// other bound is exact as |base(S)| + its ∅ marginal. num_threads > 1
// fans the probes (lazy) or the full queries (eager) out over one
// FollowerOracle per worker; winners reduce by (followers desc, id asc)
// and the anchors stay bit-identical to the serial path at every thread
// count (the determinism argument lives in trial_engine.h; enforced by
// tests/parallel_determinism_test.cc).
//
// The graph-only Solve snapshots the graph into a CsrView once per solve
// and routes the K-order build plus all cascade scans through contiguous
// spans; the prebuilt-engine overload reuses the caller's structures and
// candidate pool.

#ifndef AVT_ANCHOR_GREEDY_H_
#define AVT_ANCHOR_GREEDY_H_

#include "anchor/solver.h"
#include "anchor/trial_engine.h"
#include "graph/csr.h"

namespace avt {

/// Tuning knobs for GreedySolver.
struct GreedyOptions {
  bool prune_candidates = true;
  /// Trial-engine worker count; <= 1 runs serial. Output is identical at
  /// every thread count.
  uint32_t num_threads = 1;
  /// Lazy pick loop with certified bounds (see file comment). Identical
  /// output to the eager scan, much cheaper. Composes with num_threads.
  bool lazy = true;
};

/// Optimized greedy anchored-k-core solver.
class GreedySolver : public AnchorSolver {
 public:
  GreedySolver() = default;
  explicit GreedySolver(bool prune_candidates) {
    options_.prune_candidates = prune_candidates;
  }
  explicit GreedySolver(const GreedyOptions& options) : options_(options) {}

  SolverResult Solve(const Graph& graph, uint32_t k, uint32_t l) override;

  /// The same solve on a prebuilt engine over a caller-built candidate
  /// pool: `engine` is bound to a graph and its K-order (any adjacency
  /// backing) and `pool` is ascending — normally CollectAnchorCandidates
  /// over the same graph and order. No adjacency snapshot, K-order or
  /// oracle is built; the engine's worker count replaces options'
  /// num_threads and `pool` replaces prune_candidates. IncAvtTracker's
  /// first solve runs on its maintainer's structures and its own engine
  /// this way, and seeds its candidate index from the same pool.
  SolverResult Solve(TrialEngine& engine, uint32_t k, uint32_t l,
                     std::span<const VertexId> pool);

  std::string name() const override {
    if (!options_.prune_candidates) return "Greedy-nopruning";
    if (options_.num_threads > 1) return "Greedy-parallel";
    if (!options_.lazy) return "Greedy-scan";
    return "Greedy";
  }

 private:
  GreedyOptions options_;
  /// Per-solve adjacency snapshot, kept across Solve calls so repeated
  /// solves (StaticAvtTracker re-solving every snapshot) refill the same
  /// buffers instead of reallocating offsets/targets each time.
  CsrView csr_;
};

}  // namespace avt

#endif  // AVT_ANCHOR_GREEDY_H_
