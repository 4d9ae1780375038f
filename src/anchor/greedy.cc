#include "anchor/greedy.h"

#include "anchor/candidates.h"
#include "anchor/follower_oracle.h"
#include "anchor/trial_engine.h"
#include "corelib/korder.h"

namespace avt {

SolverResult GreedySolver::Solve(const Graph& graph, uint32_t k,
                                 uint32_t l) {
  if (k == 0 || l == 0) return SolverResult{};

  // One contiguous adjacency snapshot serves the whole solve: the
  // K-order build and every oracle cascade scan it. The view lives in
  // the solver so back-to-back solves reuse its buffers.
  graph.BuildCsr(&csr_);
  KOrder order;
  order.Build(csr_);
  TrialEngine engine(&graph, &order, &csr_, options_.num_threads);
  const std::vector<VertexId> pool =
      options_.prune_candidates ? CollectAnchorCandidates(csr_, order, k)
                                : CollectUnprunedCandidates(csr_, order, k);
  return Solve(engine, k, l, pool);
}

SolverResult GreedySolver::Solve(TrialEngine& engine, uint32_t k, uint32_t l,
                                 std::span<const VertexId> pool) {
  SolverResult result;
  if (k == 0 || l == 0) return result;
  const uint64_t visited_before = engine.CascadeVisited();

  // Algorithm 2: l picks, each taking the candidate with the most
  // followers given the anchors already chosen — one trial-engine
  // session over the pool (per-worker oracles, deterministic reduction;
  // serial when the engine has one worker):
  //   * lazy (default) — every candidate probed once against ∅, then
  //     per pick only the probes the chosen anchors' cascade touches
  //     are redone, and certified-bound CELF resolves (see greedy.h);
  //   * eager scan — one full query per candidate, the reference loop.
  // Zero-marginal picks are allowed (an anchor always joins C_k(S)
  // itself), matching the paper's objective |C_k(S)| = |C_k| + |S| + |F|.
  std::vector<VertexId> chosen;
  result.bound_probes = engine.Begin(pool, chosen, k, options_.lazy);
  for (uint32_t pick = 0; pick < l; ++pick) {
    TrialOutcome outcome = engine.Pick(chosen, TrialPolicy{});
    result.candidates_visited += outcome.full_queries;
    result.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) break;  // candidate pool exhausted
    chosen.push_back(outcome.vertex);
  }
  engine.End();

  result.anchors = chosen;
  if (!chosen.empty()) {
    engine.oracle().CountFollowers(chosen, k, &result.followers);
  }
  result.cascade_visited = engine.CascadeVisited() - visited_before;
  return result;
}

}  // namespace avt
