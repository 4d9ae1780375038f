#include "core/inc_avt.h"

#include <algorithm>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/greedy.h"
#include "util/timer.h"

namespace avt {

uint32_t IncAvtTracker::KCoreSize() const {
  // The K-order level lists partition V by core number, so |C_k| is the
  // sum of the level sizes from k up — O(degeneracy) instead of the
  // former O(n) per-vertex scan (which dominated small-delta snapshots).
  uint32_t size = 0;
  const KOrder& order = maintainer_.order();
  for (uint32_t level = k_; level <= order.MaxLevel(); ++level) {
    size += order.LevelSize(level);
  }
  return size;
}

AvtSnapshotResult IncAvtTracker::ProcessFirst(const Graph& g0) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = t_ = 0;

  // Algorithm 6 lines 1-2: build the K-order of G_1 and solve it with the
  // Greedy algorithm (lazy pick loop unless the tracker is eager — both
  // produce identical anchors).
  maintainer_.Reset(g0);
  // The engine's per-worker oracles scan the maintainer's graph
  // read-only; its worker-0 oracle is also this tracker's serial oracle.
  engine_ = std::make_unique<TrialEngine>(&maintainer_.graph(),
                                          &maintainer_.order(),
                                          /*csr=*/nullptr,
                                          options_.num_threads);
  // The first solve runs on the maintainer's graph and K-order and this
  // tracker's engine: no second adjacency, K-order or oracle set. Its
  // Theorem-3 scan also seeds the candidate index.
  const std::vector<VertexId> first_pool = CollectAnchorCandidates(
      maintainer_.graph(), maintainer_.order(), k_);
  if (mode_ != IncAvtMode::kCarryForward) {
    candidates_.Seed(maintainer_.graph(), k_, first_pool);
  }
  GreedyOptions greedy_options;
  greedy_options.lazy = options_.lazy;
  GreedySolver greedy(greedy_options);
  SolverResult first = greedy.Solve(*engine_, k_, l_, first_pool);
  anchors_ = first.anchors;

  flags_.assign(g0.NumVertices(), 0);
  for (VertexId a : anchors_) flags_[a] = kAnchor;
  pool_.clear();

  snap.anchors = anchors_;
  snap.num_followers = first.num_followers();
  snap.candidates_visited = first.candidates_visited;
  snap.bound_probes = first.bound_probes;
  snap.kcore_size = KCoreSize();
  uint32_t anchors_outside = 0;
  for (VertexId a : anchors_) {
    if (maintainer_.order().CoreOf(a) < k_) ++anchors_outside;
  }
  snap.anchored_core_size =
      snap.kcore_size + anchors_outside + snap.num_followers;
  snap.millis = timer.ElapsedMillis();
  return snap;
}

void IncAvtTracker::LocalSearch(const std::vector<VertexId>& pool,
                                uint32_t& current, AvtSnapshotResult& snap) {
  // Algorithm 6 lines 9-16 as one trial-engine session over the pool:
  // per anchor slot the best strict improvement over `current` wins;
  // then, if the budget was never filled (tiny first snapshot), extend
  // with the ungated argmax. Lazy sessions probe every pool vertex once
  // against the anchors at entry and re-probe per slot only where the
  // slot's base changes a probe's region (anchor/trial_engine.h);
  // eager sessions run one full query per live vertex per slot. Both
  // commit exactly the eager loop's anchors at every thread count.
  if (pool.empty()) return;
  snap.bound_probes += engine_->Begin(pool, anchors_, k_, options_.lazy);
  auto commit = [&](const TrialOutcome& outcome) {
    snap.candidates_visited += outcome.full_queries;
    snap.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) return false;
    current = outcome.followers;
    return true;
  };

  std::vector<VertexId> base;
  for (size_t i = 0; i < anchors_.size(); ++i) {
    base = anchors_;
    base.erase(base.begin() + static_cast<ptrdiff_t>(i));
    TrialOutcome outcome =
        engine_->Pick(base, TrialPolicy{.gate = true, .floor = current});
    if (!commit(outcome)) continue;
    flags_[anchors_[i]] &= static_cast<uint8_t>(~kAnchor);
    flags_[outcome.vertex] |= kAnchor;
    anchors_[i] = outcome.vertex;
  }
  while (anchors_.size() < l_) {
    TrialOutcome outcome = engine_->Pick(anchors_, TrialPolicy{});
    if (!commit(outcome)) break;
    flags_[outcome.vertex] |= kAnchor;
    anchors_.push_back(outcome.vertex);
  }
}

void IncAvtTracker::EnsureVertices(VertexId count) {
  if (count <= maintainer_.graph().NumVertices()) return;
  maintainer_.EnsureVertices(count);
  const size_t n = maintainer_.graph().NumVertices();
  if (mode_ != IncAvtMode::kCarryForward) candidates_.EnsureVertices(count);
  flags_.resize(n, 0);
  if (engine_) engine_->ResizeScratch();
}

AvtSnapshotResult IncAvtTracker::ProcessDelta(const EdgeDelta& delta) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = ++t_;

  // Step 1: bounded K-order maintenance; collect impacted vertices
  // (union of the paper's VI and VR before the core-number filter), and
  // bring the candidate index up to date from the maintainer's report.
  std::vector<VertexId> impacted = maintainer_.ApplyDelta(delta);
  if (mode_ != IncAvtMode::kCarryForward) {
    candidates_.Update(maintainer_, delta, impacted);
  }

  const Graph& g = maintainer_.graph();
  const KOrder& order = maintainer_.order();

  // Step 3: replacement pool. The published algorithm (kRestricted)
  // takes impacted vertices and their neighbors, outside C_k, passing
  // Theorem 3 (Algorithm 6 line 12) — read off the candidate index; the
  // ablation modes widen the pool to every candidate or empty it, to
  // isolate the restriction's contribution. Anchors never enter it.
  // Sorted by id so the scan order (and thus tie-breaks) is
  // deterministic.
  pool_.clear();
  switch (mode_) {
    case IncAvtMode::kRestricted: {
      auto take = [this](VertexId w) {
        if (flags_[w] != 0) return;  // an anchor, or already pooled
        flags_[w] = kPooled;
        pool_.push_back(w);
      };
      for (VertexId v : impacted) {
        if (candidates_.IsCandidate(v)) take(v);
        candidates_.ForEachCandidateNeighbor(v, take);
      }
      for (VertexId v : pool_) flags_[v] = 0;
      std::sort(pool_.begin(), pool_.end());
      break;
    }
    case IncAvtMode::kMaintainedFull:
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (candidates_.IsCandidate(v) && !(flags_[v] & kAnchor)) {
          pool_.push_back(v);
        }
      }
      break;
    case IncAvtMode::kCarryForward:
      break;  // no replacements; keep S_{t-1}
  }

  // Step 2: seed with S_{t-1}; recount the incumbent follower count
  // F(S) on the new snapshot (not a candidate, so not counted in
  // candidates_visited).
  uint32_t current = engine_->oracle().CountFollowers(anchors_, k_);

  // Step 4: local search (lines 9-16), one trial-engine session.
  LocalSearch(pool_, current, snap);

  snap.anchors = anchors_;
  // `current` is the exact follower count of the committed set (the
  // incumbent or the winning trial's evaluation).
  snap.num_followers = current;
  snap.kcore_size = KCoreSize();
  uint32_t anchors_outside = 0;
  for (VertexId a : anchors_) {
    if (order.CoreOf(a) < k_) ++anchors_outside;
  }
  snap.anchored_core_size =
      snap.kcore_size + anchors_outside + snap.num_followers;
  snap.millis = timer.ElapsedMillis();
  return snap;
}

}  // namespace avt
