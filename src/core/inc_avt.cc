#include "core/inc_avt.h"

#include <algorithm>
#include <queue>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/greedy.h"
#include "util/timer.h"

namespace avt {
namespace {

/// Heap entry of the lazy local search: max-heap by value, smaller id
/// first on ties — the same tie-break the eager pool scan produces.
struct LazyEntry {
  uint32_t value;  // exact ? F(trial) : certified upper bound
  VertexId vertex;
  bool exact;
  bool operator<(const LazyEntry& other) const {
    if (value != other.value) return value < other.value;
    return vertex > other.vertex;
  }
};

/// Stale references are dropped lazily (generation stamps + per-list
/// compaction); past this many HELD (vertex, key) references across all
/// lists the whole cache restarts cold — the global backstop.
constexpr size_t kTouchCompactionLimit = 4'000'000;

}  // namespace

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

void IncAvtTracker::RecordTouch(uint64_t key, uint32_t gen,
                                std::span<const VertexId> region_a,
                                std::span<const VertexId> region_b) {
  const Graph& g = maintainer_.graph();
  for (std::span<const VertexId> region : {region_a, region_b}) {
    for (VertexId r : region) {
      PushTouch(touch_index_[r], key, gen);
      for (VertexId w : g.Neighbors(r)) PushTouch(touch_index_[w], key, gen);
    }
  }
}

void IncAvtTracker::PushTouch(TouchList& list, uint64_t key, uint32_t gen) {
  // Every push directly follows the Record that returned `gen`, so an
  // older reference to the same key is stale — and the same reference
  // again is a repeat (one RecordTouch reaches a vertex once per region
  // neighbour, with nothing in between).
  if (list.head != kNilNode && touch_nodes_[list.head].key == key) {
    touch_nodes_[list.head].gen = gen;
    return;
  }
  uint32_t node = touch_free_;
  if (node != kNilNode) {
    touch_free_ = touch_nodes_[node].next;
    touch_nodes_[node] = {key, gen, list.head};
  } else {
    node = static_cast<uint32_t>(touch_nodes_.size());
    touch_nodes_.push_back({key, gen, list.head});
  }
  list.head = node;
  ++touch_total_;
  if (--list.pushes_left == 0) CompactTouchList(list);
}

void IncAvtTracker::ReleaseTouchNode(uint32_t node) {
  touch_nodes_[node].next = touch_free_;
  touch_free_ = node;
  --touch_total_;
}

void IncAvtTracker::CompactTouchList(TouchList& list) {
  uint32_t kept = 0;
  for (uint32_t* link = &list.head; *link != kNilNode;) {
    const uint32_t node = *link;
    if (memo_.IsLive(touch_nodes_[node].key, touch_nodes_[node].gen)) {
      ++kept;
      link = &touch_nodes_[node].next;
      continue;
    }
    *link = touch_nodes_[node].next;
    ReleaseTouchNode(node);
  }
  // Next sweep only once the list doubles from here: amortized O(1).
  list.pushes_left = std::max(kTouchCompactMin, 2 * kept) - kept;
}

void IncAvtTracker::ClearTouchList(TouchList& list) {
  while (list.head != kNilNode) {
    const uint32_t node = list.head;
    list.head = touch_nodes_[node].next;
    ReleaseTouchNode(node);
  }
  list.pushes_left = kTouchCompactMin;
}

void IncAvtTracker::EraseAndClear(TouchList& list) {
  // EraseRef skips references whose entry was meanwhile overwritten
  // (its region was re-recorded under a newer generation) or evicted.
  for (uint32_t node = list.head; node != kNilNode;
       node = touch_nodes_[node].next) {
    memo_.EraseRef(touch_nodes_[node].key, touch_nodes_[node].gen);
  }
  ClearTouchList(list);
}

AvtSnapshotResult IncAvtTracker::ProcessFirst(const Graph& g0) {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = t_ = 0;

  // Algorithm 6 lines 1-2: build the K-order of G_1 and solve it with the
  // Greedy algorithm (lazy pick loop unless the tracker is eager — both
  // produce identical anchors).
  maintainer_.Reset(g0);
  maintainer_.SetCsrMirror(options_.csr == IncAvtCsrMode::kMaintained);
  // Scan backing per options_.csr: the maintained mirror (patched in
  // place, stable pointer), the per-delta rebuilt snapshot (stable
  // member, refilled before every use), or the dynamic adjacency. The
  // engine's per-worker oracles share the same backing read-only; its
  // worker-0 oracle is also this tracker's serial oracle.
  rebuilt_csr_ = CsrView{};
  const CsrView* frozen = nullptr;
  if (options_.csr == IncAvtCsrMode::kRebuildPerDelta) {
    maintainer_.graph().BuildCsr(&rebuilt_csr_);
    frozen = &rebuilt_csr_;
  }
  engine_ = std::make_unique<TrialEngine>(&maintainer_.graph(),
                                          &maintainer_.order(), frozen,
                                          options_.num_threads,
                                          maintainer_.csr());
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

  // Reset the cross-snapshot memo under the configured retention
  // policy. Eager mode keeps no cross-snapshot memo at all, so it
  // configures kNone regardless — the store then reports zero bytes
  // and every memo path below self-gates on enabled().
  const size_t num_slots = 2 * static_cast<size_t>(l_) + 2;
  memo_.Configure(options_.lazy ? options_.memo_policy : MemoPolicy::kNone,
                  options_.memo_budget_bytes, num_slots);
  last_memo_stats_ = memo_.stats();
  touch_index_.assign(g0.NumVertices(), {});
  touch_total_ = 0;
  slot_bound_keys_.assign(num_slots, {});
  touch_nodes_.clear();
  touch_free_ = kNilNode;
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
  snap.memo_bytes = memo_.bytes();
  snap.millis = timer.ElapsedMillis();
  return snap;
}

void IncAvtTracker::LazyLocalSearch(const std::vector<VertexId>& pool,
                                    uint32_t& current,
                                    AvtSnapshotResult& snap) {
  // The kMaintainedFull + memo ablation: LocalSearch's slot loop with
  // a per-slot certified-bound heap (identical CELF discipline, so the
  // same committed anchors), whose bounds and exact values are memoized
  // across snapshots with region-based invalidation. Only the wider
  // pools see recurring unimpacted candidates — in kRestricted the pool
  // is a subset of the set ProcessDelta just invalidated, so per-slot
  // entries would never hit.
  std::vector<VertexId> base;
  std::priority_queue<LazyEntry> heap;
  bool base_ready = false;  // physical base state == this slot's base?

  FollowerOracle& oracle = engine_->oracle();

  // (Re)establishes the oracle's resident cascade for the slot's trial
  // base. Each slot's base is memoized across snapshots under
  // kBaseKeyBase | slot with its own dependency region; when churn kills
  // it, every per-slot bound probed against it dies too
  // (slot_bound_keys_). The oracle holds one physical base at a time, so
  // switching slots rebuilds it — a rebuild over a clean region is
  // deterministic, so memoized bounds stay exact.
  // `record = false` skips all memo/touch bookkeeping — used by the
  // extend phase, whose every iteration ends in a commit that would
  // discard the entries unread.
  auto ensure_base = [&](uint64_t slot, std::span<const VertexId> trial_base,
                         bool record) {
    if (base_ready) return;
    const uint64_t base_key = kBaseKeyBase | slot;
    if (record && !memo_.ContainsLive(base_key)) {
      // The base died (churn or eviction): every bound probed against
      // it dies too. Stale references — bounds since re-recorded under
      // a newer generation, or upgraded to exact entries that carry
      // their own full region — are skipped, not erased.
      EraseAndClear(slot_bound_keys_[slot]);
      oracle.BuildBase(trial_base, k_);
      const uint32_t gen = memo_.Record(base_key, {0, true});
      if (gen != TrialMemoStore::kDroppedGen) {
        RecordTouch(base_key, gen, oracle.BaseRegionAnchors(),
                    oracle.BaseRegionVisited());
      }
    } else {
      oracle.BuildBase(trial_base, k_);
    }
    base_ready = true;
  };

  // Certified per-slot bound on F(trial_base ∪ {v}): the phase-1 count
  // of the exact trial set, obtained as a marginal continuation of the
  // slot's resident cascade (cost: v's marginal region only).
  auto bound_of = [&](uint64_t slot, std::span<const VertexId> trial_base,
                      VertexId v, bool record) -> uint32_t {
    ensure_base(slot, trial_base, record);
    ++snap.bound_probes;
    uint32_t ub = oracle.MarginalUpperBound(v);
    if (record) {
      const uint64_t key = (slot << 32) | v;
      const uint32_t gen = memo_.Record(key, {ub, false});
      if (gen != TrialMemoStore::kDroppedGen) {
        RecordTouch(key, gen, oracle.LastMarginalVisited(), {});
        PushTouch(slot_bound_keys_[slot], key, gen);
      }
    }
    return ub;
  };

  // Resolves the heap top to an exact value (one full query per
  // non-exact pop), memoizing per (slot, candidate); returns the
  // accepted exact top.
  auto resolve_top = [&](uint64_t slot, std::span<const VertexId> trial_base,
                         bool stop_at_current, bool record) -> LazyEntry {
    while (!heap.empty()) {
      LazyEntry top = heap.top();
      if (stop_at_current && top.value <= current) {
        return {0, kNoVertex, true};  // nothing can strictly improve
      }
      if (top.exact) return top;
      heap.pop();
      ++snap.candidates_visited;
      uint32_t exact = oracle.CountFollowers(trial_base, top.vertex, k_);
      if (record) {
        const uint64_t key = (slot << 32) | top.vertex;
        const uint32_t gen = memo_.Record(key, {exact, true});
        if (gen != TrialMemoStore::kDroppedGen) {
          RecordTouch(key, gen, oracle.LastRegionAnchors(),
                      oracle.LastRegionVisited());
        }
      }
      heap.push({exact, top.vertex, true});
    }
    return {0, kNoVertex, true};
  };

  // Commits a new anchor set: every memo entry was evaluated against a
  // base containing the replaced set, so the whole cache (resident
  // cascades included) dies. The winning trial's exact value is the new
  // F(S); the next snapshot re-establishes its dependency region with
  // one full query.
  auto commit = [&](const LazyEntry& winner) {
    memo_.Clear();
    for (TouchList& bounds : slot_bound_keys_) ClearTouchList(bounds);
    current = winner.value;
  };

  // A memoized bound is only as valid as the base cascade it was probed
  // against: exact entries carry their full region, but bound entries'
  // recorded region is their marginal cascade only, with the base's
  // region tracked by the slot's base key. A dead base key therefore
  // disqualifies surviving bound entries (ensure_base purges them on
  // the next probe); without this gate a stale bound could under-
  // estimate and silently settle a slot the eager loop would improve.
  auto memo_hit = [&](uint64_t slot, VertexId v, LazyEntry* out) {
    TrialMemoStore::Entry entry;
    const bool found = memo_.Lookup((slot << 32) | v, &entry);
    const bool usable =
        found && (entry.exact || memo_.ContainsLive(kBaseKeyBase | slot));
    memo_.CountLookup(usable);
    if (!usable) return false;
    *out = {entry.value, static_cast<VertexId>(v), entry.exact};
    return true;
  };

  // Swap phase.
  for (size_t i = 0; i < anchors_.size() && !pool.empty(); ++i) {
    base = anchors_;
    base.erase(base.begin() + static_cast<ptrdiff_t>(i));
    heap = std::priority_queue<LazyEntry>();
    base_ready = false;
    for (VertexId v : pool) {
      if (flags_[v] & kAnchor) continue;
      LazyEntry cached;
      if (memo_hit(i, v, &cached)) {
        heap.push(cached);
      } else {
        heap.push({bound_of(i, base, v, /*record=*/true), v, false});
      }
    }
    LazyEntry winner =
        resolve_top(i, base, /*stop_at_current=*/true, /*record=*/true);
    if (winner.vertex == kNoVertex) continue;  // slot settled, no commit
    flags_[anchors_[i]] &= static_cast<uint8_t>(~kAnchor);
    flags_[winner.vertex] |= kAnchor;
    anchors_[i] = winner.vertex;
    commit(winner);
  }

  // Extend phase: the eager loop always commits the argmax (anchoring
  // never hurts the objective by more than it adds), so no incumbent
  // gate here. The trial base is S itself.
  while (anchors_.size() < l_ && !pool.empty()) {
    const uint64_t slot = l_ + anchors_.size();
    heap = std::priority_queue<LazyEntry>();
    base_ready = false;
    bool any = false;
    for (VertexId v : pool) {
      if (flags_[v] & kAnchor) continue;
      LazyEntry cached;
      if (memo_hit(slot, v, &cached)) {
        heap.push(cached);
      } else {
        heap.push({bound_of(slot, anchors_, v, /*record=*/false), v, false});
      }
      any = true;
    }
    if (!any) break;
    LazyEntry winner = resolve_top(slot, anchors_, /*stop_at_current=*/false,
                                   /*record=*/false);
    if (winner.vertex == kNoVertex) break;
    anchors_.push_back(winner.vertex);
    flags_[winner.vertex] |= kAnchor;
    commit(winner);
  }
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
  // Every commit changes F(S): the incumbent memo entry dies with it.
  auto commit = [&](const TrialOutcome& outcome) {
    snap.candidates_visited += outcome.full_queries;
    snap.bound_probes += outcome.bound_probes;
    if (outcome.vertex == kNoVertex) return false;
    memo_.Clear();
    for (TouchList& bounds : slot_bound_keys_) ClearTouchList(bounds);
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
  touch_index_.resize(n);
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

  // kRebuildPerDelta ablation: snapshot the post-delta adjacency into
  // the bound CsrView before any oracle scan. The maintained mirror
  // (kMaintained) needs nothing here — ApplyDelta already patched it.
  if (options_.csr == IncAvtCsrMode::kRebuildPerDelta) {
    g.BuildCsr(&rebuilt_csr_);
  }

  // Warm-start invalidation: kill exactly the memo entries whose
  // dependency region the churn touched. A cached evaluation stays
  // exact iff its region avoids every impacted vertex and its one-hop
  // neighborhood — the query reads edges incident to the region and
  // positions of the region + its neighbors, and the maintainer marks
  // every cascade-touched vertex and both endpoints of every changed
  // edge, so impacted ∪ N(impacted) covers all state changes. Entries
  // are registered at region ∪ N(region) (RecordTouch), so the impacted
  // vertices' own lists name them all. The periodic full reset bounds
  // dead key references in the index.
  if (options_.lazy && memo_.enabled()) {
    if (touch_total_ > kTouchCompactionLimit) {
      memo_.Clear();
      touch_index_.assign(touch_index_.size(), {});
      slot_bound_keys_.assign(slot_bound_keys_.size(), {});
      touch_nodes_.clear();
      touch_free_ = kNilNode;
      touch_total_ = 0;
    }
    for (VertexId v : impacted) EraseAndClear(touch_index_[v]);
  }

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
  std::vector<VertexId>& pool = pool_;

  // Step 2: seed with S_{t-1}; re-establish the incumbent follower count
  // F(S) on the new snapshot. In lazy mode the previous snapshot's value
  // is reused when churn did not touch its dependency region.
  uint32_t current = 0;
  bool have_incumbent = false;
  if (options_.lazy && memo_.enabled()) {
    TrialMemoStore::Entry incumbent;
    have_incumbent = memo_.Lookup(kIncumbentKey, &incumbent);
    memo_.CountLookup(have_incumbent);
    if (have_incumbent) current = incumbent.value;
  }
  if (!have_incumbent) {
    FollowerOracle& oracle = engine_->oracle();
    current = oracle.CountFollowers(anchors_, k_);
    if (options_.lazy && memo_.enabled()) {
      const uint32_t gen = memo_.Record(kIncumbentKey, {current, true});
      if (gen != TrialMemoStore::kDroppedGen) {
        RecordTouch(kIncumbentKey, gen, oracle.LastRegionAnchors(),
                    oracle.LastRegionVisited());
      }
    }
  }

  // Step 4: local search (lines 9-16). Only the serial lazy
  // kMaintainedFull ablation with a memo keeps the per-slot memoizing
  // loop; everything else is one trial-engine session.
  const bool memoize_slots = options_.lazy && options_.num_threads <= 1 &&
                             mode_ != IncAvtMode::kRestricted &&
                             memo_.enabled();
  if (memoize_slots) {
    LazyLocalSearch(pool, current, snap);
  } else {
    LocalSearch(pool, current, snap);
  }

  snap.anchors = anchors_;
  // `current` is the exact follower count of the committed set in both
  // paths (incumbent or winning trial evaluation).
  snap.num_followers = current;
  snap.kcore_size = KCoreSize();
  uint32_t anchors_outside = 0;
  for (VertexId a : anchors_) {
    if (order.CoreOf(a) < k_) ++anchors_outside;
  }
  snap.anchored_core_size =
      snap.kcore_size + anchors_outside + snap.num_followers;
  // Memo counters: per-transition deltas of the store's cumulative
  // stats, plus the table footprint after the transition (capacity
  // never shrinks, so the per-run max of memo_bytes is the peak).
  const TrialMemoStore::Stats& memo_stats = memo_.stats();
  snap.memo_hits = memo_stats.hits - last_memo_stats_.hits;
  snap.memo_misses = memo_stats.misses - last_memo_stats_.misses;
  snap.memo_evictions = memo_stats.evictions - last_memo_stats_.evictions;
  snap.memo_bytes = memo_.bytes();
  last_memo_stats_ = memo_stats;
  snap.millis = timer.ElapsedMillis();
  return snap;
}

}  // namespace avt
