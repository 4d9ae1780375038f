#include "anchor/trial_engine.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

namespace avt {
namespace {

/// Per-worker winner candidate (eager mode).
struct WorkerBest {
  VertexId vertex = kNoVertex;
  uint32_t index = 0;
  uint32_t followers = 0;
  uint64_t full_queries = 0;
};

bool Improves(const WorkerBest& best, uint32_t followers, VertexId vertex) {
  if (best.vertex == kNoVertex) return true;
  if (followers != best.followers) return followers > best.followers;
  return vertex < best.vertex;
}

/// Below this many probes per worker the fork-join wakeup plus the
/// per-worker base-cascade rebuild cost more than the probes they
/// spread; the serial path computes the identical bounds, so the
/// cutover changes nothing observable. (BENCH_PR3's IncAVT arm lost
/// 1.4x at 8 threads precisely because steady-state pools are this
/// small.)
constexpr size_t kMinProbesPerWorker = 8;

}  // namespace

TrialEngine::TrialEngine(const Graph* graph, const KOrder* order,
                         const CsrView* csr, uint32_t num_threads)
    : num_threads_(std::max<uint32_t>(1, num_threads)), order_(order) {
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  oracles_.reserve(num_threads_);
  for (uint32_t w = 0; w < num_threads_; ++w) {
    oracles_.push_back(
        std::make_unique<FollowerOracle>(graph, order, csr));
  }
  worker_regions_.resize(num_threads_);
}

void TrialEngine::ResizeScratch() {
  for (auto& oracle : oracles_) oracle->ResizeScratch();
}

uint64_t TrialEngine::CascadeVisited() const {
  uint64_t total = 0;
  for (const auto& oracle : oracles_) total += oracle->stats().visited;
  return total;
}

uint64_t TrialEngine::Begin(std::span<const VertexId> candidates,
                            std::span<const VertexId> s0, uint32_t k,
                            bool lazy) {
  k_ = k;
  lazy_ = lazy;
  candidates_.assign(candidates.begin(), candidates.end());
  const size_t n = candidates_.size();
  taken_.assign(n, 0);
  remaining_ = n;
  regions_.clear();
  ranked_.clear();
  if (!lazy || n == 0) return 0;

  // One certified probe per candidate against S0, partition-parallel.
  // Each marginal is a pure function of (S0, candidate, k) — the probe
  // continues the worker's private resident base cascade over
  // epoch-reset overlays — so the filled arrays are identical no matter
  // which worker computed which slot, or whether any fan-out happened.
  FollowerOracle& first = *oracles_[0];
  first.BuildBase(s0, k);
  s0_count_ = first.BaseCount();
  first.SnapshotBase(&s0_state_);
  marginal_.resize(n);
  for (auto& refs : worker_regions_) refs.clear();
  auto probe = [this](FollowerOracle& oracle, std::vector<RegionRef>& refs,
                      uint32_t i) {
    const uint32_t bound = oracle.MarginalUpperBound(candidates_[i]);
    marginal_[i] = static_cast<int32_t>(static_cast<int64_t>(bound) -
                                        static_cast<int64_t>(s0_count_));
    for (VertexId v : oracle.LastMarginalVisited()) refs.push_back({v, i});
  };
  const bool fan_out =
      pool_ != nullptr &&
      n >= static_cast<size_t>(num_threads_) * kMinProbesPerWorker;
  if (!fan_out) {
    for (uint32_t i = 0; i < n; ++i) probe(first, regions_, i);
  } else {
    // Graph-region partition: candidates sorted by K-order position
    // (level, tag), then block-split, so one worker's probes cascade
    // through neighboring K-order state instead of striding the whole
    // order. Purely a locality choice — no output depends on it.
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), 0u);
    const KOrder* order = order_;
    const std::vector<VertexId>& cand = candidates_;
    std::sort(perm_.begin(), perm_.end(),
              [order, &cand](uint32_t a, uint32_t b) {
                const VertexId u = cand[a];
                const VertexId v = cand[b];
                const uint32_t lu = order->CoreOf(u);
                const uint32_t lv = order->CoreOf(v);
                if (lu != lv) return lu < lv;
                const uint64_t tu = order->TagOf(u);
                const uint64_t tv = order->TagOf(v);
                if (tu != tv) return tu < tv;
                return u < v;
              });
    const uint32_t workers = num_threads_;
    pool_->Run([&](uint32_t w) {
      const size_t lo = ThreadPool::BlockBegin(n, workers, w);
      const size_t hi = ThreadPool::BlockEnd(n, workers, w);
      if (lo >= hi) return;
      FollowerOracle& oracle = *oracles_[w];
      if (w != 0) oracle.BuildBase(s0, k);  // worker 0 already holds S0
      // Worker 0 appends straight into the index; the other buffers
      // are concatenated below.
      std::vector<RegionRef>& refs = w == 0 ? regions_ : worker_regions_[w];
      for (size_t j = lo; j < hi; ++j) probe(oracle, refs, perm_[j]);
    });
  }

  // Inverted region index: which probes read which vertex.
  for (uint32_t w = 1; w < num_threads_; ++w) {
    regions_.insert(regions_.end(), worker_regions_[w].begin(),
                    worker_regions_[w].end());
  }
  std::sort(regions_.begin(), regions_.end(),
            [](const RegionRef& a, const RegionRef& b) {
              if (a.vertex != b.vertex) return a.vertex < b.vertex;
              return a.index < b.index;
            });
  // Ranked once per session: a pick's unchanged bounds share one
  // offset, |base(B)| − |base(S0)|, so this order is every pick's
  // (bound desc, id asc) order over them.
  ranked_.resize(n);
  std::iota(ranked_.begin(), ranked_.end(), 0u);
  std::sort(ranked_.begin(), ranked_.end(), [this](uint32_t a, uint32_t b) {
    if (marginal_[a] != marginal_[b]) return marginal_[a] > marginal_[b];
    return candidates_[a] < candidates_[b];
  });
  reprobed_at_.assign(n, 0);
  pick_stamp_ = 0;
  return n;
}

void TrialEngine::End() {
  remaining_ = 0;
  auto release = [](auto& v) { std::decay_t<decltype(v)>().swap(v); };
  release(candidates_);
  release(taken_);
  release(live_);
  release(s0_state_);
  release(marginal_);
  release(ranked_);
  release(regions_);
  for (auto& refs : worker_regions_) release(refs);
  release(perm_);
  release(reprobed_at_);
  release(change_);
  release(heap_);
}

void TrialEngine::Take(uint32_t index) {
  taken_[index] = 1;
  --remaining_;
}

TrialOutcome TrialEngine::Pick(std::span<const VertexId> base,
                               const TrialPolicy& policy) {
  if (remaining_ == 0) return TrialOutcome{};
  return lazy_ ? PickLazy(base, policy) : PickEager(base, policy);
}

TrialOutcome TrialEngine::PickLazy(std::span<const VertexId> base,
                                   const TrialPolicy& policy) {
  TrialOutcome outcome;
  FollowerOracle& oracle = *oracles_[0];
  oracle.BuildBase(base, k_);
  const int64_t base_count = oracle.BaseCount();

  // Re-probe exactly the live candidates whose S0 region meets Δ ∪ N(Δ);
  // the stamp marks them so the ranked walk below skips them.
  if (++pick_stamp_ == 0) {
    std::fill(reprobed_at_.begin(), reprobed_at_.end(), 0u);
    pick_stamp_ = 1;
  }
  change_.clear();
  oracle.AppendBaseChange(s0_state_, &change_);
  heap_.clear();
  for (VertexId v : change_) {
    auto it = std::lower_bound(
        regions_.begin(), regions_.end(), v,
        [](const RegionRef& ref, VertexId id) { return ref.vertex < id; });
    for (; it != regions_.end() && it->vertex == v; ++it) {
      const uint32_t i = it->index;
      if (taken_[i] || reprobed_at_[i] == pick_stamp_) continue;
      reprobed_at_[i] = pick_stamp_;
      heap_.push_back(
          {oracle.MarginalUpperBound(candidates_[i]), candidates_[i], i,
           false});
    }
  }
  outcome.bound_probes = heap_.size();
  std::make_heap(heap_.begin(), heap_.end());

  // CELF over the merge of the ranked list (unchanged bounds) and the
  // heap (re-probes and resolved entries): pop the (value desc, id asc)
  // top; settle with zero further queries if it cannot beat the floor;
  // accept it if exact; otherwise resolve it with ONE full query and
  // re-insert. Only the winner is ever resolved exactly, so
  // full_queries is independent of the thread count.
  size_t cursor = 0;
  while (true) {
    while (cursor < ranked_.size() &&
           (taken_[ranked_[cursor]] ||
            reprobed_at_[ranked_[cursor]] == pick_stamp_)) {
      ++cursor;
    }
    const bool listed = cursor < ranked_.size();
    LazyEntry top{};
    if (listed) {
      const uint32_t i = ranked_[cursor];
      const int64_t bound = base_count + marginal_[i];
      AVT_DCHECK(bound >= 0);
      top = {static_cast<uint32_t>(bound), candidates_[i], i, false};
    }
    const bool from_heap = !heap_.empty() && (!listed || top < heap_.front());
    if (from_heap) {
      top = heap_.front();
    } else if (!listed) {
      break;  // no live candidate left
    }
    if (policy.gate && top.value <= policy.floor) break;  // settled
    if (top.exact) {
      outcome.vertex = top.vertex;
      outcome.followers = top.value;
      Take(top.index);
      break;
    }
    if (from_heap) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
    } else {
      ++cursor;
    }
    ++outcome.full_queries;
    heap_.push_back({oracle.CountFollowers(base, top.vertex, k_),
                     top.vertex, top.index, true});
    std::push_heap(heap_.begin(), heap_.end());
  }
  return outcome;
}

TrialOutcome TrialEngine::PickEager(std::span<const VertexId> base,
                                    const TrialPolicy& policy) {
  // One full query per live candidate, fanned out with work stealing.
  // The per-worker running best depends on which indices the worker
  // ran, but the reduction below recovers the unique global (followers
  // desc, id asc) maximum from any partition; the query count is
  // |live| regardless of the thread count.
  live_.clear();
  for (uint32_t i = 0; i < candidates_.size(); ++i) {
    if (!taken_[i]) live_.push_back(i);
  }
  std::vector<WorkerBest> bests(num_threads_);
  ParallelFor(pool_.get(), live_.size(), /*grain=*/8,
              [&](uint32_t w, size_t j) {
                const uint32_t i = live_[j];
                const VertexId x = candidates_[i];
                WorkerBest& best = bests[w];
                ++best.full_queries;
                const uint32_t followers =
                    oracles_[w]->CountFollowers(base, x, k_);
                if (policy.gate && followers <= policy.floor) return;
                if (Improves(best, followers, x)) {
                  best.vertex = x;
                  best.index = i;
                  best.followers = followers;
                }
              });

  // Deterministic fold: ascending worker id, strict (followers desc,
  // id asc) tie-break over exact counts.
  TrialOutcome outcome;
  WorkerBest winner;
  for (const WorkerBest& best : bests) {
    outcome.full_queries += best.full_queries;
    if (best.vertex == kNoVertex) continue;
    if (Improves(winner, best.followers, best.vertex)) winner = best;
  }
  if (winner.vertex != kNoVertex) {
    outcome.vertex = winner.vertex;
    outcome.followers = winner.followers;
    Take(winner.index);
  }
  return outcome;
}

}  // namespace avt
