// Differential tests for TrialEngine's shared-base sessions.
//
// A lazy session probes every candidate once against S0 and, per pick,
// re-probes only where the pick's base cascade differs from S0's. The
// reference here probes every live candidate against every base with a
// fresh phase-1 cascade (UpperBound), then runs the (value desc, id asc)
// CELF heap. Winners, exact follower counts and full-query counts must
// match pick for pick, at every thread count, across swap commits and
// the extend phase.

#include "anchor/trial_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "anchor/candidates.h"
#include "corelib/korder.h"
#include "gen/models.h"
#include "util/random.h"

namespace avt {
namespace {

struct PickRecord {
  VertexId vertex;
  uint32_t followers;
  uint64_t full_queries;
  bool operator==(const PickRecord&) const = default;
};

struct SlotRun {
  std::vector<PickRecord> picks;
  std::vector<VertexId> anchors;
  uint64_t probes = 0;
};

/// The reference pick: every live candidate probed against `base`, one
/// certified-bound heap, pop-resolve with full queries.
PickRecord ReferencePick(FollowerOracle& oracle,
                         const std::vector<VertexId>& live,
                         std::span<const VertexId> base, uint32_t k,
                         const TrialPolicy& policy) {
  struct Entry {
    uint32_t value;
    VertexId vertex;
    bool exact;
    bool operator<(const Entry& other) const {
      if (value != other.value) return value < other.value;
      return vertex > other.vertex;
    }
  };
  std::priority_queue<Entry> heap;
  for (VertexId x : live) {
    heap.push({oracle.UpperBound(base, x, k), x, false});
  }
  PickRecord record{kNoVertex, 0, 0};
  while (!heap.empty()) {
    Entry top = heap.top();
    if (policy.gate && top.value <= policy.floor) break;
    if (top.exact) {
      record.vertex = top.vertex;
      record.followers = top.value;
      break;
    }
    heap.pop();
    ++record.full_queries;
    heap.push(
        {oracle.CountFollowers(base, top.vertex, k), top.vertex, true});
  }
  return record;
}

/// IncAVT's slot sequence over one candidate pool: a gated swap per
/// anchor slot (floor = the incumbent), then ungated extend picks up to
/// l anchors. `pick(base, policy)` answers one slot.
template <typename PickFn>
SlotRun RunSlots(FollowerOracle& oracle, std::vector<VertexId> anchors,
             uint32_t k, uint32_t l, PickFn pick) {
  SlotRun run;
  uint32_t current = oracle.CountFollowers(anchors, k);
  std::vector<VertexId> base;
  for (size_t i = 0; i < anchors.size(); ++i) {
    base = anchors;
    base.erase(base.begin() + static_cast<ptrdiff_t>(i));
    PickRecord record =
        pick(base, TrialPolicy{.gate = true, .floor = current});
    run.picks.push_back(record);
    if (record.vertex == kNoVertex) continue;
    anchors[i] = record.vertex;
    current = record.followers;
  }
  while (anchors.size() < l) {
    PickRecord record = pick(anchors, TrialPolicy{});
    run.picks.push_back(record);
    if (record.vertex == kNoVertex) break;
    anchors.push_back(record.vertex);
  }
  run.anchors = anchors;
  return run;
}

SlotRun ReferenceRun(const Graph& g, const KOrder& order,
                 const std::vector<VertexId>& pool,
                 const std::vector<VertexId>& s0, uint32_t k, uint32_t l) {
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> live = pool;
  SlotRun run = RunSlots(oracle, s0, k, l,
                     [&](std::span<const VertexId> base,
                         const TrialPolicy& policy) {
                       PickRecord record =
                           ReferencePick(oracle, live, base, k, policy);
                       if (record.vertex != kNoVertex) {
                         live.erase(std::find(live.begin(), live.end(),
                                              record.vertex));
                       }
                       return record;
                     });
  return run;
}

SlotRun EngineRun(const Graph& g, const KOrder& order,
              const std::vector<VertexId>& pool,
              const std::vector<VertexId>& s0, uint32_t k, uint32_t l,
              uint32_t threads, bool lazy) {
  TrialEngine engine(&g, &order, nullptr, threads);
  uint64_t probes = engine.Begin(pool, s0, k, lazy);
  SlotRun run = RunSlots(engine.oracle(), s0, k, l,
                     [&](std::span<const VertexId> base,
                         const TrialPolicy& policy) {
                       TrialOutcome outcome = engine.Pick(base, policy);
                       probes += outcome.bound_probes;
                       return PickRecord{outcome.vertex, outcome.followers,
                                         outcome.full_queries};
                     });
  run.probes = probes;
  return run;
}

TEST(TrialEngineShared, MatchesPerBaseReferenceAcrossThreads) {
  uint64_t commits = 0;
  uint64_t extends = 0;
  uint64_t probes_saved = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(8100 + seed);
    Graph g = seed % 2 == 0 ? ChungLuPowerLaw(300, 6.0, 2.2, 50, rng)
                            : ErdosRenyi(300, 900, rng);
    KOrder order;
    order.Build(g);
    const uint32_t k = 3;
    const uint32_t l = 6;
    std::vector<VertexId> candidates = CollectAnchorCandidates(g, order, k);
    if (candidates.size() < 20) continue;
    // S0 takes every 5th candidate up to l - 2 anchors (so the extend
    // phase runs) — arbitrary picks, so swaps commit; the pool is the
    // rest.
    std::vector<VertexId> s0;
    std::vector<VertexId> pool;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (i % 5 == 0 && s0.size() < l - 2) {
        s0.push_back(candidates[i]);
      } else {
        pool.push_back(candidates[i]);
      }
    }
    SlotRun reference = ReferenceRun(g, order, pool, s0, k, l);
    for (size_t p = 0; p < reference.picks.size(); ++p) {
      if (reference.picks[p].vertex == kNoVertex) continue;
      (p < s0.size() ? commits : extends) += 1;
    }
    for (uint32_t threads : {1u, 2u, 8u}) {
      SlotRun lazy = EngineRun(g, order, pool, s0, k, l, threads, true);
      EXPECT_EQ(lazy.picks, reference.picks)
          << "seed " << seed << " threads=" << threads;
      EXPECT_EQ(lazy.anchors, reference.anchors)
          << "seed " << seed << " threads=" << threads;
      // Never more probes than the per-base reference.
      const uint64_t reference_probes = [&] {
        uint64_t total = 0;
        size_t live = pool.size();
        for (const PickRecord& pick : reference.picks) {
          total += live;
          live -= pick.vertex != kNoVertex;
        }
        return total;
      }();
      EXPECT_LE(lazy.probes, reference_probes) << "seed " << seed;
      probes_saved += reference_probes - lazy.probes;

      // Eager sessions find the same winners (their query counts are
      // |live| per pick by construction).
      SlotRun eager = EngineRun(g, order, pool, s0, k, l, threads, false);
      EXPECT_EQ(eager.anchors, reference.anchors)
          << "seed " << seed << " threads=" << threads;
      EXPECT_EQ(eager.probes, 0u);
    }
  }
  EXPECT_GT(commits, 0u);
  EXPECT_GT(extends, 0u);
  EXPECT_GT(probes_saved, 0u);
}

TEST(TrialEngineShared, GreedySequenceFromEmptyBase) {
  // Greedy's session: S0 = ∅, l ungated picks with base = picks so far.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(8300 + seed);
    Graph g = seed % 2 == 0 ? ChungLuPowerLaw(300, 6.0, 2.2, 50, rng)
                            : ErdosRenyi(300, 900, rng);
    KOrder order;
    order.Build(g);
    const uint32_t k = 3;
    std::vector<VertexId> pool = CollectAnchorCandidates(g, order, k);
    SlotRun reference = ReferenceRun(g, order, pool, {}, k, 5);
    for (uint32_t threads : {1u, 2u, 8u}) {
      SlotRun lazy = EngineRun(g, order, pool, {}, k, 5, threads, true);
      EXPECT_EQ(lazy.picks, reference.picks)
          << "seed " << seed << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace avt
