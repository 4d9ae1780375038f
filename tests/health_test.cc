// Health state machine + sentinel auditor unit tests: monotone
// transitions with a bounded journal, audit cadence, the read-only
// audit passing on healthy trackers and catching a drilled index
// desync, and its verdict equal to the decomposition-based reference.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "anchor/greedy.h"
#include "core/health.h"
#include "core/inc_avt.h"
#include "gen/churn.h"
#include "gen/models.h"
#include "graph/graph.h"
#include "invariants_reference.h"
#include "util/random.h"

namespace avt {
namespace {

Graph TestGraph(uint64_t seed = 42, VertexId n = 150) {
  Rng rng(seed);
  return ChungLuPowerLaw(n, 6.0, 2.2, 30, rng);
}

// --- HealthStateMachine ------------------------------------------------

TEST(HealthStateMachine, StartsHealthy) {
  HealthStateMachine health;
  EXPECT_EQ(health.state(), HealthState::kHealthy);
  EXPECT_EQ(health.reason(), HealthReason::kNone);
  EXPECT_TRUE(health.healthy());
  EXPECT_FALSE(health.halted());
  EXPECT_TRUE(health.transitions().empty());
  EXPECT_EQ(health.Describe(), "healthy");
}

TEST(HealthStateMachine, DegradeRecordsTransition) {
  HealthStateMachine health;
  health.Degrade(HealthReason::kQuarantinedDelta, 3, "poison");
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  EXPECT_EQ(health.reason(), HealthReason::kQuarantinedDelta);
  ASSERT_EQ(health.transitions().size(), 1u);
  EXPECT_EQ(health.transitions()[0].step, 3u);
  EXPECT_EQ(health.transitions()[0].from, HealthState::kHealthy);
  EXPECT_EQ(health.transitions()[0].to, HealthState::kDegraded);
  EXPECT_EQ(health.transitions()[0].detail, "poison");
  EXPECT_EQ(health.Describe(), "degraded (quarantined-delta)");
}

TEST(HealthStateMachine, RepeatedSameReasonCostsOneJournalEntry) {
  HealthStateMachine health;
  for (size_t step = 1; step <= 1000; ++step) {
    health.Degrade(HealthReason::kQuarantinedDelta, step, "poison again");
  }
  EXPECT_EQ(health.transitions().size(), 1u);
  // A different reason within the same state IS worth an entry.
  health.Degrade(HealthReason::kSourceUnavailable, 1001, "breaker open");
  EXPECT_EQ(health.transitions().size(), 2u);
  EXPECT_EQ(health.reason(), HealthReason::kSourceUnavailable);
}

TEST(HealthStateMachine, HaltIsTerminalAndKeepsFirstReason) {
  HealthStateMachine health;
  health.Halt(HealthReason::kCorruption, 5, "divergence");
  EXPECT_TRUE(health.halted());
  EXPECT_EQ(health.reason(), HealthReason::kCorruption);
  // Neither a later degrade nor a later halt moves it.
  health.Degrade(HealthReason::kQuarantinedDelta, 6, "ignored");
  health.Halt(HealthReason::kSourceFailure, 7, "ignored too");
  EXPECT_TRUE(health.halted());
  EXPECT_EQ(health.reason(), HealthReason::kCorruption);
  EXPECT_EQ(health.transitions().size(), 1u);
  EXPECT_EQ(health.Describe(), "halted (corruption)");
}

TEST(HealthStateMachine, DegradedCanStillHalt) {
  HealthStateMachine health;
  health.Degrade(HealthReason::kQuarantinedDelta, 1, "poison");
  health.Halt(HealthReason::kDurabilityFailure, 2, "wal write failed");
  EXPECT_TRUE(health.halted());
  EXPECT_EQ(health.reason(), HealthReason::kDurabilityFailure);
  ASSERT_EQ(health.transitions().size(), 2u);
  EXPECT_EQ(health.transitions()[1].from, HealthState::kDegraded);
}

TEST(HealthNames, AreStableStrings) {
  EXPECT_STREQ(HealthStateName(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(HealthStateName(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(HealthStateName(HealthState::kHalted), "halted");
  EXPECT_STREQ(HealthReasonName(HealthReason::kNone), "none");
  EXPECT_STREQ(HealthReasonName(HealthReason::kQuarantinedDelta),
               "quarantined-delta");
  EXPECT_STREQ(HealthReasonName(HealthReason::kAuditRecovered),
               "audit-recovered");
  EXPECT_STREQ(HealthReasonName(HealthReason::kSourceUnavailable),
               "source-unavailable");
  EXPECT_STREQ(HealthReasonName(HealthReason::kSourceFailure),
               "source-failure");
  EXPECT_STREQ(HealthReasonName(HealthReason::kCorruption), "corruption");
  EXPECT_STREQ(HealthReasonName(HealthReason::kDurabilityFailure),
               "durability-failure");
}

// --- SentinelAuditor ---------------------------------------------------

TEST(SentinelAuditor, CadenceGatesDue) {
  SentinelAuditor disabled(AuditOptions{});
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.Due(4));

  AuditOptions options;
  options.every = 4;
  SentinelAuditor auditor(options);
  EXPECT_TRUE(auditor.enabled());
  EXPECT_FALSE(auditor.Due(0));
  EXPECT_FALSE(auditor.Due(1));
  EXPECT_FALSE(auditor.Due(3));
  EXPECT_TRUE(auditor.Due(4));
  EXPECT_FALSE(auditor.Due(5));
  EXPECT_TRUE(auditor.Due(8));
}

TEST(SentinelAuditor, NullViewIsNotAudited) {
  AuditOptions options;
  options.every = 1;
  SentinelAuditor auditor(options);
  AuditOutcome outcome = auditor.Audit(nullptr, nullptr, 1);
  EXPECT_FALSE(outcome.audited);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(auditor.audits_run(), 0u);
}

TEST(SentinelAuditor, StaticTrackerExposesNoIndex) {
  // Re-solve trackers keep only a graph copy; their AuditView has no
  // K-order, so the audit politely declines instead of failing.
  StaticAvtTracker tracker(
      std::make_unique<GreedySolver>(GreedyOptions{}), 3, 3);
  tracker.ProcessFirst(TestGraph());
  TrackerAuditView view = tracker.AuditView();
  EXPECT_NE(view.graph, nullptr);
  EXPECT_EQ(view.order, nullptr);

  AuditOptions options;
  options.every = 1;
  SentinelAuditor auditor(options);
  AuditOutcome outcome = auditor.Audit(view.graph, view.order, 1);
  EXPECT_FALSE(outcome.audited);
}

TEST(SentinelAuditor, PassesOnHealthyIncrementalTracker) {
  IncAvtTracker tracker(3, 3, IncAvtMode::kRestricted, IncAvtOptions{});
  tracker.ProcessFirst(TestGraph());
  TrackerAuditView view = tracker.AuditView();
  ASSERT_NE(view.graph, nullptr);
  ASSERT_NE(view.order, nullptr);

  AuditOptions options;
  options.every = 1;
  SentinelAuditor auditor(options);
  for (size_t step = 1; step <= 3; ++step) {
    AuditOutcome outcome = auditor.Audit(view.graph, view.order, step);
    EXPECT_TRUE(outcome.audited);
    EXPECT_TRUE(outcome.ok) << outcome.failure;
  }
  EXPECT_EQ(auditor.audits_run(), 3u);
  EXPECT_EQ(auditor.audits_failed(), 0u);
}

TEST(SentinelAuditor, CatchesDrilledIndexDesync) {
  IncAvtTracker tracker(3, 3, IncAvtMode::kRestricted, IncAvtOptions{});
  tracker.ProcessFirst(TestGraph());
  ASSERT_TRUE(tracker.InjectAuditFaultForDrill());

  TrackerAuditView view = tracker.AuditView();
  AuditOptions options;
  options.every = 1;
  SentinelAuditor auditor(options);
  AuditOutcome outcome = auditor.Audit(view.graph, view.order, 1);
  EXPECT_TRUE(outcome.audited);
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.failure.empty());
  EXPECT_EQ(auditor.audits_failed(), 1u);
}

TEST(SentinelAuditor, SampledProbeAloneCatchesDesyncEventually) {
  // With the full sweep in play any desync is caught; this pins that
  // the SAMPLED probe works too: with sample >= n every vertex is
  // drawn with overwhelming probability across a few audits, so the
  // probe alone must flag the moved vertex. (The probe runs before
  // the sweep, so a sampled hit is reported with the probe's message.)
  Graph g = TestGraph(7, 40);
  IncAvtTracker tracker(2, 2, IncAvtMode::kRestricted, IncAvtOptions{});
  tracker.ProcessFirst(g);
  ASSERT_TRUE(tracker.InjectAuditFaultForDrill());

  AuditOptions options;
  options.every = 1;
  options.sample = 4096;  // >> n: the draw covers every vertex w.h.p.
  SentinelAuditor auditor(options);
  TrackerAuditView view = tracker.AuditView();
  AuditOutcome outcome = auditor.Audit(view.graph, view.order, 1);
  EXPECT_TRUE(outcome.audited);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.failure.find("sampled"), std::string::npos)
      << outcome.failure;
}

TEST(SentinelAuditor, DeterministicAcrossRuns) {
  // Same seed + same step → the same sample draw → identical outcome
  // text, part of the bit-identical replay story.
  Graph g = TestGraph();
  IncAvtTracker a(3, 3, IncAvtMode::kRestricted, IncAvtOptions{});
  IncAvtTracker b(3, 3, IncAvtMode::kRestricted, IncAvtOptions{});
  a.ProcessFirst(g);
  b.ProcessFirst(g);
  ASSERT_TRUE(a.InjectAuditFaultForDrill());
  ASSERT_TRUE(b.InjectAuditFaultForDrill());

  AuditOptions options;
  options.every = 1;
  SentinelAuditor audit_a(options);
  SentinelAuditor audit_b(options);
  AuditOutcome out_a =
      audit_a.Audit(a.AuditView().graph, a.AuditView().order, 7);
  AuditOutcome out_b =
      audit_b.Audit(b.AuditView().graph, b.AuditView().order, 7);
  EXPECT_EQ(out_a.ok, out_b.ok);
  EXPECT_EQ(out_a.failure, out_b.failure);
}

// --- Audit equivalence ------------------------------------------------

TEST(SentinelAuditor, VerdictMatchesDecompositionReference) {
  // The decomposition-free audit must reach the verdict of the check it
  // replaced — index cores equal to a fresh DecomposeCores plus the
  // sweep — on a healthy tracker after deltas and after the drill, with
  // the sampled probe on and off.
  for (uint32_t sample : {16u, 0u}) {
    Graph current = TestGraph();
    IncAvtTracker tracker(3, 3, IncAvtMode::kRestricted, IncAvtOptions{});
    tracker.ProcessFirst(current);
    Rng rng(5);
    ChurnOptions churn;
    churn.min_churn = 10;
    churn.max_churn = 20;
    for (int step = 0; step < 4; ++step) {
      tracker.ProcessDelta(NextChurnDelta(current, churn, rng));
    }

    AuditOptions options;
    options.every = 1;
    options.sample = sample;
    SentinelAuditor auditor(options);
    TrackerAuditView view = tracker.AuditView();
    ASSERT_NE(view.order, nullptr);

    AuditOutcome healthy = auditor.Audit(view.graph, view.order, 1);
    EXPECT_TRUE(healthy.audited);
    EXPECT_TRUE(ReferenceCheck(*view.graph, *view.order).ok());
    EXPECT_EQ(healthy.ok, ReferenceCheck(*view.graph, *view.order).ok())
        << "sample=" << sample << ": " << healthy.failure;

    ASSERT_TRUE(tracker.InjectAuditFaultForDrill());
    AuditOutcome drilled = auditor.Audit(view.graph, view.order, 2);
    EXPECT_FALSE(ReferenceCheck(*view.graph, *view.order).ok());
    EXPECT_EQ(drilled.ok, ReferenceCheck(*view.graph, *view.order).ok())
        << "sample=" << sample;
    EXPECT_EQ(auditor.audits_failed(), 1u);
  }
}

}  // namespace
}  // namespace avt
