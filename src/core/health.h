// Engine health: a monotone state machine plus the sentinel auditor
// that feeds it.
//
//   kHealthy ──▶ kDegraded ──▶ kHalted
//
// A long-lived streaming engine needs a defense layer between "every
// answer is perfect" and "the process is dead": PR 7 made crashes
// survivable and this module makes *silent wrongness* survivable. The
// state machine is deliberately monotone — health never improves
// within a run, because a stream that quarantined a delta or rolled
// itself back produced a run whose provenance differs from a clean
// one, and the operator must be told so. Every transition is
// reason-coded and step-stamped; RunSummary and the CLI surface the
// terminal state.
//
// SentinelAuditor runs the actual integrity cross-checks: on a
// configurable cadence it certifies that the tracker's incrementally
// maintained K-order index holds the true core numbers of its graph,
// without recomputing them — first K seeded per-vertex certificate
// spot checks (the sampled probe), then the full CheckKOrderInvariants
// pass, O(n + m) over links and neighbours, whose local conditions hold
// iff the levels equal a fresh decomposition (corelib/invariants.h).
// The full pass runs the same certificate at every vertex, so the probe
// never changes a verdict: a fault it finds the full pass finds too,
// and K only decides whether the failure text reads "sampled vertex
// check failed" or "invariant sweep failed". The full pass runs on the
// tracker's worker pool when it has one (TrackerAuditView::pool), with
// the same verdict and text at every worker count. The audit is
// strictly read-only: an audited run's anchors and followers are
// bit-identical to an unaudited one (pinned by
// tests/self_healing_test.cc).

#ifndef AVT_CORE_HEALTH_H_
#define AVT_CORE_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace avt {

class Graph;
class KOrder;
class ThreadPool;

enum class HealthState {
  kHealthy = 0,   ///< no anomaly observed
  kDegraded = 1,  ///< run continued past an anomaly (quarantine,
                  ///< self-recovery, breaker trips); results are
                  ///< complete but provenance is not pristine
  kHalted = 2,    ///< unrecoverable; the engine refuses further Steps
};
const char* HealthStateName(HealthState state);

/// Why a transition happened. One reason can justify either a
/// degradation or a halt depending on whether the engine could keep
/// an honest stream going (docs/DURABILITY.md has the taxonomy).
enum class HealthReason {
  kNone = 0,
  kQuarantinedDelta,    ///< poison delta diverted to the dead-letter log
  kAuditRecovered,      ///< audit divergence healed by checkpoint+WAL rollback
  kSourceUnavailable,   ///< circuit breaker recorded/short-circuited a pull
  kSourceFailure,       ///< source failures exhausted the engine's patience
  kCorruption,          ///< audit divergence that rollback could not heal
  kDurabilityFailure,   ///< WAL/checkpoint write failed; log not contiguous
};
const char* HealthReasonName(HealthReason reason);

/// One recorded health transition (or reason change within a state).
struct HealthTransition {
  size_t step = 0;  ///< engine snapshots processed when it happened
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  HealthReason reason = HealthReason::kNone;
  std::string detail;
};

/// Monotone health with a bounded transition journal: a transition is
/// recorded when the state OR the reason changes, so a thousand
/// quarantined deltas cost one entry, not a thousand.
class HealthStateMachine {
 public:
  HealthState state() const { return state_; }
  /// Reason of the most recent recorded transition (kNone when healthy).
  HealthReason reason() const {
    return transitions_.empty() ? HealthReason::kNone
                                : transitions_.back().reason;
  }
  bool healthy() const { return state_ == HealthState::kHealthy; }
  bool halted() const { return state_ == HealthState::kHalted; }
  const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }

  /// Moves to kDegraded (no-op if already halted; monotone).
  void Degrade(HealthReason reason, size_t step, std::string detail);
  /// Moves to kHalted (terminal; later calls keep the first reason).
  void Halt(HealthReason reason, size_t step, std::string detail);

  /// "healthy" or "degraded (quarantined-delta)" — the CLI health line.
  std::string Describe() const;

 private:
  void MoveTo(HealthState to, HealthReason reason, size_t step,
              std::string detail);

  HealthState state_ = HealthState::kHealthy;
  std::vector<HealthTransition> transitions_;
};

/// Audit cadence and sampling knobs (`--audit-every`, `--audit-sample`).
struct AuditOptions {
  /// Audit after every Nth committed delta transaction; 0 disables.
  size_t every = 0;
  /// Seeded per-vertex certificate spot checks per audit (before the
  /// full invariant sweep; 0 skips the sampled probe). The sweep checks
  /// every vertex anyway, so this never changes a verdict, only whether
  /// a failure is reported as "sampled vertex check failed".
  uint32_t sample = 16;
  /// Seed for the per-audit sample draw; mixed with the step so every
  /// audit probes a fresh deterministic sample.
  uint64_t seed = 0x5eed;
};

/// What one audit concluded.
struct AuditOutcome {
  /// False when the tracker exposes no maintained index to audit
  /// (re-solve trackers keep only a graph copy) — not a failure.
  bool audited = false;
  bool ok = true;
  std::string failure;
};

/// Read-only integrity cross-checker over a tracker's AuditView.
class SentinelAuditor {
 public:
  explicit SentinelAuditor(const AuditOptions& options) : options_(options) {}

  bool enabled() const { return options_.every > 0; }
  /// Is transaction number `transaction` (1-based) an audit point?
  bool Due(size_t transaction) const {
    return enabled() && transaction > 0 && transaction % options_.every == 0;
  }

  /// Certifies `order` against `graph`: the sampled probe, then the
  /// full invariant pass, on `pool` when one is given (it must be idle).
  /// Either pointer null → outcome.audited = false. Never mutates
  /// anything; O(n + m), with no decomposition.
  AuditOutcome Audit(const Graph* graph, const KOrder* order, size_t step,
                     ThreadPool* pool = nullptr);

  uint64_t audits_run() const { return audits_run_; }
  uint64_t audits_failed() const { return audits_failed_; }

 private:
  AuditOptions options_;
  uint64_t audits_run_ = 0;
  uint64_t audits_failed_ = 0;
};

}  // namespace avt

#endif  // AVT_CORE_HEALTH_H_
