#include "core/health.h"

#include "corelib/invariants.h"
#include "corelib/korder.h"
#include "graph/graph.h"
#include "util/random.h"

namespace avt {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kHalted: return "halted";
  }
  return "unknown";
}

const char* HealthReasonName(HealthReason reason) {
  switch (reason) {
    case HealthReason::kNone: return "none";
    case HealthReason::kQuarantinedDelta: return "quarantined-delta";
    case HealthReason::kAuditRecovered: return "audit-recovered";
    case HealthReason::kSourceUnavailable: return "source-unavailable";
    case HealthReason::kSourceFailure: return "source-failure";
    case HealthReason::kCorruption: return "corruption";
    case HealthReason::kDurabilityFailure: return "durability-failure";
  }
  return "unknown";
}

void HealthStateMachine::MoveTo(HealthState to, HealthReason reason,
                                size_t step, std::string detail) {
  const bool state_changed = to != state_;
  const bool reason_changed =
      transitions_.empty() || transitions_.back().reason != reason;
  if (!state_changed && !reason_changed) return;
  HealthTransition transition;
  transition.step = step;
  transition.from = state_;
  transition.to = to;
  transition.reason = reason;
  transition.detail = std::move(detail);
  transitions_.push_back(std::move(transition));
  state_ = to;
}

void HealthStateMachine::Degrade(HealthReason reason, size_t step,
                                 std::string detail) {
  if (halted()) return;  // monotone: a halted engine never "improves"
  MoveTo(HealthState::kDegraded, reason, step, std::move(detail));
}

void HealthStateMachine::Halt(HealthReason reason, size_t step,
                              std::string detail) {
  if (halted()) return;  // terminal: keep the first halt reason
  MoveTo(HealthState::kHalted, reason, step, std::move(detail));
}

std::string HealthStateMachine::Describe() const {
  std::string description = HealthStateName(state_);
  if (state_ != HealthState::kHealthy) {
    description += " (";
    description += HealthReasonName(reason());
    description += ")";
  }
  return description;
}

AuditOutcome SentinelAuditor::Audit(const Graph* graph, const KOrder* order,
                                    size_t step, ThreadPool* pool) {
  AuditOutcome outcome;
  if (graph == nullptr || order == nullptr) return outcome;
  outcome.audited = true;
  ++audits_run_;

  const VertexId n = graph->NumVertices();
  if (order->NumVertices() == n && n > 0 && options_.sample > 0) {
    // Seeded spot checks of the per-vertex certificate, O(deg) each: a
    // fresh deterministic sample per audit point, so repeated audits of
    // the same step probe the same vertices.
    Rng rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * (step + 1)));
    for (uint32_t i = 0; i < options_.sample; ++i) {
      const VertexId v = static_cast<VertexId>(rng.Uniform(n));
      InvariantReport probe;
      if (!CheckVertexCertificate(*graph, *order, v, &probe)) {
        ++audits_failed_;
        outcome.ok = false;
        outcome.failure = "sampled vertex check failed: " + probe.failure;
        return outcome;
      }
    }
  }

  InvariantReport report = CheckKOrderInvariants(*graph, *order, pool);
  if (!report.ok) {
    ++audits_failed_;
    outcome.ok = false;
    outcome.failure = "invariant sweep failed: " + report.failure;
  }
  return outcome;
}

}  // namespace avt
