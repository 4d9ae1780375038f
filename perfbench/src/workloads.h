// The benchmark's three workloads and their input generator.
//
// Each workload is an evolving graph generated from one seed and written
// once, through WriteEdgeLog, as a binary edge log; the timed run sees
// nothing but that log (MmapEdgeLogSource). G_0 comes from the library's
// ChungLuPowerLaw, window streams from GenPowerLawActivityEvents and
// TemporalWindowSource, and churn steps from an O(|Δ|) twin of
// NextChurnDelta (workloads.cc). See perfbench/README.md for why each
// workload exists.
#ifndef AVT_PERFBENCH_WORKLOADS_H_
#define AVT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace avt::perfbench {

enum class StreamKind {
  kChurn,   // ChungLuPowerLaw G_0 + the paper's churn protocol
  kWindow,  // GenPowerLawActivityEvents + TemporalWindowSource
};

struct WorkloadSpec {
  std::string name;
  StreamKind kind = StreamKind::kChurn;
  VertexId n = 0;

  // kChurn: Chung-Lu power law, then `transactions` churn steps.
  double avg_degree = 6.0;
  double alpha = 2.2;
  uint32_t max_degree = 0;
  size_t transactions = 0;
  uint32_t churn_min = 100;
  uint32_t churn_max = 250;

  // kWindow: `events` power-law activity events over `days`, split into
  // `windows` periods with a `window_days` sliding window.
  uint64_t events = 0;
  uint32_t days = 365;
  double recurrence = 0.6;
  size_t windows = 0;
  uint32_t window_days = 7;

  // Tracker and engine configuration.
  uint32_t k = 3;
  uint32_t l = 10;
  uint32_t threads = 1;
  bool durable = false;
  size_t checkpoint_every = 0;
  size_t audit_every = 0;
  uint32_t audit_sample = 16;
};

/// The workload named `name` at full size, or at the smoke-test size
/// when `tiny` is set (same shape, a few thousand vertices).
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

/// Generates the workload's stream from `seed` and writes it to `path`
/// (via a temporary file renamed into place, so a killed generator
/// never leaves a truncated log behind).
Status GenerateEdgeLog(const WorkloadSpec& spec, uint64_t seed,
                       const std::string& path);

}  // namespace avt::perfbench

#endif  // AVT_PERFBENCH_WORKLOADS_H_
