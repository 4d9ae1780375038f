// In-memory span recording for the traced run, plus forwarding
// DeltaSource / AvtTracker wrappers that open a span around each call
// into the graph and core layers.
//
// Spans nest on one thread: a span begun while another is open becomes
// its child and inherits its transaction id, so the benchmark loop's
// `engine.step` span is the parent of the `graph.next_delta` and
// `core.process_delta` spans the engine triggers inside Step. A span's
// self time is its duration minus the time its children cover.
// Nothing is written until the run ends (WriteJsonLines).
#ifndef AVT_PERFBENCH_TRACING_H_
#define AVT_PERFBENCH_TRACING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/avt.h"
#include "graph/delta_source.h"
#include "util/status.h"
#include "util/timer.h"

namespace avt::perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  uint64_t txn = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t child_ns = 0;  // time covered by direct children

  double Millis() const { return (end_ns - start_ns) * 1e-6; }
  double SelfMillis() const { return (end_ns - start_ns - child_ns) * 1e-6; }
};

class SpanRecorder {
 public:
  /// Opens a span. `txn` applies to root spans; nested spans take their
  /// parent's transaction id. Returns the span's index for End.
  size_t Begin(const char* name, uint64_t txn = 0);
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations and of self times per span name.
  std::map<std::string, double> TotalMillisByName() const;
  std::map<std::string, double> SelfMillisByName() const;

  /// One JSON object per span: {"id","parent","txn","name","start_us",
  /// "dur_us","self_us"}.
  Status WriteJsonLines(const std::string& path) const;

 private:
  Timer origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Records one span for its scope; a null recorder records nothing, so
/// plain and traced passes share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t txn = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, txn) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

/// Forwards every call to `inner`, recording a `graph.next_delta` span
/// around each pull.
class TracingSource : public DeltaSource {
 public:
  TracingSource(std::unique_ptr<DeltaSource> inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  const Graph& InitialGraph() const override {
    return inner_->InitialGraph();
  }
  StatusOr<bool> NextDelta(EdgeDelta* delta) override {
    ScopedSpan span(recorder_, "graph.next_delta");
    return inner_->NextDelta(delta);
  }
  Stats SourceStats() const override { return inner_->SourceStats(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<DeltaSource> inner_;
  SpanRecorder* recorder_;
};

/// Forwards every call to `inner`, recording `core.process_first` and
/// `core.process_delta` spans and counting the deltas processed (which
/// is how the benchmark sees how many transactions Recover replayed).
/// The name and batch size pass through, so the durability fingerprint
/// is the wrapped tracker's.
class TracingTracker : public AvtTracker {
 public:
  TracingTracker(std::unique_ptr<AvtTracker> inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  AvtSnapshotResult ProcessFirst(const Graph& g0) override {
    ScopedSpan span(recorder_, "core.process_first");
    return inner_->ProcessFirst(g0);
  }
  AvtSnapshotResult ProcessDelta(const EdgeDelta& delta) override {
    ++deltas_processed_;
    ScopedSpan span(recorder_, "core.process_delta");
    return inner_->ProcessDelta(delta);
  }
  void EnsureVertices(VertexId count) override {
    inner_->EnsureVertices(count);
  }
  bool SaveCheckpointState(std::string* out) const override {
    return inner_->SaveCheckpointState(out);
  }
  Status RestoreCheckpointState(const std::string& blob) override {
    return inner_->RestoreCheckpointState(blob);
  }
  size_t PreferredBatchSize() const override {
    return inner_->PreferredBatchSize();
  }
  TrackerAuditView AuditView() const override { return inner_->AuditView(); }
  bool InjectAuditFaultForDrill() override {
    return inner_->InjectAuditFaultForDrill();
  }
  std::string name() const override { return inner_->name(); }

  uint64_t deltas_processed() const { return deltas_processed_; }

 private:
  std::unique_ptr<AvtTracker> inner_;
  SpanRecorder* recorder_;
  uint64_t deltas_processed_ = 0;
};

}  // namespace avt::perfbench

#endif  // AVT_PERFBENCH_TRACING_H_
