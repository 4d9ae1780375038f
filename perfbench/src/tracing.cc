#include "tracing.h"

#include <cinttypes>
#include <cstdio>

namespace avt::perfbench {

size_t SpanRecorder::Begin(const char* name, uint64_t txn) {
  Span span;
  span.id = spans_.size() + 1;
  span.name = name;
  span.txn = txn;
  if (!open_.empty()) {
    const Span& parent = spans_[open_.back()];
    span.parent = parent.id;
    span.txn = parent.txn;
  }
  span.start_ns = origin_.ElapsedNanos();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  AVT_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
  Span& span = spans_[index];
  span.end_ns = origin_.ElapsedNanos();
  if (span.parent != 0) {
    spans_[span.parent - 1].child_ns += span.end_ns - span.start_ns;
  }
}

std::map<std::string, double> SpanRecorder::TotalMillisByName() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) totals[span.name] += span.Millis();
  return totals;
}

std::map<std::string, double> SpanRecorder::SelfMillisByName() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) totals[span.name] += span.SelfMillis();
  return totals;
}

Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write " + path);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"txn\": %" PRIu64
                 ", \"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f, "
                 "\"self_us\": %.3f}\n",
                 span.id, span.parent, span.txn, span.name,
                 span.start_ns * 1e-3, (span.end_ns - span.start_ns) * 1e-3,
                 (span.end_ns - span.start_ns - span.child_ns) * 1e-3);
  }
  if (std::fclose(out) != 0) return Status::IoError("cannot close " + path);
  return Status::Ok();
}

}  // namespace avt::perfbench
