#pragma once

// In-memory span recorder for the traced run. The benchmark records its own
// spans around each set-up phase, each solve and each step (a step span's id
// is its step number); the program's telemetry events drained during the run
// are kept beside them, up to a cap. Everything is written as one Chrome
// trace-event file when the run ends.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

class SpanRecorder {
public:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::uint64_t id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  /// Open a span nested in the innermost open one; returns its index.
  std::size_t open(const char* name, std::uint64_t id);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Keep program events for the written trace (beyond `cap` they are only
  /// counted).
  void keep_events(const std::vector<apollo::telemetry::TraceEvent>& events, std::size_t cap);
  [[nodiscard]] std::uint64_t events_not_kept() const noexcept { return events_not_kept_; }

  /// Write the benchmark spans and the kept program events as Chrome
  /// trace-event JSON. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<apollo::telemetry::TraceEvent> events_;
  std::uint64_t events_not_kept_ = 0;
};

/// RAII span on an optional recorder: a null recorder records nothing, so
/// untraced runs pay one branch.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t id = 0)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->open(name, id) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench
