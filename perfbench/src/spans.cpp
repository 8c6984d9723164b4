#include "spans.hpp"

#include <fstream>

namespace perfbench {

namespace telemetry = apollo::telemetry;

std::size_t SpanRecorder::open(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = telemetry::now_ns();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_ns = telemetry::now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::keep_events(const std::vector<telemetry::TraceEvent>& events,
                               std::size_t cap) {
  for (const auto& event : events) {
    if (events_.size() < cap) {
      events_.push_back(event);
    } else {
      ++events_not_kept_;
    }
  }
}

bool SpanRecorder::write(const std::string& path) const {
  // Benchmark spans go on their own track (tid 0): arg0 = span id, arg1 =
  // parent span index + 1 (0 at top level).
  std::vector<telemetry::TraceEvent> all;
  all.reserve(spans_.size() + events_.size());
  for (const Span& span : spans_) {
    telemetry::TraceEvent event;
    event.ts_ns = span.start_ns;
    event.dur_ns = span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 1;
    event.name = span.name;
    event.arg0 = span.id;
    event.arg1 = static_cast<std::uint64_t>(span.parent + 1);
    event.kind = telemetry::EventKind::Phase;
    event.tid = 0;
    all.push_back(event);
  }
  all.insert(all.end(), events_.begin(), events_.end());
  std::ofstream out(path);
  if (!out) return false;
  telemetry::write_chrome_trace(
      out, all, {{"program_events_not_kept", std::to_string(events_not_kept_)}});
  return static_cast<bool>(out);
}

}  // namespace perfbench
