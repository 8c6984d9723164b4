#pragma once

// The decision log: one record of "which variant, given these features" per
// tuned launch, and one JSON-lines format for it.
//
// Two destinations share the record:
//   - the recent ring keeps the last kRecentPerKernel *sampled* decisions per
//     kernel (APOLLO_INTROSPECT_STRIDE) and exports them as
//     apollo_decisions.jsonl for tools/apollo_top. Sampled records also carry
//     the decision-tree path and the modeled cost of the choice;
//   - the optional sink (APOLLO_AUDIT_FILE) appends *every* tuned decision
//     and every ground-truth probe to rotating segment files
//     (<base>.000001.jsonl, ...), the state tools/apollo_replay needs to
//     re-evaluate any candidate model offline and tools/apollo_prof needs to
//     correlate counter signatures with mispredictions.
//
// Durability is bounded: segments rotate past 4 MiB and the oldest are
// deleted beyond 8 (DecisionSinkConfig). Appends buffer in memory and flush
// on a byte threshold, the collector cadence, and shutdown; readers tailing
// a live segment must tolerate one partial trailing line
// (read_complete_lines).
//
// Thread-safety: every member is internally synchronized (one mutex; lines
// are formatted outside it, and file I/O happens only on flush and rotation).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace apollo::telemetry {

/// One logged event: a tuned-launch decision or a ground-truth probe.
struct DecisionRecord {
  enum class Kind : std::uint8_t { Decision, Probe };
  Kind kind = Kind::Decision;
  std::uint64_t ts_ns = 0;          ///< trace-epoch timestamp
  std::string kernel;               ///< loop_id
  std::uint64_t bucket = 0;         ///< coarse feature bucket (online::feature_bucket)
  std::uint64_t model_version = 0;  ///< generation that decided (0 = offline model)
  std::string label;                ///< policy model's chosen label ("" = no model)
  std::string policy;               ///< executed (decision) / probed (probe) policy name
  std::int64_t chunk = 0;
  bool explored = false;            ///< executed variant was an exploration substitute
  double seconds = 0.0;             ///< measured (or model-charged) runtime
  /// Feature vector in the policy model's feature order (decisions only).
  std::vector<std::pair<std::string, double>> features;
  /// Sampled decisions only: the tree path (node indices, root..leaf) and the
  /// modeled cost of the choice. A non-empty path gates serialization.
  std::vector<int> tree_path;
  double predicted_seconds = 0.0;
  /// Optional hardware-counter annotation (telemetry/hwprof): scaled counter
  /// deltas for the launch's profiled window. has_hw gates serialization.
  bool has_hw = false;
  std::uint64_t hw_instructions = 0;
  std::uint64_t hw_cycles = 0;
  std::uint64_t hw_cache_misses = 0;
  std::uint64_t hw_branch_misses = 0;
  std::uint64_t hw_stalled_cycles = 0;
  double hw_scale = 1.0;            ///< multiplexing correction applied to the deltas
};

/// Serialize one record as a single JSON line (no trailing newline).
[[nodiscard]] std::string to_json_line(const DecisionRecord& record);
/// Parse a line written by to_json_line, including lines written before the
/// tree-path and hw fields existed. The whole line must be one complete
/// object with every field its kind requires: truncated, spliced or
/// unknown-field lines are rejected (nullopt).
[[nodiscard]] std::optional<DecisionRecord> parse_decision_line(const std::string& line);

/// All '\n'-terminated lines of a file. A final unterminated line — a live
/// writer mid-append — is skipped rather than misparsed; empty lines are
/// dropped. Returns nullopt when the file cannot be opened.
[[nodiscard]] std::optional<std::vector<std::string>> read_complete_lines(
    const std::string& path);

/// Sink rotation; the defaults are the production values.
struct DecisionSinkConfig {
  std::string base_path;                     ///< "" disables; ".jsonl" suffix optional
  std::size_t segment_bytes = 4u << 20;      ///< rotate a segment past this size
  std::size_t max_segments = 8;              ///< oldest segments deleted beyond this
  std::size_t flush_bytes = 64u << 10;       ///< buffered bytes that force a flush
};

class DecisionLog {
public:
  static constexpr std::size_t kRecentPerKernel = 8;

  static DecisionLog& instance();

  /// A non-empty base path opens the sink at the next segment (numbering
  /// continues after any existing segments); an empty one flushes, closes,
  /// and disables it.
  void configure_sink(DecisionSinkConfig config);

  /// Cheap hot-path check (one relaxed load).
  [[nodiscard]] bool sink_enabled() const noexcept {
    return sink_enabled_.load(std::memory_order_relaxed);
  }

  /// Log one record: sampled records enter the recent ring; when the sink is
  /// open, every record is appended to it.
  void record(DecisionRecord record, bool sampled);

  /// Sampled decisions ever recorded (monotonic, survives roll-off).
  [[nodiscard]] std::uint64_t recorded() const;
  /// The recent ring, grouped by kernel, oldest first within a kernel.
  [[nodiscard]] std::vector<DecisionRecord> snapshot() const;
  /// The recent ring as JSON lines.
  void write_json(std::ostream& out) const;
  /// Atomic export of the recent ring (temp + rename). Throws
  /// std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  /// Write buffered sink lines to the current segment (collector cadence).
  void flush();
  /// Flush and close the sink (shutdown; configure_sink reopens).
  void close();
  /// Existing segment paths for the configured base, oldest first.
  [[nodiscard]] std::vector<std::string> segment_paths() const;
  [[nodiscard]] std::uint64_t records_appended() const noexcept {
    return appended_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t segments_rotated() const noexcept {
    return rotated_.load(std::memory_order_relaxed);
  }

  /// Empty the ring, close the sink, and zero the counters (tests). Segment
  /// files are left on disk.
  void reset_for_testing();

private:
  DecisionLog() = default;

  void open_segment_locked();
  void flush_locked();
  void close_locked();
  void rotate_locked();
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>> existing_segments_locked()
      const;

  mutable std::mutex mutex_;
  // Recent ring.
  std::map<std::string, std::deque<DecisionRecord>> recent_;
  std::uint64_t recorded_ = 0;
  // Sink.
  DecisionSinkConfig sink_config_;
  std::atomic<bool> sink_enabled_{false};
  std::string stem_;                   ///< base path without the .jsonl suffix
  std::string buffer_;
  std::uint64_t segment_index_ = 0;
  std::size_t segment_written_ = 0;    ///< bytes in the current segment
  std::FILE* file_ = nullptr;          ///< current segment (append-only)
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> rotated_{0};
};

}  // namespace apollo::telemetry
