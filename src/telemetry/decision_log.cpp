#include "telemetry/decision_log.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "telemetry/json.hpp"

namespace apollo::telemetry {

namespace fs = std::filesystem;

namespace {

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The keys of a decision line, in writer order. A parsed line sets one bit
/// per key it carried; the masks below say which sets are complete.
enum Field : unsigned {
  kType, kTs, kKernel, kBucket, kGen, kPolicy, kChunk, kSeconds,
  kLabel, kExplored, kFeatures,
  kPredictedSeconds, kTreePath,
  kHwInstructions, kHwCycles, kHwCacheMisses, kHwBranchMisses, kHwStalledCycles, kHwScale,
  kFieldCount
};
constexpr std::string_view kFieldNames[kFieldCount] = {
    "type", "ts_ns", "kernel", "bucket", "gen", "policy", "chunk", "seconds",
    "label", "explored", "features",
    "predicted_seconds", "tree_path",
    "hw_instructions", "hw_cycles", "hw_cache_misses", "hw_branch_misses", "hw_stalled_cycles",
    "hw_scale"};

constexpr unsigned field_range(Field first, Field last) {
  return ((2u << last) - 1) & ~((1u << first) - 1);
}
constexpr unsigned kCommonFields = field_range(kType, kSeconds);
constexpr unsigned kDecisionFields = field_range(kLabel, kFeatures);
constexpr unsigned kSampledFields = field_range(kPredictedSeconds, kTreePath);
constexpr unsigned kHwFields = field_range(kHwInstructions, kHwScale);

/// A cursor over one line: each read consumes one well-formed JSON token or
/// fails. No whitespace is accepted anywhere; to_json_line writes none.
class Reader {
public:
  explicit Reader(const std::string& line) : line_(line) {}

  bool eat(char c) {
    if (pos_ >= line_.size() || line_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  [[nodiscard]] bool at_end() const { return pos_ == line_.size(); }

  bool string(std::string& out) {
    auto text = json_unescape(line_, pos_);
    if (!text) return false;
    out = std::move(*text);
    return true;
  }
  bool boolean(bool& out) {
    out = line_.compare(pos_, 4, "true") == 0;
    if (!out && line_.compare(pos_, 5, "false") != 0) return false;
    pos_ += out ? 4 : 5;
    return true;
  }
  bool number(double& out) {
    if (at_end() || std::isspace(static_cast<unsigned char>(line_[pos_]))) return false;
    return advance(std::strtod(start(), &end_), out);
  }
  /// Counters parse on the integer path: a 64-bit cycle count above 2^53
  /// must not round through a double.
  bool number(std::uint64_t& out) {
    if (!digit_at(pos_)) return false;
    return advance(std::strtoull(start(), &end_, 10), out);
  }
  bool number(std::int64_t& out) {
    if (!digit_at(pos_) && !(line_[pos_] == '-' && digit_at(pos_ + 1))) return false;
    return advance(std::strtoll(start(), &end_, 10), out);
  }
  /// `[item,item,...]`; `item` reads one element.
  template <typename Item>
  bool list(Item item) {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!item()) return false;
    } while (eat(','));
    return eat(']');
  }

private:
  [[nodiscard]] const char* start() const { return line_.c_str() + pos_; }
  [[nodiscard]] bool digit_at(std::size_t at) const {
    return at < line_.size() && std::isdigit(static_cast<unsigned char>(line_[at]));
  }
  template <typename Parsed, typename T>
  bool advance(Parsed parsed, T& out) {
    if (end_ == start()) return false;
    out = static_cast<T>(parsed);
    pos_ = static_cast<std::size_t>(end_ - line_.c_str());
    return true;
  }

  const std::string& line_;
  std::size_t pos_ = 0;
  char* end_ = nullptr;
};

bool read_field(Reader& in, Field field, DecisionRecord& r) {
  switch (field) {
    case kType: {
      std::string type;
      if (!in.string(type) || (type != "decision" && type != "probe")) return false;
      r.kind = type == "decision" ? DecisionRecord::Kind::Decision : DecisionRecord::Kind::Probe;
      return true;
    }
    case kTs: return in.number(r.ts_ns);
    case kKernel: return in.string(r.kernel);
    case kBucket: return in.number(r.bucket);
    case kGen: return in.number(r.model_version);
    case kPolicy: return in.string(r.policy);
    case kChunk: return in.number(r.chunk);
    case kSeconds: return in.number(r.seconds);
    case kLabel: return in.string(r.label);
    case kExplored: return in.boolean(r.explored);
    case kFeatures:
      return in.list([&] {
        std::string name;
        double value = 0.0;
        if (!in.eat('[') || !in.string(name) || !in.eat(',') || !in.number(value) ||
            !in.eat(']')) {
          return false;
        }
        r.features.emplace_back(std::move(name), value);
        return true;
      });
    case kPredictedSeconds: return in.number(r.predicted_seconds);
    case kTreePath:
      return in.list([&] {
        std::int64_t node = 0;
        if (!in.number(node)) return false;
        r.tree_path.push_back(static_cast<int>(node));
        return true;
      });
    case kHwInstructions: return in.number(r.hw_instructions);
    case kHwCycles: return in.number(r.hw_cycles);
    case kHwCacheMisses: return in.number(r.hw_cache_misses);
    case kHwBranchMisses: return in.number(r.hw_branch_misses);
    case kHwStalledCycles: return in.number(r.hw_stalled_cycles);
    case kHwScale: return in.number(r.hw_scale);
    case kFieldCount: break;
  }
  return false;
}

}  // namespace

std::string to_json_line(const DecisionRecord& record) {
  const bool decision = record.kind == DecisionRecord::Kind::Decision;
  std::ostringstream out;
  out << "{\"type\":\"" << (decision ? "decision" : "probe") << "\",\"ts_ns\":" << record.ts_ns
      << ",\"kernel\":\"" << json_escape(record.kernel) << "\",\"bucket\":" << record.bucket
      << ",\"gen\":" << record.model_version << ",\"policy\":\"" << json_escape(record.policy)
      << "\",\"chunk\":" << record.chunk << ",\"seconds\":" << json_number(record.seconds);
  if (decision) {
    out << ",\"label\":\"" << json_escape(record.label) << "\",\"explored\":"
        << (record.explored ? "true" : "false") << ",\"features\":[";
    const char* sep = "";
    for (const auto& [name, value] : record.features) {
      out << sep << "[\"" << json_escape(name) << "\"," << json_number(value) << "]";
      sep = ",";
    }
    out << "]";
    if (!record.tree_path.empty()) {
      out << ",\"predicted_seconds\":" << json_number(record.predicted_seconds)
          << ",\"tree_path\":[";
      sep = "";
      for (const int node : record.tree_path) {
        out << sep << node;
        sep = ",";
      }
      out << "]";
    }
  }
  if (record.has_hw) {
    out << ",\"hw_instructions\":" << record.hw_instructions << ",\"hw_cycles\":"
        << record.hw_cycles << ",\"hw_cache_misses\":" << record.hw_cache_misses
        << ",\"hw_branch_misses\":" << record.hw_branch_misses << ",\"hw_stalled_cycles\":"
        << record.hw_stalled_cycles << ",\"hw_scale\":" << json_number(record.hw_scale);
  }
  out << "}";
  return out.str();
}

std::optional<DecisionRecord> parse_decision_line(const std::string& line) {
  Reader in(line);
  DecisionRecord record;
  unsigned seen = 0;
  if (!in.eat('{')) return std::nullopt;
  do {
    std::string key;
    if (!in.string(key) || !in.eat(':')) return std::nullopt;
    const auto at = std::find(std::begin(kFieldNames), std::end(kFieldNames), key);
    const auto field = static_cast<unsigned>(at - std::begin(kFieldNames));
    if (field == kFieldCount || (seen & (1u << field)) != 0) return std::nullopt;
    seen |= 1u << field;
    if (!read_field(in, static_cast<Field>(field), record)) return std::nullopt;
  } while (in.eat(','));
  if (!in.eat('}') || !in.at_end()) return std::nullopt;

  // Complete means: every common field, the decision fields exactly when the
  // line is a decision, and each optional group (sampled, hw) all or nothing.
  const bool decision = record.kind == DecisionRecord::Kind::Decision;
  const unsigned required = kCommonFields | (decision ? kDecisionFields : 0);
  const unsigned sampled = seen & kSampledFields;
  const unsigned hw = seen & kHwFields;
  if ((seen & ~(kSampledFields | kHwFields)) != required ||
      (sampled != 0 && (sampled != kSampledFields || !decision)) ||
      (hw != 0 && hw != kHwFields)) {
    return std::nullopt;
  }
  record.has_hw = hw != 0;
  return record;
}

std::optional<std::vector<std::string>> read_complete_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;  // partial trailing line: writer mid-append
    if (nl > start) lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// --- the log -----------------------------------------------------------------

DecisionLog& DecisionLog::instance() {
  static DecisionLog log;
  return log;
}

void DecisionLog::record(DecisionRecord record, bool sampled) {
  std::string line;
  if (sink_enabled()) {
    line = to_json_line(record);
    line += '\n';
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!line.empty() && file_ != nullptr) {
    buffer_ += line;
    appended_.fetch_add(1, std::memory_order_relaxed);
    if (segment_written_ + buffer_.size() >= sink_config_.segment_bytes) {
      rotate_locked();
    } else if (buffer_.size() >= sink_config_.flush_bytes) {
      flush_locked();
    }
  }
  if (sampled) {
    auto& recent = recent_[record.kernel];
    recent.push_back(std::move(record));
    if (recent.size() > kRecentPerKernel) recent.pop_front();
    ++recorded_;
  }
}

std::uint64_t DecisionLog::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::vector<DecisionRecord> DecisionLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DecisionRecord> out;
  for (const auto& [kernel, recent] : recent_) {
    (void)kernel;
    out.insert(out.end(), recent.begin(), recent.end());
  }
  return out;
}

void DecisionLog::write_json(std::ostream& out) const {
  for (const DecisionRecord& record : snapshot()) out << to_json_line(record) << '\n';
}

void DecisionLog::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("DecisionLog: cannot open " + tmp);
    write_json(out);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("DecisionLog: cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::pair<std::uint64_t, std::string>> DecisionLog::existing_segments_locked()
    const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  if (stem_.empty()) return found;
  const fs::path stem(stem_);
  const fs::path dir = stem.has_parent_path() ? stem.parent_path() : fs::path(".");
  const std::string prefix = stem.filename().string() + ".";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != prefix.size() + 12 || name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - 6, 6, ".jsonl") != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size(), 6);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    found.emplace_back(std::strtoull(digits.c_str(), nullptr, 10), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

void DecisionLog::open_segment_locked() {
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, ".%06llu.jsonl",
                static_cast<unsigned long long>(segment_index_));
  const std::string path = stem_ + suffix;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    fs::create_directories(parent, ec);
  }
  file_ = std::fopen(path.c_str(), "ab");
  segment_written_ = 0;
  if (file_ != nullptr) {
    // "ab" leaves the reported position at 0 until the first write; seek so
    // an append to an existing segment counts its current size.
    std::fseek(file_, 0, SEEK_END);
    const long at = std::ftell(file_);
    if (at > 0) segment_written_ = static_cast<std::size_t>(at);
  }
}

void DecisionLog::configure_sink(DecisionSinkConfig config) {
  const std::lock_guard<std::mutex> lock(mutex_);
  close_locked();
  sink_config_ = std::move(config);
  stem_ = sink_config_.base_path;
  if (stem_.size() > 6 && stem_.compare(stem_.size() - 6, 6, ".jsonl") == 0) {
    stem_.resize(stem_.size() - 6);
  }
  if (stem_.empty()) return;
  const auto existing = existing_segments_locked();
  segment_index_ = existing.empty() ? 1 : existing.back().first + 1;
  open_segment_locked();
  sink_enabled_.store(file_ != nullptr, std::memory_order_relaxed);
}

void DecisionLog::flush_locked() {
  if (buffer_.empty() || file_ == nullptr) return;
  std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  std::fflush(file_);
  segment_written_ += buffer_.size();
  buffer_.clear();
}

void DecisionLog::close_locked() {
  flush_locked();
  buffer_.clear();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  sink_enabled_.store(false, std::memory_order_relaxed);
}

void DecisionLog::rotate_locked() {
  flush_locked();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  ++segment_index_;
  open_segment_locked();
  rotated_.fetch_add(1, std::memory_order_relaxed);
  // Trim oldest segments past the cap.
  auto existing = existing_segments_locked();
  while (existing.size() > sink_config_.max_segments) {
    std::error_code ec;
    fs::remove(existing.front().second, ec);
    existing.erase(existing.begin());
  }
}

void DecisionLog::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
}

void DecisionLog::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  close_locked();
}

std::vector<std::string> DecisionLog::segment_paths() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> paths;
  for (const auto& [index, path] : existing_segments_locked()) {
    (void)index;
    paths.push_back(path);
  }
  return paths;
}

void DecisionLog::reset_for_testing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  close_locked();
  recent_.clear();
  recorded_ = 0;
  sink_config_ = DecisionSinkConfig{};
  stem_.clear();
  segment_index_ = 0;
  segment_written_ = 0;
  appended_.store(0, std::memory_order_relaxed);
  rotated_.store(0, std::memory_order_relaxed);
}

}  // namespace apollo::telemetry
