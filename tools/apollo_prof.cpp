// apollo-prof: offline per-kernel/per-variant hardware profile report.
//
// Reads the Prometheus metrics exposition a profiled run exported
// (APOLLO_HW_STRIDE>0 with APOLLO_METRICS_FILE set) and renders the
// apollo_hw_* series as a profile table: windows, cycles, IPC, cache- and
// branch-miss rates, frontend-stall fraction, cycles per element — sorted by
// where the cycles actually went. With --audit pointing at decision log
// segments (APOLLO_AUDIT_FILE), it additionally correlates mispredicted
// decisions with their counter signatures: the mean IPC/miss-rate fingerprint
// of launches where the model picked the best-evidence variant vs where it
// did not.
//
// Usage:
//   apollo_prof [--metrics FILE] [--audit FILE | SEGMENT]... [--top N] [--json]
//
// --metrics defaults to apollo_metrics.prom; audit segments are bare
// operands or repeated --audit flags, so a glob over rotated segments works
// (apollo_prof audit.*.jsonl). --top 0 prints every row. The report math
// lives in telemetry/hwprof so tests drive the identical chain without
// spawning the binary.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/decision_log.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/hwprof.hpp"

namespace hwprof = apollo::telemetry::hwprof;

int main(int argc, char** argv) {
  std::string metrics_path = "apollo_metrics.prom";
  std::vector<std::string> audit_paths;
  std::size_t top = 10;
  bool json = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--version") {
      std::printf("%s\n", apollo::build_info_string().c_str());
      return 0;
    } else if (arg == "--metrics") {
      if (const char* v = next()) metrics_path = v;
    } else if (arg == "--audit") {
      if (const char* v = next()) audit_paths.emplace_back(v);
    } else if (arg == "--top") {
      if (const char* v = next()) top = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] != '-') {
      // Bare operands are audit segments (apollo_replay's convention), so a
      // shell glob over rotated segments works: apollo_prof audit.*.jsonl
      audit_paths.push_back(arg);
    } else {
      std::fprintf(stderr,
                   "usage: apollo_prof [--metrics FILE] [--audit FILE | SEGMENT]... [--top N] "
                   "[--json] [--version]\n");
      return 2;
    }
  }

  std::ifstream in(metrics_path);
  if (!in) {
    std::fprintf(stderr,
                 "apollo_prof: cannot read %s (did the run export with APOLLO_METRICS_FILE "
                 "and APOLLO_HW_STRIDE set?)\n",
                 metrics_path.c_str());
    return 1;
  }
  std::ostringstream metrics;
  metrics << in.rdbuf();

  std::vector<apollo::telemetry::DecisionRecord> records;
  for (const std::string& path : audit_paths) {
    const auto lines = apollo::telemetry::read_complete_lines(path);
    if (!lines) {
      std::fprintf(stderr, "apollo_prof: cannot read audit segment %s\n", path.c_str());
      return 1;
    }
    for (const std::string& line : *lines) {
      if (auto record = apollo::telemetry::parse_decision_line(line)) {
        records.push_back(std::move(*record));
      }
    }
  }

  const hwprof::ProfileReport report = hwprof::build_report(metrics.str(), records);
  const std::string rendered =
      json ? hwprof::render_report_json(report, top) : hwprof::render_report_text(report, top);
  std::fputs(rendered.c_str(), stdout);
  if (json) std::fputc('\n', stdout);
  return 0;
}
