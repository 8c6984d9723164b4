// Tests for the hardware-counter profiling layer (telemetry/hwprof): event
// naming, the hardened APOLLO_HW_* env parsing (garbage warns and keeps the
// documented default), SoftwareProvider determinism (fixed synthetic-counter
// ratios every machine reproduces), the perf provider where the PMU is
// exposed (skipped otherwise — containers with perf_event_paranoid >= 2 or no
// PMU must not flake), decision-record hw annotations, report JSON escaping,
// misprediction correlation, and the full chain end-to-end: counter window ->
// apollo_hw_* series -> decision-log annotation -> apollo_prof report, under
// each provider.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "raja/forall.hpp"
#include "telemetry/decision_log.hpp"
#include "telemetry/hwprof.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace telemetry = apollo::telemetry;
namespace hwprof = apollo::telemetry::hwprof;
namespace fs = std::filesystem;

using hwprof::Event;

namespace {

constexpr std::uint32_t bit(Event event) { return 1u << static_cast<unsigned>(event); }

}  // namespace

// ---------------------------------------------------------------------------
// Event naming

TEST(HwprofEvents, NamesRoundTrip) {
  const Event all[] = {Event::Instructions, Event::Cycles, Event::CacheMisses,
                       Event::BranchMisses, Event::StalledCycles};
  for (const Event event : all) {
    const auto back = hwprof::event_from_name(hwprof::event_name(event));
    ASSERT_TRUE(back.has_value()) << hwprof::event_name(event);
    EXPECT_EQ(*back, event);
  }
  EXPECT_FALSE(hwprof::event_from_name("page-faults").has_value());
  EXPECT_FALSE(hwprof::event_from_name("").has_value());
}

// ---------------------------------------------------------------------------
// Env parsing (satellite: hardened APOLLO_HW_* knobs)

TEST(HwprofEnv, EventMaskParsesCommaListWithSpaces) {
  EXPECT_EQ(hwprof::parse_event_mask("instructions,cycles", 0u),
            bit(Event::Instructions) | bit(Event::Cycles));
  EXPECT_EQ(hwprof::parse_event_mask(" cache-misses , branch-misses ", 0u),
            bit(Event::CacheMisses) | bit(Event::BranchMisses));
  EXPECT_EQ(hwprof::parse_event_mask("stalled-cycles", 0u), bit(Event::StalledCycles));
}

TEST(HwprofEnv, EventMaskGarbageWarnsAndKeepsFallback) {
  // Unknown token, or a list that nets zero events: warn-and-default.
  EXPECT_EQ(hwprof::parse_event_mask("instructions,flops", hwprof::kAllEventsMask),
            hwprof::kAllEventsMask);
  EXPECT_EQ(hwprof::parse_event_mask(", ,", hwprof::kAllEventsMask), hwprof::kAllEventsMask);
  EXPECT_EQ(hwprof::parse_event_mask("", 0x3u), 0x3u);
}

TEST(HwprofEnv, ProviderParsesKnownValuesAndDefaultsGarbage) {
  EXPECT_EQ(hwprof::parse_provider("auto", hwprof::ProviderKind::Software),
            hwprof::ProviderKind::Auto);
  EXPECT_EQ(hwprof::parse_provider("perf", hwprof::ProviderKind::Auto),
            hwprof::ProviderKind::Perf);
  EXPECT_EQ(hwprof::parse_provider("software", hwprof::ProviderKind::Auto),
            hwprof::ProviderKind::Software);
  EXPECT_EQ(hwprof::parse_provider("gpu", hwprof::ProviderKind::Auto),
            hwprof::ProviderKind::Auto);
}

TEST(HwprofEnv, FromEnvGarbageValuesWarnAndKeepDefaults) {
  ::setenv("APOLLO_HW_STRIDE", "sixty-four", 1);
  ::setenv("APOLLO_HW_EVENTS", "teraflops", 1);
  ::setenv("APOLLO_HW_PROVIDER", "quantum", 1);
  const hwprof::HwConfig cfg = hwprof::HwConfig::from_env();
  EXPECT_EQ(cfg.stride, 0u) << "garbage stride must keep the off default";
  EXPECT_EQ(cfg.event_mask, hwprof::kAllEventsMask);
  EXPECT_EQ(cfg.provider, hwprof::ProviderKind::Auto);
  ::unsetenv("APOLLO_HW_STRIDE");
  ::unsetenv("APOLLO_HW_EVENTS");
  ::unsetenv("APOLLO_HW_PROVIDER");
}

TEST(HwprofEnv, FromEnvReadsValidValues) {
  ::setenv("APOLLO_HW_STRIDE", "64", 1);
  ::setenv("APOLLO_HW_EVENTS", "cycles,instructions", 1);
  ::setenv("APOLLO_HW_PROVIDER", "software", 1);
  const hwprof::HwConfig cfg = hwprof::HwConfig::from_env();
  EXPECT_EQ(cfg.stride, 64u);
  EXPECT_EQ(cfg.event_mask, bit(Event::Instructions) | bit(Event::Cycles));
  EXPECT_EQ(cfg.provider, hwprof::ProviderKind::Software);
  ::unsetenv("APOLLO_HW_STRIDE");
  ::unsetenv("APOLLO_HW_EVENTS");
  ::unsetenv("APOLLO_HW_PROVIDER");
}

// ---------------------------------------------------------------------------
// Providers

TEST(SoftwareProvider, DeterministicRatiosFromCpuTime) {
  const auto provider =
      hwprof::make_provider(hwprof::ProviderKind::Software, hwprof::kAllEventsMask);
  ASSERT_NE(provider, nullptr);
  EXPECT_STREQ(provider->name(), "software");
  EXPECT_EQ(provider->valid_mask(), hwprof::kAllEventsMask);

  ASSERT_TRUE(provider->begin_window());
  // Burn a little CPU so the window is comfortably nonzero.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  hwprof::HwSample sample;
  ASSERT_TRUE(provider->end_window(sample));

  EXPECT_EQ(sample.valid_mask, hwprof::kAllEventsMask);
  EXPECT_DOUBLE_EQ(sample.scale, 1.0);
  const std::uint64_t cycles = sample.count(Event::Cycles);
  EXPECT_GE(cycles, 1u);
  // The documented synthetic ratios, exactly: instructions == cycles (IPC 1),
  // cache misses cycles/1024, branch misses cycles/4096, stalled cycles/8.
  EXPECT_EQ(sample.count(Event::Instructions), cycles);
  EXPECT_EQ(sample.count(Event::CacheMisses), cycles / 1024);
  EXPECT_EQ(sample.count(Event::BranchMisses), cycles / 4096);
  EXPECT_EQ(sample.count(Event::StalledCycles), cycles / 8);
}

TEST(SoftwareProvider, MasksUnrequestedEventsToZero) {
  const std::uint32_t mask = bit(Event::Instructions) | bit(Event::Cycles);
  const auto provider = hwprof::make_provider(hwprof::ProviderKind::Software, mask);
  ASSERT_NE(provider, nullptr);
  EXPECT_EQ(provider->valid_mask(), mask);
  ASSERT_TRUE(provider->begin_window());
  hwprof::HwSample sample;
  ASSERT_TRUE(provider->end_window(sample));
  EXPECT_EQ(sample.valid_mask, mask);
  EXPECT_FALSE(sample.has(Event::CacheMisses));
  EXPECT_EQ(sample.count(Event::CacheMisses), 0u);
  EXPECT_EQ(sample.count(Event::BranchMisses), 0u);
  EXPECT_EQ(sample.count(Event::StalledCycles), 0u);
}

TEST(PerfProvider, GroupedCountersDeliverScaledDeltas) {
  if (!hwprof::perf_events_available()) {
    GTEST_SKIP() << "perf counters unavailable (perf_event_paranoid or no PMU)";
  }
  const auto provider = hwprof::make_provider(hwprof::ProviderKind::Perf, hwprof::kAllEventsMask);
  ASSERT_NE(provider, nullptr);
  EXPECT_STREQ(provider->name(), "perf");
  ASSERT_NE(provider->valid_mask() & bit(Event::Instructions), 0u);

  ASSERT_TRUE(provider->begin_window());
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  hwprof::HwSample sample;
  ASSERT_TRUE(provider->end_window(sample));
  EXPECT_GT(sample.count(Event::Instructions), 0u) << "a real loop retires instructions";
  EXPECT_GT(sample.scale, 0.0);
}

TEST(PerfProvider, AutoFallsBackToSoftwareWhenPmuUnavailable) {
  const auto provider = hwprof::make_provider(hwprof::ProviderKind::Auto, hwprof::kAllEventsMask);
  ASSERT_NE(provider, nullptr);
  if (hwprof::perf_events_available()) {
    EXPECT_STREQ(provider->name(), "perf");
  } else {
    EXPECT_STREQ(provider->name(), "software");
  }
}

// ---------------------------------------------------------------------------
// Configuration and the stride rotor

TEST(HwprofConfig, OffByDefaultAndConfigureFlipsTheSwitch) {
  hwprof::reset_for_testing();
  EXPECT_FALSE(hwprof::enabled());
  EXPECT_EQ(hwprof::config().stride, 0u);
  EXPECT_EQ(hwprof::active_provider_name(), "off");

  hwprof::HwConfig cfg;
  cfg.stride = hwprof::kDefaultOnStride;
  cfg.provider = hwprof::ProviderKind::Software;
  hwprof::configure(cfg);
  EXPECT_TRUE(hwprof::enabled());
  EXPECT_EQ(hwprof::active_provider_name(), "software");
  // The provider-info gauge is published for scrapers the moment profiling
  // turns on.
  const telemetry::MetricsSnapshot snap = telemetry::MetricsRegistry::instance().snapshot();
  const telemetry::SeriesSnapshot* info =
      snap.find("apollo_hw_provider_info", "provider=\"software\"");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->gauge_value, 1.0);

  hwprof::reset_for_testing();
  EXPECT_FALSE(hwprof::enabled());
}

TEST(HwprofConfig, StrideRotorFiresEveryNth) {
  hwprof::reset_for_testing();
  hwprof::HwConfig cfg;
  cfg.stride = 4;
  cfg.provider = hwprof::ProviderKind::Software;
  hwprof::configure(cfg);
  int due = 0;
  for (int i = 0; i < 16; ++i) {
    if (hwprof::window_due()) ++due;
  }
  EXPECT_EQ(due, 4);
  hwprof::reset_for_testing();
}

// ---------------------------------------------------------------------------
// Audit annotations

TEST(HwprofAudit, AnnotatedRecordRoundTripsThroughJson) {
  telemetry::DecisionRecord record;
  record.kind = telemetry::DecisionRecord::Kind::Decision;
  record.ts_ns = 42;
  record.kernel = "stream \"triad\"";
  record.bucket = 7;
  record.label = "omp";
  record.policy = "omp";
  record.seconds = 0.5;
  record.has_hw = true;
  record.hw_instructions = (std::uint64_t{1} << 53) + 1;  // not double-representable
  record.hw_cycles = 123456789;
  record.hw_cache_misses = 1024;
  record.hw_branch_misses = 64;
  record.hw_stalled_cycles = 8;
  record.hw_scale = 1.25;

  const auto parsed = telemetry::parse_decision_line(telemetry::to_json_line(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_hw);
  EXPECT_EQ(parsed->hw_instructions, record.hw_instructions);
  EXPECT_EQ(parsed->hw_cycles, record.hw_cycles);
  EXPECT_EQ(parsed->hw_cache_misses, record.hw_cache_misses);
  EXPECT_EQ(parsed->hw_branch_misses, record.hw_branch_misses);
  EXPECT_EQ(parsed->hw_stalled_cycles, record.hw_stalled_cycles);
  EXPECT_DOUBLE_EQ(parsed->hw_scale, record.hw_scale);
}

TEST(HwprofAudit, PreHwprofLinesParseWithoutAnnotation) {
  // A line written before the hw fields existed: parses, has_hw false.
  telemetry::DecisionRecord record;
  record.kernel = "k";
  record.policy = "seq";
  record.seconds = 0.001;
  const auto parsed = telemetry::parse_decision_line(telemetry::to_json_line(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->has_hw);
}

TEST(HwprofReport, JsonEscapesControlCharactersInNames) {
  // apollo_prof --json must stay valid JSON for any kernel or variant name:
  // quotes, backslashes and every control character are escaped.
  hwprof::ProfileReport report;
  report.provider = "soft\"ware";
  hwprof::ProfileRow row;
  row.kernel = std::string("a\tb\nc\\d") + '\x01';
  row.variant = "seq\"/c64";
  row.cycles = 10;
  report.rows.push_back(row);
  const std::string json = hwprof::render_report_json(report, 0);
  for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
  EXPECT_NE(json.find(R"("kernel":"a\tb\nc\\d\u0001")"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("variant":"seq\"/c64")"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("provider":"soft\"ware")"), std::string::npos) << json;
}

TEST(HwprofCorrelate, SplitsSignaturesByAuditGroundTruth) {
  // Evidence: for (k, bucket 0) "seq" is 10x faster than "omp". Two annotated
  // decisions — one executed seq (predicted, IPC 2.0), one omp
  // (mispredicted, IPC 0.5).
  std::vector<telemetry::DecisionRecord> records;
  const auto make = [](const char* policy, double seconds, std::uint64_t instructions,
                       std::uint64_t cycles, bool hw) {
    telemetry::DecisionRecord r;
    r.kernel = "k";
    r.bucket = 0;
    r.policy = policy;
    r.seconds = seconds;
    r.has_hw = hw;
    r.hw_instructions = instructions;
    r.hw_cycles = cycles;
    r.hw_stalled_cycles = cycles / 2;
    return r;
  };
  records.push_back(make("seq", 0.001, 200, 100, true));
  records.push_back(make("omp", 0.010, 50, 100, true));
  records.push_back(make("seq", 0.001, 0, 0, false));  // no annotation: evidence only

  const hwprof::HwCorrelation correlation = hwprof::correlate_hw(records);
  EXPECT_EQ(correlation.audited, 2u);
  EXPECT_EQ(correlation.predicted.launches, 1u);
  EXPECT_EQ(correlation.mispredicted.launches, 1u);
  EXPECT_DOUBLE_EQ(correlation.predicted.mean_ipc, 2.0);
  EXPECT_DOUBLE_EQ(correlation.mispredicted.mean_ipc, 0.5);
  EXPECT_DOUBLE_EQ(correlation.predicted.mean_stall_fraction, 0.5);
}

// ---------------------------------------------------------------------------
// The full chain, per provider: counter window -> apollo_hw_* series ->
// audit annotation -> apollo_prof report.

namespace {

constexpr std::int64_t kN = 4096;
constexpr int kLaunches = 24;

/// Sum a counter over every variant series carrying our kernel label.
std::uint64_t sum_counter(const telemetry::MetricsSnapshot& snap, const std::string& name,
                          const std::string& kernel) {
  const std::string needle = "kernel=\"" + kernel + "\"";
  std::uint64_t total = 0;
  for (const auto& series : snap.series) {
    if (series.name == name && series.labels.find(needle) != std::string::npos) {
      total += series.counter_value;
    }
  }
  return total;
}

void run_chain(hwprof::ProviderKind provider, const std::string& kernel_name) {
  // Fresh audit segment dir per run; ':' in kernel names is not a path char.
  std::string dir_tag = kernel_name;
  for (char& c : dir_tag) {
    if (c == ':') c = '_';
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("apollo_hwprof_chain_" + std::to_string(::getpid()) + "_" + dir_tag);
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Start from zeroed registry values so the window sums below are exact.
  telemetry::reset_for_testing();
  auto& rt = apollo::Runtime::instance();
  const apollo::KernelHandle kernel{kernel_name, "HwprofChain",
                                    apollo::instr::MixBuilder{}.fp(2).load(2).store(1).build(),
                                    24};

  // Train a tiny policy model so Tune-mode launches make real decisions
  // (decisions are what the audit log annotates).
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Record);
  apollo::TrainingConfig training;
  training.chunk_values.clear();
  rt.set_training_config(training);
  for (int step = 0; step < 8; ++step) {
    apollo::forall(kernel, raja::IndexSet::range(0, kN), [](raja::Index) {});
  }
  const apollo::TunerModel model = apollo::Trainer::train(rt.records(), apollo::TunedParameter::Policy);
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Tune);
  rt.set_policy_model(model);

  // Telemetry on (no file exports, no probes — probe records would be fine,
  // but exact window counting is simpler without them), audit to the temp
  // dir, hw profiling every launch.
  telemetry::Config config;
  config.trace_file.clear();
  config.decisions_file.clear();
  config.flush_interval_seconds = 0.0;
  config.probe_stride = 0;
  telemetry::configure(config);
  telemetry::set_enabled(true);
  telemetry::DecisionSinkConfig audit;
  audit.base_path = (dir / "audit.jsonl").string();
  telemetry::DecisionLog::instance().configure_sink(audit);

  hwprof::HwConfig hw;
  hw.stride = 1;
  hw.provider = provider;
  hwprof::configure(hw);

  const raja::IndexSet iset = raja::IndexSet::range(0, kN);
  for (int i = 0; i < kLaunches; ++i) {
    apollo::forall(kernel, iset, [](raja::Index) {});
  }

  // 1) Counter windows landed in the registry, attributed to this kernel.
  const telemetry::MetricsSnapshot snap = telemetry::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(sum_counter(snap, "apollo_hw_windows_total", kernel_name),
            static_cast<std::uint64_t>(kLaunches));
  EXPECT_EQ(sum_counter(snap, "apollo_hw_elements_total", kernel_name),
            static_cast<std::uint64_t>(kLaunches) * static_cast<std::uint64_t>(kN));
  const std::uint64_t instructions = sum_counter(snap, "apollo_hw_instructions_total", kernel_name);
  const std::uint64_t cycles = sum_counter(snap, "apollo_hw_cycles_total", kernel_name);
  EXPECT_GE(cycles, static_cast<std::uint64_t>(kLaunches)) << "every window counts >= 1 cycle";
  if (provider == hwprof::ProviderKind::Software) {
    EXPECT_EQ(instructions, cycles) << "software provider pins IPC to exactly 1";
  } else {
    EXPECT_GT(instructions, 0u);
  }

  // 2) Every audited decision carries the hw annotation.
  telemetry::DecisionLog::instance().flush();
  std::vector<telemetry::DecisionRecord> records;
  for (const std::string& path : telemetry::DecisionLog::instance().segment_paths()) {
    const auto lines = telemetry::read_complete_lines(path);
    ASSERT_TRUE(lines.has_value());
    for (const std::string& line : *lines) {
      const auto record = telemetry::parse_decision_line(line);
      ASSERT_TRUE(record.has_value()) << line;
      records.push_back(*record);
    }
  }
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kLaunches));
  for (const auto& record : records) {
    EXPECT_TRUE(record.has_hw);
    EXPECT_GE(record.hw_cycles, 1u);
    if (provider == hwprof::ProviderKind::Software) {
      EXPECT_EQ(record.hw_instructions, record.hw_cycles);
      EXPECT_DOUBLE_EQ(record.hw_scale, 1.0);
    }
  }

  // 3) The apollo_prof report reconstructs the aggregate from the exposition
  // text plus the audit records.
  const hwprof::ProfileReport report =
      hwprof::build_report(telemetry::MetricsRegistry::instance().expose(), records);
  bool found = false;
  std::uint64_t report_windows = 0;
  for (const auto& row : report.rows) {
    if (row.kernel == kernel_name) {
      found = true;
      report_windows += row.windows;
      EXPECT_FALSE(row.variant.empty());
      if (provider == hwprof::ProviderKind::Software) {
        EXPECT_DOUBLE_EQ(row.ipc(), 1.0);
      }
    }
  }
  EXPECT_TRUE(found) << "report must carry a row for " << kernel_name;
  EXPECT_EQ(report_windows, static_cast<std::uint64_t>(kLaunches));
  EXPECT_TRUE(report.has_audit);
  EXPECT_EQ(report.correlation.audited, static_cast<std::uint64_t>(kLaunches));
  EXPECT_NE(hwprof::render_report_json(report, 0).find(kernel_name), std::string::npos);
  EXPECT_NE(hwprof::render_report_text(report, 0).find(kernel_name), std::string::npos);

  // Teardown: switches off, resets runtime, removes the temp segments.
  telemetry::reset_for_testing();
  rt.reset();
  fs::remove_all(dir);
}

}  // namespace

TEST(HwprofChain, SoftwareProviderEndToEnd) { run_chain(hwprof::ProviderKind::Software, "hwchain:sw"); }

TEST(HwprofChain, PerfProviderEndToEnd) {
  if (!hwprof::perf_events_available()) {
    GTEST_SKIP() << "perf counters unavailable (perf_event_paranoid or no PMU)";
  }
  run_chain(hwprof::ProviderKind::Perf, "hwchain:perf");
}
