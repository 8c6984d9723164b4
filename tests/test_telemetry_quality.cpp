// Unit tests for the model-quality observability layer: the QualityAccountant
// (online accuracy / regret / calibration with budgeted probes), the decision
// log (JSON round-trip, strict line parsing, segment rotation, partial-line
// tolerance), the hardened environment parsing, and the quality pane
// formatting.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/stats_report.hpp"
#include "telemetry/decision_log.hpp"
#include "telemetry/env.hpp"
#include "telemetry/quality.hpp"

namespace telemetry = apollo::telemetry;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kSeq = 1;
constexpr std::uint64_t kOmp = 2;

/// The decision log's segment sink (APOLLO_AUDIT_FILE, once the audit log).
/// Fresh temp directory per test; removed on teardown.
class AuditLogTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("apollo_audit_test_" + std::to_string(::getpid()) + "_" +
                                        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    telemetry::DecisionLog::instance().reset_for_testing();
  }
  void TearDown() override {
    telemetry::DecisionLog::instance().reset_for_testing();
    fs::remove_all(dir_);
  }
  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

telemetry::DecisionRecord make_decision() {
  telemetry::DecisionRecord record;
  record.kind = telemetry::DecisionRecord::Kind::Decision;
  record.ts_ns = 123456789;
  record.kernel = "stream \"triad\"";
  record.bucket = 42;
  record.model_version = 3;
  record.label = "omp";
  record.policy = "seq";
  record.chunk = 128;
  record.explored = true;
  record.seconds = 0.00125;
  record.features.emplace_back("num_indices", 4096.0);
  record.features.emplace_back("segment\\kind", -1.0);
  return record;
}

}  // namespace

// ---------------------------------------------------------------------------
// QualityAccountant

TEST(QualityAccountant, UnscoredKernelReportsPerfectAccuracyAndNoRegret) {
  telemetry::QualityAccountant accountant;
  EXPECT_EQ(accountant.kernel("never_seen"), nullptr);
  telemetry::KernelQuality empty;
  EXPECT_DOUBLE_EQ(empty.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(empty.calibration(), 0.0);
  EXPECT_EQ(accountant.total_probes(), 0u);
  EXPECT_DOUBLE_EQ(accountant.total_regret_seconds(), 0.0);
}

TEST(QualityAccountant, AgreementAndRegretTrackBestKnownVariant) {
  telemetry::QualityAccountant accountant({/*baseline_alpha=*/1.0});

  // First launch: only evidence is itself, so it scores as an agreement.
  EXPECT_DOUBLE_EQ(accountant.observe_choice("k", 0, kSeq, 0.010, true), 0.0);
  // A probe proves the other variant is 4x faster...
  accountant.record_probe("k", 0, kOmp, 0.0025);
  // ...so sticking with the slow variant now charges regret.
  const double regret = accountant.observe_choice("k", 0, kSeq, 0.010, true);
  EXPECT_NEAR(regret, 0.010 - 0.0025, 1e-12);

  const telemetry::KernelQuality* quality = accountant.kernel("k");
  ASSERT_NE(quality, nullptr);
  EXPECT_EQ(quality->launches, 2u);
  EXPECT_EQ(quality->agreements, 1u);
  EXPECT_EQ(quality->probes, 1u);
  EXPECT_NEAR(quality->regret_seconds, regret, 1e-12);
  EXPECT_DOUBLE_EQ(quality->accuracy(), 0.5);
  EXPECT_NEAR(accountant.total_regret_seconds(), regret, 1e-12);

  // Switching to the fast variant is an agreement with zero regret.
  EXPECT_DOUBLE_EQ(accountant.observe_choice("k", 0, kOmp, 0.0025, true), 0.0);
  EXPECT_EQ(accountant.kernel("k")->agreements, 2u);
}

TEST(QualityAccountant, ExplorationRefreshesBaselinesWithoutScoring) {
  telemetry::QualityAccountant accountant({/*baseline_alpha=*/1.0});
  accountant.observe_choice("k", 7, kSeq, 0.020, true);
  // Exploration substitute: feeds the baseline, does not count as a decision.
  EXPECT_DOUBLE_EQ(accountant.observe_choice("k", 7, kOmp, 0.001, false), 0.0);
  const telemetry::KernelQuality* quality = accountant.kernel("k");
  ASSERT_NE(quality, nullptr);
  EXPECT_EQ(quality->launches, 1u);
  EXPECT_NEAR(accountant.baseline("k", 7, kOmp), 0.001, 1e-12);
  EXPECT_NEAR(accountant.best_baseline("k", 7), 0.001, 1e-12);
  // The next model-chosen slow launch is now a disagreement.
  accountant.observe_choice("k", 7, kSeq, 0.020, true);
  EXPECT_EQ(accountant.kernel("k")->launches, 2u);
  EXPECT_EQ(accountant.kernel("k")->agreements, 1u);
}

TEST(QualityAccountant, BucketsAreScoredIndependently) {
  telemetry::QualityAccountant accountant({/*baseline_alpha=*/1.0});
  accountant.record_probe("k", 1, kOmp, 0.001);
  accountant.observe_choice("k", 1, kSeq, 0.010, true);  // disagreement in bucket 1
  accountant.observe_choice("k", 2, kSeq, 0.010, true);  // bucket 2 has no omp evidence
  const telemetry::KernelQuality* quality = accountant.kernel("k");
  ASSERT_NE(quality, nullptr);
  EXPECT_EQ(quality->launches, 2u);
  EXPECT_EQ(quality->agreements, 1u);
  EXPECT_DOUBLE_EQ(accountant.baseline("k", 2, kOmp), -1.0);
  EXPECT_DOUBLE_EQ(accountant.best_baseline("k", 3), -1.0);
}

TEST(QualityAccountant, ProbeBudgetIsStrided) {
  telemetry::QualityAccountant accountant;
  EXPECT_FALSE(accountant.probe_due(0));  // 0 disables probing entirely
  EXPECT_FALSE(accountant.probe_due(0));

  telemetry::QualityAccountant strided;
  int due = 0;
  for (int i = 0; i < 64; ++i) {
    if (strided.probe_due(8)) ++due;
  }
  EXPECT_EQ(due, 8);  // exactly one probe per 8 tuned launches
}

TEST(QualityAccountant, CalibrationAveragesPredictedOverObserved) {
  telemetry::QualityAccountant accountant;
  accountant.observe_calibration("k", 0.004, 0.002);
  accountant.observe_calibration("k", 0.002, 0.004);
  const telemetry::KernelQuality* quality = accountant.kernel("k");
  ASSERT_NE(quality, nullptr);
  EXPECT_EQ(quality->calibration_samples, 2u);
  EXPECT_DOUBLE_EQ(quality->calibration(), 1.0);
}

TEST(QualityAccountant, ClearForgetsEverything) {
  telemetry::QualityAccountant accountant;
  accountant.observe_choice("k", 0, kSeq, 0.010, true);
  accountant.record_probe("k", 0, kOmp, 0.001);
  accountant.clear();
  EXPECT_EQ(accountant.kernel("k"), nullptr);
  EXPECT_EQ(accountant.total_probes(), 0u);
  EXPECT_DOUBLE_EQ(accountant.total_regret_seconds(), 0.0);
  EXPECT_TRUE(accountant.snapshot().empty());
  // And the accountant still works after the reset (caches were invalidated).
  accountant.observe_choice("k", 0, kSeq, 0.010, true);
  ASSERT_NE(accountant.kernel("k"), nullptr);
  EXPECT_EQ(accountant.kernel("k")->launches, 1u);
}

TEST(QualityAccountant, SnapshotIsSortedByKernelName) {
  telemetry::QualityAccountant accountant;
  accountant.observe_choice("zeta", 0, kSeq, 0.01, true);
  accountant.observe_choice("alpha", 0, kSeq, 0.01, true);
  const auto snapshot = accountant.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "alpha");
  EXPECT_EQ(snapshot[1].first, "zeta");
}

// ---------------------------------------------------------------------------
// Decision records: the one JSON line format

namespace {

/// Every byte JSON must escape, in one name.
const std::string kNasty = std::string("q\"b\\n\nt\tc") + '\x01' + "z";

void expect_same_record(const telemetry::DecisionRecord& got,
                        const telemetry::DecisionRecord& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.ts_ns, want.ts_ns);
  EXPECT_EQ(got.kernel, want.kernel);
  EXPECT_EQ(got.bucket, want.bucket);
  EXPECT_EQ(got.model_version, want.model_version);
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.policy, want.policy);
  EXPECT_EQ(got.chunk, want.chunk);
  EXPECT_EQ(got.explored, want.explored);
  EXPECT_DOUBLE_EQ(got.seconds, want.seconds);
  EXPECT_EQ(got.features, want.features);  // %.17g: values round-trip exactly
  EXPECT_EQ(got.tree_path, want.tree_path);
  EXPECT_DOUBLE_EQ(got.predicted_seconds, want.predicted_seconds);
  EXPECT_EQ(got.has_hw, want.has_hw);
  EXPECT_EQ(got.hw_instructions, want.hw_instructions);
  EXPECT_EQ(got.hw_cycles, want.hw_cycles);
  EXPECT_EQ(got.hw_cache_misses, want.hw_cache_misses);
  EXPECT_EQ(got.hw_branch_misses, want.hw_branch_misses);
  EXPECT_EQ(got.hw_stalled_cycles, want.hw_stalled_cycles);
  EXPECT_DOUBLE_EQ(got.hw_scale, want.hw_scale);
}

/// A sampled, hw-annotated decision: every optional field group present.
telemetry::DecisionRecord make_full_decision() {
  telemetry::DecisionRecord record = make_decision();
  record.kernel = "kernel " + kNasty;
  record.label = "label " + kNasty;
  record.features.emplace_back("feature " + kNasty, 0.1);
  record.tree_path = {0, 2, 5};
  record.predicted_seconds = 3.5e-05;
  record.has_hw = true;
  record.hw_instructions = (std::uint64_t{1} << 53) + 1;
  record.hw_cycles = 123456789;
  record.hw_cache_misses = 1024;
  record.hw_branch_misses = 64;
  record.hw_stalled_cycles = 8;
  record.hw_scale = 1.25;
  return record;
}

telemetry::DecisionRecord make_probe() {
  telemetry::DecisionRecord record;
  record.kind = telemetry::DecisionRecord::Kind::Probe;
  record.ts_ns = 99;
  record.kernel = "k";
  record.bucket = 5;
  record.model_version = 1;
  record.policy = "omp";
  record.seconds = 0.5;
  return record;
}

/// One line of each shape the writer produces.
std::vector<std::string> writer_lines() {
  telemetry::DecisionRecord hw_probe = make_probe();
  hw_probe.has_hw = true;
  hw_probe.hw_cycles = 77;
  return {to_json_line(make_decision()), to_json_line(make_full_decision()),
          to_json_line(make_probe()), to_json_line(hw_probe)};
}

/// Anything the parser accepts must re-serialize to a line it accepts again.
void expect_accepted_lines_reserialize(const std::string& input) {
  if (const auto parsed = telemetry::parse_decision_line(input)) {
    EXPECT_TRUE(telemetry::parse_decision_line(to_json_line(*parsed)).has_value()) << input;
  }
}

}  // namespace

TEST(AuditRecordJson, DecisionRoundTripsWithFeaturesAndEscapes) {
  const telemetry::DecisionRecord record = make_full_decision();
  const std::string line = to_json_line(record);
  // No raw control byte survives escaping: the line stays one JSONL line.
  for (const char c : line) EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << line;

  const auto parsed = telemetry::parse_decision_line(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  expect_same_record(*parsed, record);
  ASSERT_EQ(parsed->features.size(), 3u);
  EXPECT_EQ(parsed->features[1].first, "segment\\kind");  // backslash survives
  EXPECT_EQ(parsed->features[2].first, "feature " + kNasty);
  EXPECT_EQ(parsed->kernel, "kernel " + kNasty);
  EXPECT_EQ(parsed->label, "label " + kNasty);
}

TEST(AuditRecordJson, ProbeRoundTripsWithoutDecisionFields) {
  const telemetry::DecisionRecord record = make_probe();
  const auto parsed = telemetry::parse_decision_line(to_json_line(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, telemetry::DecisionRecord::Kind::Probe);
  EXPECT_EQ(parsed->policy, "omp");
  EXPECT_TRUE(parsed->label.empty());
  EXPECT_TRUE(parsed->features.empty());
}

TEST(AuditRecordJson, MalformedLinesAreRejected) {
  EXPECT_FALSE(telemetry::parse_decision_line("").has_value());
  EXPECT_FALSE(telemetry::parse_decision_line("not json").has_value());
  EXPECT_FALSE(telemetry::parse_decision_line("{\"type\":\"unknown\"}").has_value());
  // A truncated prefix of a valid line (torn write) must not parse.
  const std::string line = to_json_line(make_decision());
  EXPECT_FALSE(telemetry::parse_decision_line(line.substr(0, line.size() / 2)).has_value());
  // Decision fields on a probe, a duplicated key, an unknown key, and a
  // half-present optional group are all incomplete or contradictory objects.
  const std::string probe = to_json_line(make_probe());
  const std::string body = probe.substr(0, probe.size() - 1);
  EXPECT_FALSE(telemetry::parse_decision_line(body + ",\"label\":\"omp\"}").has_value());
  EXPECT_FALSE(telemetry::parse_decision_line(body + ",\"chunk\":1}").has_value());
  EXPECT_FALSE(telemetry::parse_decision_line(body + ",\"extra\":1}").has_value());
  EXPECT_FALSE(telemetry::parse_decision_line(body + ",\"hw_cycles\":1}").has_value());
  EXPECT_FALSE(telemetry::parse_decision_line(body + " ").has_value());
}

TEST(DecisionLineParser, EveryStrictPrefixIsRejected) {
  // A reader tailing a live segment can see any cut of a line. Every strict
  // prefix must be rejected — a cut inside `features` must not yield a record
  // with fewer features, nor a cut before `hw_*` one without the annotation.
  for (const std::string& line : writer_lines()) {
    ASSERT_TRUE(telemetry::parse_decision_line(line).has_value()) << line;
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      EXPECT_FALSE(telemetry::parse_decision_line(line.substr(0, cut)).has_value())
          << "truncated to " << cut << "/" << line.size() << ": " << line.substr(0, cut);
    }
    EXPECT_FALSE(telemetry::parse_decision_line(line + '\0').has_value());
  }
}

TEST(DecisionLineParser, BitFlipsAndSplicesNeverCrash) {
  // Deterministic fuzz: every single-bit flip of every writer line, and
  // splices of two lines at every offset. The parser must return (accepted
  // or not) without crashing, and anything it accepts must re-serialize.
  const std::vector<std::string> lines = writer_lines();
  for (const std::string& line : lines) {
    for (std::size_t at = 0; at < line.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = line;
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
        expect_accepted_lines_reserialize(flipped);
      }
    }
  }
  for (const std::string& a : lines) {
    for (const std::string& b : lines) {
      // Two records run together without a newline is never one record.
      EXPECT_FALSE(telemetry::parse_decision_line(a + b).has_value());
      for (std::size_t at = 0; at <= a.size(); ++at) {
        expect_accepted_lines_reserialize(a.substr(0, at) + b);
        if (at <= b.size()) expect_accepted_lines_reserialize(a.substr(0, at) + b.substr(at));
      }
    }
  }
}

TEST(DecisionLineParser, SegmentsWrittenBeforeTheMergeStillReplay) {
  // Literal lines in the format audit segments had before the decision log
  // gained tree paths: a decision (escapes in kernel and feature names), a
  // probe, and an hw-annotated decision. They must parse to the same fields.
  const std::string decision =
      R"({"type":"decision","ts_ns":1712345678901234,"kernel":"lulesh:calc \"force\"\t\\v1",)"
      R"("bucket":7,"gen":2,"policy":"seq_segit_seq_exec","chunk":64,"seconds":0.000123456789,)"
      R"("label":"seq_segit_omp_parallel_for_exec","explored":true,"features":[["num_indices",)"
      R"(4096],["seg\nkind",-1],["ratio",0.10000000000000001]]})";
  const std::string probe =
      R"({"type":"probe","ts_ns":99,"kernel":"k","bucket":3,"gen":1,)"
      R"("policy":"seq_segit_omp_parallel_for_exec","chunk":0,"seconds":2.5000000000000002e-06})";
  const std::string hw =
      R"({"type":"decision","ts_ns":1712345678901234,"kernel":"lulesh:calc \"force\"\t\\v1",)"
      R"("bucket":7,"gen":2,"policy":"seq_segit_seq_exec","chunk":64,"seconds":0.000123456789,)"
      R"("label":"seq_segit_omp_parallel_for_exec","explored":false,"features":[["num_indices",)"
      R"(100]],"hw_instructions":9007199254740993,"hw_cycles":123456789,"hw_cache_misses":1024,)"
      R"("hw_branch_misses":64,"hw_stalled_cycles":8,"hw_scale":1.25})";

  telemetry::DecisionRecord want;
  want.ts_ns = 1712345678901234ULL;
  want.kernel = "lulesh:calc \"force\"\t\\v1";
  want.bucket = 7;
  want.model_version = 2;
  want.label = "seq_segit_omp_parallel_for_exec";
  want.policy = "seq_segit_seq_exec";
  want.chunk = 64;
  want.explored = true;
  want.seconds = 0.000123456789;
  want.features = {{"num_indices", 4096.0}, {"seg\nkind", -1.0}, {"ratio", 0.1}};
  const auto parsed_decision = telemetry::parse_decision_line(decision);
  ASSERT_TRUE(parsed_decision.has_value());
  expect_same_record(*parsed_decision, want);
  // The writer still produces these bytes for such a record.
  EXPECT_EQ(to_json_line(want), decision);

  telemetry::DecisionRecord want_probe;
  want_probe.kind = telemetry::DecisionRecord::Kind::Probe;
  want_probe.ts_ns = 99;
  want_probe.kernel = "k";
  want_probe.bucket = 3;
  want_probe.model_version = 1;
  want_probe.policy = "seq_segit_omp_parallel_for_exec";
  want_probe.seconds = 2.5e-06;
  const auto parsed_probe = telemetry::parse_decision_line(probe);
  ASSERT_TRUE(parsed_probe.has_value());
  expect_same_record(*parsed_probe, want_probe);
  EXPECT_EQ(to_json_line(want_probe), probe);

  telemetry::DecisionRecord want_hw = want;
  want_hw.explored = false;
  want_hw.features = {{"num_indices", 100.0}};
  want_hw.has_hw = true;
  want_hw.hw_instructions = (std::uint64_t{1} << 53) + 1;
  want_hw.hw_cycles = 123456789;
  want_hw.hw_cache_misses = 1024;
  want_hw.hw_branch_misses = 64;
  want_hw.hw_stalled_cycles = 8;
  want_hw.hw_scale = 1.25;
  const auto parsed_hw = telemetry::parse_decision_line(hw);
  ASSERT_TRUE(parsed_hw.has_value());
  expect_same_record(*parsed_hw, want_hw);
  EXPECT_EQ(to_json_line(want_hw), hw);
}

// ---------------------------------------------------------------------------
// DecisionLog sink: rotation, bounded retention, reader tolerance

TEST_F(AuditLogTest, AppendFlushReadBack) {
  telemetry::DecisionSinkConfig config;
  config.base_path = path("audit.jsonl");
  telemetry::DecisionLog::instance().configure_sink(config);
  EXPECT_TRUE(telemetry::DecisionLog::instance().sink_enabled());

  for (int i = 0; i < 5; ++i) telemetry::DecisionLog::instance().record(make_decision(), false);
  telemetry::DecisionLog::instance().flush();

  const auto segments = telemetry::DecisionLog::instance().segment_paths();
  ASSERT_EQ(segments.size(), 1u);
  const auto lines = telemetry::read_complete_lines(segments.front());
  ASSERT_TRUE(lines.has_value());
  EXPECT_EQ(lines->size(), 5u);
  EXPECT_EQ(telemetry::DecisionLog::instance().records_appended(), 5u);
  for (const auto& line : *lines) {
    EXPECT_TRUE(telemetry::parse_decision_line(line).has_value());
  }
}

TEST_F(AuditLogTest, RotatesSegmentsAndCapsRetention) {
  telemetry::DecisionSinkConfig config;
  config.base_path = path("audit");  // ".jsonl" suffix is optional
  config.segment_bytes = 512;        // force rotation every few records
  config.max_segments = 2;
  config.flush_bytes = 1;            // flush every append
  telemetry::DecisionLog::instance().configure_sink(config);

  for (int i = 0; i < 64; ++i) telemetry::DecisionLog::instance().record(make_decision(), false);
  telemetry::DecisionLog::instance().close();

  EXPECT_GT(telemetry::DecisionLog::instance().segments_rotated(), 0u);
  const auto segments = telemetry::DecisionLog::instance().segment_paths();
  ASSERT_LE(segments.size(), 2u);  // older segments were deleted
  ASSERT_FALSE(segments.empty());
  // Every surviving segment holds only complete, parseable lines.
  for (const auto& segment : segments) {
    const auto lines = telemetry::read_complete_lines(segment);
    ASSERT_TRUE(lines.has_value());
    EXPECT_FALSE(lines->empty());
    for (const auto& line : *lines) {
      EXPECT_TRUE(telemetry::parse_decision_line(line).has_value());
    }
  }
}

TEST_F(AuditLogTest, ConfigureAppendsAfterExistingSegments) {
  telemetry::DecisionSinkConfig config;
  config.base_path = path("audit.jsonl");
  config.flush_bytes = 1;
  telemetry::DecisionLog::instance().configure_sink(config);
  telemetry::DecisionLog::instance().record(make_decision(), false);
  telemetry::DecisionLog::instance().close();

  // Reconfigure (a restarted process): appends continue, nothing is clobbered.
  telemetry::DecisionLog::instance().configure_sink(config);
  telemetry::DecisionLog::instance().record(make_decision(), false);
  telemetry::DecisionLog::instance().close();

  std::size_t total_lines = 0;
  for (const auto& segment : telemetry::DecisionLog::instance().segment_paths()) {
    const auto lines = telemetry::read_complete_lines(segment);
    ASSERT_TRUE(lines.has_value());
    total_lines += lines->size();
  }
  EXPECT_EQ(total_lines, 2u);
}

TEST_F(AuditLogTest, ReadCompleteLinesSkipsPartialTrailingLine) {
  const std::string file = path("partial.jsonl");
  {
    std::ofstream out(file, std::ios::binary);
    out << "first line\n";
    out << "\n";  // empty lines are dropped
    out << "second line\n";
    out << "{\"type\":\"decision\",\"ts_ns\":12";  // live writer mid-append
  }
  const auto lines = telemetry::read_complete_lines(file);
  ASSERT_TRUE(lines.has_value());
  ASSERT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[0], "first line");
  EXPECT_EQ((*lines)[1], "second line");

  EXPECT_FALSE(telemetry::read_complete_lines(path("does_not_exist.jsonl")).has_value());
}

// ---------------------------------------------------------------------------
// Hardened environment parsing

class EnvParsingTest : public ::testing::Test {
protected:
  void TearDown() override { ::unsetenv("APOLLO_TEST_ENV_KNOB"); }
  static void set(const char* value) { ::setenv("APOLLO_TEST_ENV_KNOB", value, 1); }
};

TEST_F(EnvParsingTest, UnsetUsesFallbackWithoutWarning) {
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 64);
  EXPECT_EQ(telemetry::env_size("APOLLO_TEST_ENV_KNOB", 1024), 1024u);
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 0.5), 0.5);
  EXPECT_EQ(telemetry::env_string("APOLLO_TEST_ENV_KNOB", "dflt"), "dflt");
}

TEST_F(EnvParsingTest, ValidValuesParse) {
  set("128");
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 128);
  EXPECT_EQ(telemetry::env_size("APOLLO_TEST_ENV_KNOB", 64), 128u);
  set("2.5");
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 1.0), 2.5);
  set("text");
  EXPECT_EQ(telemetry::env_string("APOLLO_TEST_ENV_KNOB", ""), "text");
}

TEST_F(EnvParsingTest, GarbageKeepsTheDefault) {
  for (const char* bad : {"", "abc", "12abc", "64k", "1e6junk", " "}) {
    set(bad);
    EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 64) << "value: " << bad;
  }
  set("nan");
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 0.25), 0.25);
}

TEST_F(EnvParsingTest, ZeroAndNegativeAreRejectedByMinimum) {
  set("0");
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 64);  // min_value = 1
  set("-3");
  EXPECT_EQ(telemetry::env_size("APOLLO_TEST_ENV_KNOB", 64), 64u);
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 0.5), 0.5);  // min = 0.0
  // A knob that explicitly allows 0 (strides) accepts it.
  set("0");
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64, /*min_value=*/0), 0);
}

// ---------------------------------------------------------------------------
// Quality pane formatting

TEST(FormatQuality, EmptyAndUnscoredRenderNothing) {
  EXPECT_TRUE(apollo::format_quality({}).empty());
  // Kernels with zero scored launches and no probes carry no signal.
  EXPECT_TRUE(apollo::format_quality({{"k", telemetry::KernelQuality{}}}).empty());
}

TEST(FormatQuality, RendersAccuracyRegretAndProbes) {
  telemetry::KernelQuality quality;
  quality.launches = 10;
  quality.agreements = 9;
  quality.probes = 3;
  quality.regret_seconds = 0.0025;
  const std::string text = apollo::format_quality({{"stream", quality}});
  EXPECT_NE(text.find("stream"), std::string::npos);
  EXPECT_NE(text.find("90"), std::string::npos);      // 90% accuracy
  EXPECT_NE(text.find("2.500"), std::string::npos);   // regret in ms
  EXPECT_NE(text.find("probes 3"), std::string::npos);
}
