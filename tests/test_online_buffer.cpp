// Unit tests for the bounded SampleBuffer: ring wraparound, deferred
// materialization, bounded shared snapshots, and producer/consumer safety.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/features.hpp"
#include "online/sample_buffer.hpp"

using apollo::online::Sample;
using apollo::online::SampleBuffer;
namespace features = apollo::features;

namespace {

Sample make_sample(int i) {
  Sample s;
  s.loop_id = "test:buffer";
  s.func = "BufferKernel";
  s.index_type = "range";
  s.num_indices = 100 + i;
  s.num_segments = 1;
  s.stride = 1;
  s.policy = raja::PolicyType::seq_segit_seq_exec;
  s.seconds = static_cast<double>(i);
  return s;
}

double seconds_of(const apollo::perf::SampleRecord& record) {
  return record.at(features::kMeasureRuntime).as_real();
}

/// Reference materialization: copy the app snapshot, then write every fixed
/// key with operator[] (threads and bytes/iter only when nonzero).
apollo::perf::SampleRecord reference_materialize(const Sample& s) {
  apollo::perf::SampleRecord record = s.app ? *s.app : apollo::perf::SampleRecord{};
  record[features::kFunc] = s.func;
  record[features::kFuncSize] = s.mix.total();
  record[features::kIndexType] = s.index_type;
  record[features::kLoopId] = s.loop_id;
  record[features::kNumIndices] = s.num_indices;
  record[features::kNumSegments] = s.num_segments;
  record[features::kStride] = s.stride;
  for (std::size_t m = 0; m < apollo::instr::kMnemonicCount; ++m) {
    const auto mnemonic = static_cast<apollo::instr::Mnemonic>(m);
    record[apollo::instr::mnemonic_name(mnemonic)] = s.mix.count(mnemonic);
  }
  record[features::kParamPolicy] = raja::policy_name(s.policy);
  record[features::kParamChunk] = s.chunk;
  if (s.threads > 0) record[features::kParamThreads] = static_cast<std::int64_t>(s.threads);
  if (s.bytes_per_iter > 0) record[features::kMeasureBytesPerIter] = s.bytes_per_iter;
  record[features::kMeasureRuntime] = s.seconds;
  return record;
}

}  // namespace

TEST(SampleBuffer, GrowsThenWrapsKeepingNewest) {
  SampleBuffer buffer(4);
  for (int i = 0; i < 10; ++i) buffer.push(make_sample(i));
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total_pushed(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);

  const auto records = buffer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(seconds_of(records[i]), 6.0 + i);  // oldest first
  }
}

TEST(SampleBuffer, SnapshotSharedBoundsToNewest) {
  SampleBuffer buffer(8);
  for (int i = 0; i < 6; ++i) buffer.push(make_sample(i));

  const auto newest2 = buffer.snapshot_shared(2);
  ASSERT_EQ(newest2.size(), 2u);
  EXPECT_DOUBLE_EQ(newest2[0]->seconds, 4.0);
  EXPECT_DOUBLE_EQ(newest2[1]->seconds, 5.0);

  EXPECT_EQ(buffer.snapshot_shared(0).size(), 6u);   // 0 = everything
  EXPECT_EQ(buffer.snapshot_shared(99).size(), 6u);  // clamped to contents
  EXPECT_EQ(buffer.size(), 6u);                      // snapshot is non-destructive
}

TEST(SampleBuffer, SnapshotSharedBoundsAfterWrap) {
  SampleBuffer buffer(4);
  for (int i = 0; i < 7; ++i) buffer.push(make_sample(i));
  const auto newest3 = buffer.snapshot_shared(3);
  ASSERT_EQ(newest3.size(), 3u);
  EXPECT_DOUBLE_EQ(newest3[0]->seconds, 4.0);
  EXPECT_DOUBLE_EQ(newest3[2]->seconds, 6.0);
}

TEST(SampleBuffer, DrainEmptiesAndPreservesOrder) {
  SampleBuffer buffer(4);
  for (int i = 0; i < 6; ++i) buffer.push(make_sample(i));
  const auto records = buffer.drain();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_DOUBLE_EQ(seconds_of(records.front()), 2.0);
  EXPECT_DOUBLE_EQ(seconds_of(records.back()), 5.0);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.total_pushed(), 6u);  // monotonic across drains
}

TEST(SampleBuffer, SetCapacityKeepsNewest) {
  SampleBuffer buffer(8);
  for (int i = 0; i < 8; ++i) buffer.push(make_sample(i));
  buffer.set_capacity(3);
  const auto records = buffer.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(seconds_of(records[0]), 5.0);
  EXPECT_DOUBLE_EQ(seconds_of(records[2]), 7.0);
}

TEST(SampleBuffer, MaterializeBuildsFullRecord) {
  auto app = std::make_shared<const apollo::perf::SampleRecord>(
      apollo::perf::SampleRecord{{features::kTimestep, std::int64_t{42}}});
  Sample s = make_sample(3);
  s.app = app;
  s.chunk = 16;
  s.threads = 4;

  const auto record = s.materialize();
  EXPECT_EQ(record.at(features::kLoopId).as_string(), "test:buffer");
  EXPECT_EQ(record.at(features::kNumIndices).as_int(), 103);
  EXPECT_EQ(record.at(features::kTimestep).as_int(), 42);
  EXPECT_EQ(record.at(features::kParamPolicy).as_string(), raja::policy_name(s.policy));
  EXPECT_EQ(record.at(features::kParamChunk).as_int(), 16);
  EXPECT_EQ(record.at(features::kParamThreads).as_int(), 4);
  EXPECT_DOUBLE_EQ(seconds_of(record), 3.0);

  // threads == 0 (the common case) must not invent a threads parameter.
  EXPECT_EQ(make_sample(0).materialize().count(features::kParamThreads), 0u);
}

TEST(SampleBuffer, MaterializeMatchesOperatorIndexReference) {
  using apollo::perf::SampleRecord;
  using apollo::perf::Value;
  Sample base = make_sample(5);
  base.mix = apollo::instr::MixBuilder{}.fp(6).div(1).load(4).store(2).control(3).build();
  base.bytes_per_iter = 24;
  base.threads = 2;
  base.chunk = 64;
  base.policy = raja::PolicyType::seq_segit_omp_parallel_for_exec;

  // App attributes named like fixed keys: the Sample's value wins.
  const SampleRecord shadowing = {{features::kFunc, "app-func"},
                                  {features::kNumIndices, 1},
                                  {features::kParamPolicy, "app-policy"},
                                  {features::kMeasureRuntime, 9.5}};
  // Keys sorting before the first fixed key ("add"), between fixed keys, and
  // after the last ("xorps").
  const SampleRecord interleaved = {{"aaa", 1},
                                    {"cmp_extra", "x"},
                                    {"measure:other", 2.5},
                                    {"param:zz", 3},
                                    {features::kProblemName, "sedov"},
                                    {features::kTimestep, 4},
                                    {"zzz", "last"}};
  // threads/bytes-per-iter set by the app survive when the Sample has 0.
  const SampleRecord zero_fields = {{features::kParamThreads, 8},
                                    {features::kMeasureBytesPerIter, 40}};

  std::vector<Sample> cases;
  cases.push_back(base);  // null snapshot
  for (const SampleRecord* app : {&shadowing, &interleaved, &zero_fields}) {
    Sample s = base;
    s.app = std::make_shared<const SampleRecord>(*app);
    cases.push_back(s);
    s.threads = 0;
    s.bytes_per_iter = 0;
    cases.push_back(s);
  }
  SampleRecord merged = shadowing;
  merged.insert(interleaved.begin(), interleaved.end());
  merged.insert(zero_fields.begin(), zero_fields.end());
  Sample all = base;
  all.threads = 0;
  all.bytes_per_iter = 0;
  all.app = std::make_shared<const SampleRecord>(merged);
  cases.push_back(all);
  cases.push_back(Sample{});  // all defaults, null snapshot

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const SampleRecord expected = reference_materialize(cases[c]);
    const SampleRecord actual = cases[c].materialize();
    EXPECT_EQ(actual, expected) << "case " << c;
    EXPECT_EQ(actual.size(), expected.size()) << "case " << c;
  }
  // Spot-check the two rules the merge must keep.
  const SampleRecord app_wins = cases[6].materialize();  // zero_fields, threads/bytes 0
  EXPECT_EQ(app_wins.at(features::kParamThreads), Value(8));
  EXPECT_EQ(app_wins.at(features::kMeasureBytesPerIter), Value(40));
  const SampleRecord sample_wins = cases[1].materialize();  // shadowing
  EXPECT_EQ(sample_wins.at(features::kFunc).as_string(), "BufferKernel");
  EXPECT_EQ(sample_wins.at(features::kParamPolicy).as_string(), "omp");
}

TEST(SampleBuffer, DrainIntoAppendsInOrderAndEmpties) {
  SampleBuffer buffer(8);
  for (int i = 0; i < 5; ++i) buffer.push(make_sample(i));
  std::vector<SampleBuffer::SharedSample> out;
  EXPECT_EQ(buffer.drain_into(out), 5u);
  EXPECT_TRUE(buffer.empty());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out.front()->seconds, 0.0);
  EXPECT_DOUBLE_EQ(out.back()->seconds, 4.0);

  // Appends to what the caller already holds, never clobbers.
  buffer.push(make_sample(9));
  EXPECT_EQ(buffer.drain_into(out), 1u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_DOUBLE_EQ(out.back()->seconds, 9.0);
  EXPECT_EQ(buffer.drain_into(out), 0u);  // empty drain is a no-op
  EXPECT_EQ(out.size(), 6u);
}

TEST(SampleBuffer, DrainIntoConcurrentWithPushesLosesNothing) {
  // The service client's shipping path: one producer keeps pushing while the
  // drainer repeatedly empties the buffer. With capacity above the push
  // count, every sample must come out exactly once, in order.
  constexpr int kPushes = 20000;
  SampleBuffer buffer(kPushes);
  std::vector<SampleBuffer::SharedSample> drained;
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (int i = 0; i < kPushes; ++i) buffer.push(make_sample(i));
    done.store(true);
  });
  while (!done.load() || !buffer.empty()) (void)buffer.drain_into(drained);
  producer.join();
  (void)buffer.drain_into(drained);

  EXPECT_EQ(buffer.total_pushed(), static_cast<std::uint64_t>(kPushes));
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(kPushes));
  for (int i = 0; i < kPushes; ++i) {
    ASSERT_DOUBLE_EQ(drained[static_cast<std::size_t>(i)]->seconds, static_cast<double>(i));
  }
}

TEST(SampleBuffer, ConcurrentPushSnapshotDrain) {
  SampleBuffer buffer(64);
  constexpr int kPushes = 4000;

  std::thread producer([&] {
    for (int i = 0; i < kPushes; ++i) buffer.push(make_sample(i));
  });
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      const auto shared = buffer.snapshot_shared(16);
      for (const auto& sample : shared) EXPECT_GE(sample->seconds, 0.0);
    }
  });
  std::thread drainer([&] {
    for (int i = 0; i < 50; ++i) (void)buffer.drain();
  });
  producer.join();
  reader.join();
  drainer.join();

  EXPECT_EQ(buffer.total_pushed(), static_cast<std::uint64_t>(kPushes));
  EXPECT_LE(buffer.size(), 64u);
}
