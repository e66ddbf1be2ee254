// Crash-safe trace durability + deterministic chaos (ctest label:
// fault).
//
// The durability contract under test: SegmentedTraceWriter bounds a
// crash's blast radius to the active tail. Every *sealed* segment is
// salvaged bit-exactly, and the torn `.tmp` tail yields exactly its
// valid chunk prefix — asserted here by truncating a flushed-but-
// unsealed tail at EVERY byte offset and scanning the directory each
// time. Alongside: rotation and fsync policies are deterministic
// (same input → same segment boundaries and bytes), merge_segments
// folds a salvage into one servable trace, the degradation ladder's
// hysteresis is a pure function of its backlog-lag sequence, and the chaos
// scheduler is a pure function of (seed, coordinates) — the property
// that makes chaos runs replayable.
#include "stream/trace_segments.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/fault_injector.hpp"
#include "gateway/degradation.hpp"
#include "stream/trace.hpp"

namespace saiyan {
namespace {

namespace fs = std::filesystem;

lora::PhyParams phy() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  return p;
}

stream::TraceMeta meta() {
  stream::TraceMeta m;
  m.phy = phy();
  m.payload_symbols = 8;
  return m;
}

std::vector<stream::TraceMarker> markers() {
  std::vector<stream::TraceMarker> out(2);
  out[0].sample_offset = 7;
  out[0].tag_id = 1;
  out[0].symbols = {1, 2, 3};
  out[1].sample_offset = 9000;
  out[1].tag_id = 2;
  out[1].symbols = {3, 2, 1};
  return out;
}

/// Deterministic ramp so bit-exactness failures point at an offset.
dsp::Signal ramp(std::size_t n, std::size_t phase) {
  dsp::Signal s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = dsp::Complex(static_cast<double>(phase + i), -1.0);
  }
  return s;
}

/// Scratch capture directory, removed on teardown.
class SegmentDir : public ::testing::Test {
 protected:
  void SetUp() override {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "saiyan_segdir_%s_%d",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name(),
                  static_cast<int>(::getpid()));
    dir_ = buf;
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

std::vector<dsp::Complex> read_all(stream::SegmentedTraceReader& reader) {
  std::vector<dsp::Complex> out;
  dsp::Signal chunk;
  for (;;) {
    const stream::ChunkStatus st = reader.next_chunk(chunk);
    if (st != stream::ChunkStatus::kOk &&
        st != stream::ChunkStatus::kResync) {
      break;
    }
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

// ------------------------------------------------- segment round-trip

TEST_F(SegmentDir, RoundTripIsBitExactAcrossRotation) {
  stream::SegmentPolicy policy;
  policy.segment_samples = 100;  // rotate every ~2 chunks of 50
  std::vector<dsp::Complex> written;
  {
    stream::SegmentedTraceWriter w(dir_, meta(), markers(), policy);
    for (int c = 0; c < 7; ++c) {
      const dsp::Signal s = ramp(50, written.size());
      written.insert(written.end(), s.begin(), s.end());
      w.write_chunk(s);
    }
    const auto fin = w.finish();
    ASSERT_TRUE(fin.ok()) << fin.message();
    EXPECT_EQ(w.samples_written(), written.size());
    // 7 chunks at 50 samples, rotation at >=100: segments of 2/2/2/1
    // chunks, all sealed by finish().
    EXPECT_EQ(w.segments_sealed(), 4u);
  }

  auto opened = stream::SegmentedTraceReader::open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.message();
  stream::SegmentedTraceReader reader = std::move(opened).value();
  EXPECT_EQ(reader.report().sealed_segments, 4u);
  EXPECT_FALSE(reader.report().torn_tail);
  ASSERT_EQ(reader.markers().size(), 2u);
  EXPECT_EQ(reader.markers()[1].sample_offset, 9000u);
  EXPECT_EQ(reader.meta().total_samples, written.size());

  const std::vector<dsp::Complex> got = read_all(reader);
  ASSERT_EQ(got.size(), written.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], written[i]) << "sample " << i;
  }
  EXPECT_EQ(reader.stats().total_errors(), 0u);
}

TEST_F(SegmentDir, TimeBasedRotationIsDeterministic) {
  stream::SegmentPolicy policy;
  policy.segment_samples = 0;
  // 4 MHz sample rate: 100 us of capture time = 400 samples.
  policy.segment_seconds = 100e-6;
  stream::SegmentedTraceWriter w(dir_, meta(), {}, policy);
  for (int c = 0; c < 8; ++c) w.write_chunk(ramp(200, 0));
  const auto fin = w.finish();
  ASSERT_TRUE(fin.ok()) << fin.message();
  // Rotation fires at chunk boundaries once >= 400 samples: 2 chunks
  // per segment, 8 chunks -> 4 sealed segments. Wall clock never
  // enters the decision.
  EXPECT_EQ(w.segments_sealed(), 4u);
}

TEST_F(SegmentDir, FsyncPoliciesProduceIdenticalSealedBytes) {
  std::vector<std::string> contents;
  for (const stream::FsyncPolicy p :
       {stream::FsyncPolicy::kNone, stream::FsyncPolicy::kOnSeal,
        stream::FsyncPolicy::kEveryChunk}) {
    fs::remove_all(dir_);
    stream::SegmentPolicy policy;
    policy.segment_samples = 100;
    policy.fsync = p;
    stream::SegmentedTraceWriter w(dir_, meta(), markers(), policy);
    for (int c = 0; c < 5; ++c) w.write_chunk(ramp(50, 50u * c));
    const auto fin = w.finish();
    ASSERT_TRUE(fin.ok()) << fin.message();
    std::string all;
    for (std::uint64_t i = 0; i < w.segments_sealed(); ++i) {
      all += fault::read_file(
          dir_ + "/" + stream::SegmentedTraceWriter::segment_name(i));
    }
    contents.push_back(std::move(all));
  }
  // Durability policy changes *when* bytes reach the disk, never which
  // bytes: all three runs must be byte-identical.
  EXPECT_EQ(contents[0], contents[1]);
  EXPECT_EQ(contents[0], contents[2]);
}

TEST(FsyncPolicyNames, CoverEveryEnumerator) {
  EXPECT_STREQ(stream::to_string(stream::FsyncPolicy::kNone), "none");
  EXPECT_STREQ(stream::to_string(stream::FsyncPolicy::kOnSeal), "on-seal");
  EXPECT_STREQ(stream::to_string(stream::FsyncPolicy::kEveryChunk),
               "every-chunk");
}

TEST_F(SegmentDir, MergeProducesOnePlainServableTrace) {
  stream::SegmentPolicy policy;
  policy.segment_samples = 100;
  std::vector<dsp::Complex> written;
  {
    stream::SegmentedTraceWriter w(dir_, meta(), markers(), policy);
    for (int c = 0; c < 6; ++c) {
      const dsp::Signal s = ramp(50, written.size());
      written.insert(written.end(), s.begin(), s.end());
      w.write_chunk(s);
    }
    const auto fin = w.finish();
    ASSERT_TRUE(fin.ok()) << fin.message();
  }
  const std::string out_path = dir_ + ".merged.sytrc";
  auto merged = stream::merge_segments(dir_, out_path);
  ASSERT_TRUE(merged.ok()) << merged.message();
  EXPECT_EQ(merged.value().salvaged_samples, written.size());

  auto opened = stream::TraceReader::open(out_path);
  ASSERT_TRUE(opened.ok()) << opened.message();
  stream::TraceReader reader = std::move(opened).value();
  EXPECT_EQ(reader.meta().total_samples, written.size());
  ASSERT_EQ(reader.markers().size(), 2u);
  std::vector<dsp::Complex> got;
  dsp::Signal chunk;
  while (reader.next_chunk(chunk) == stream::ChunkStatus::kOk) {
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(got.size(), written.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], written[i]) << "sample " << i;
  }
  std::remove(out_path.c_str());
}

// ------------------------------------ torn tail at every byte offset

TEST_F(SegmentDir, TornTailSalvagesValidPrefixAtEveryByteOffset) {
  // Two sealed segments via the real writer...
  stream::SegmentPolicy policy;
  policy.segment_samples = 100;
  std::vector<dsp::Complex> sealed_samples;
  {
    stream::SegmentedTraceWriter w(dir_, meta(), markers(), policy);
    for (int c = 0; c < 4; ++c) {
      const dsp::Signal s = ramp(50, sealed_samples.size());
      sealed_samples.insert(sealed_samples.end(), s.begin(), s.end());
      w.write_chunk(s);
    }
    const auto fin = w.finish();
    ASSERT_TRUE(fin.ok()) << fin.message();
    ASSERT_EQ(w.segments_sealed(), 2u);
  }

  // ...then a torn tail, captured exactly as a crash leaves it: the
  // TraceWriter flushed its chunks but never patched the header total
  // (flush() then read the bytes *before* close runs).
  const std::string tail_tmp = dir_ + "/tail_build.sytrc";
  std::string tail_bytes;
  {
    stream::TraceWriter w(tail_tmp, meta());
    for (int c = 0; c < 3; ++c) w.write_chunk(ramp(40, 1000u + 40u * c));
    ASSERT_TRUE(w.flush());
    tail_bytes = fault::read_file(tail_tmp);
  }
  // The closed file has identical layout (only the patched total
  // differs), so its record map gives the expected prefix per cut.
  const fault::TraceLayout layout =
      fault::parse_trace_layout(fault::read_file(tail_tmp));
  std::remove(tail_tmp.c_str());
  ASSERT_EQ(layout.chunks.size(), 3u);

  const std::string tail_path = dir_ + "/seg-000002.sytrc.tmp";
  for (std::size_t cut = 0; cut <= tail_bytes.size(); ++cut) {
    fault::write_file(tail_path, std::string_view(tail_bytes).substr(0, cut));

    auto scanned = stream::scan_segments(dir_);
    ASSERT_TRUE(scanned.ok()) << "cut " << cut << ": " << scanned.message();
    const stream::RecoveryReport& rep = scanned.value();
    ASSERT_EQ(rep.segments.size(), 3u) << "cut " << cut;
    EXPECT_TRUE(rep.torn_tail) << "cut " << cut;
    EXPECT_EQ(rep.sealed_segments, 2u) << "cut " << cut;

    // Sealed segments salvage bit-exactly regardless of the tail.
    std::uint64_t sealed_salvage = 0;
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(rep.segments[i].complete) << "cut " << cut << " seg " << i;
      sealed_salvage += rep.segments[i].samples;
    }
    EXPECT_EQ(sealed_salvage, sealed_samples.size()) << "cut " << cut;

    // The tail salvages exactly the chunks whose records are fully
    // inside the cut — the valid prefix, nothing more.
    std::uint64_t expect_tail = 0;
    for (const fault::ChunkRecordInfo& c : layout.chunks) {
      if (c.offset + c.record_bytes <= cut) {
        expect_tail += c.n_samples;
      }
    }
    if (cut < layout.header_bytes) {
      // Header torn: the tail is unreadable, salvage is zero.
      EXPECT_FALSE(rep.segments[2].readable) << "cut " << cut;
      expect_tail = 0;
    }
    EXPECT_EQ(rep.segments[2].samples, expect_tail) << "cut " << cut;
    EXPECT_EQ(rep.salvaged_samples, sealed_salvage + expect_tail)
        << "cut " << cut;
  }
  std::remove(tail_path.c_str());
}

TEST_F(SegmentDir, RecoveryReportTextCarriesTheDocumentedKeys) {
  stream::SegmentPolicy policy;
  policy.segment_samples = 100;
  stream::SegmentedTraceWriter w(dir_, meta(), markers(), policy);
  for (int c = 0; c < 3; ++c) w.write_chunk(ramp(50, 0));
  ASSERT_TRUE(w.finish().ok());
  auto scanned = stream::scan_segments(dir_);
  ASSERT_TRUE(scanned.ok()) << scanned.message();
  const std::string text = scanned.value().to_text();
  for (const char* key :
       {"segments", "sealed_segments", "torn_tail", "salvaged_samples",
        "markers", "segment.0.sealed", "segment.0.complete",
        "segment.0.samples"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key << "\n" << text;
  }
}

// ------------------------------------------------- degradation ladder

TEST(DegradationLadder, EscalatesAfterSustainedPressureOnly) {
  gateway::DegradationConfig cfg;
  cfg.lag_high_ms = 5000;
  cfg.lag_low_ms = 1000;
  cfg.escalate_after = 2;
  cfg.deescalate_after = 3;
  gateway::DegradationLadder ladder(cfg);

  // One chunk with the backlog lag at/above lag_high_ms is not enough
  // (a spike must be *sustained*).
  EXPECT_FALSE(ladder.update(8000));
  EXPECT_EQ(ladder.level(), gateway::DegradationLevel::kHealthy);
  // The second consecutive hot chunk escalates one level.
  EXPECT_TRUE(ladder.update(8000));
  EXPECT_EQ(ladder.level(), gateway::DegradationLevel::kReduceSic);
  // A mid-band lag (between the watermarks) resets the hot streak.
  EXPECT_FALSE(ladder.update(3000));
  EXPECT_FALSE(ladder.update(8000));
  EXPECT_EQ(ladder.level(), gateway::DegradationLevel::kReduceSic);
  EXPECT_TRUE(ladder.update(8000));
  EXPECT_EQ(ladder.level(), gateway::DegradationLevel::kShedRescans);

  // Escalation saturates at the last rung.
  for (int i = 0; i < 10; ++i) ladder.update(8000);
  EXPECT_EQ(ladder.level(), gateway::DegradationLevel::kDropSpans);

  // Cooling needs deescalate_after consecutive chunks with the lag
  // at/below lag_low_ms.
  EXPECT_FALSE(ladder.update(500));
  EXPECT_FALSE(ladder.update(500));
  EXPECT_TRUE(ladder.update(500));
  EXPECT_EQ(ladder.level(), gateway::DegradationLevel::kShedRescans);
  // The mid band holds the level (hysteresis: no flapping).
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(ladder.update(3000));
  EXPECT_EQ(ladder.level(), gateway::DegradationLevel::kShedRescans);
}

TEST(DegradationLadder, LatencySignalGatesOnlyWhenConfigured) {
  gateway::DegradationConfig cfg;
  cfg.escalate_after = 1;
  // Lag watermarks unset: the ladder is off and never escalates.
  gateway::DegradationLadder off(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(off.update(1u << 30));
  EXPECT_EQ(off.level(), gateway::DegradationLevel::kHealthy);
  EXPECT_EQ(off.transitions(), 0u);

  cfg.lag_high_ms = 5000;
  cfg.lag_low_ms = 1000;
  cfg.deescalate_after = 1;
  gateway::DegradationLadder with_lat(cfg);
  EXPECT_TRUE(with_lat.update(6000));
  EXPECT_EQ(with_lat.level(), gateway::DegradationLevel::kReduceSic);
  // A lag that left the hot band but not the mid band holds the level;
  // only a chunk at/below lag_low_ms cools it.
  EXPECT_FALSE(with_lat.update(1001));
  EXPECT_EQ(with_lat.level(), gateway::DegradationLevel::kReduceSic);
  EXPECT_TRUE(with_lat.update(1000));
  EXPECT_EQ(with_lat.level(), gateway::DegradationLevel::kHealthy);
}

TEST(DegradationLadder, SamePollSequenceSameTransitions) {
  gateway::DegradationConfig cfg;
  cfg.lag_high_ms = 80'000;
  cfg.lag_low_ms = 20'000;
  cfg.escalate_after = 2;
  cfg.deescalate_after = 2;
  // A fixed chaos seed drives a fixed backlog-lag sequence, one value
  // per dequeued chunk (a stall of N ms is fed as a lag of 1000·N ms);
  // the ladder must walk the exact same levels both times.
  const fault::ChaosConfig chaos_cfg{.seed = 77, .stall_rate = 0.5};
  const fault::ChaosScheduler chaos(chaos_cfg);
  std::vector<std::uint32_t> walk1, walk2;
  for (std::vector<std::uint32_t>* walk : {&walk1, &walk2}) {
    gateway::DegradationLadder ladder(cfg);
    for (std::uint64_t poll = 0; poll < 200; ++poll) {
      ladder.update(chaos.stall_ms(0, poll) * 1000);
      walk->push_back(static_cast<std::uint32_t>(ladder.level()));
    }
  }
  EXPECT_EQ(walk1, walk2);
  // The pressure sequence must actually exercise the ladder.
  EXPECT_GT(*std::max_element(walk1.begin(), walk1.end()), 0u);
}

// ----------------------------------------------------- chaos scheduler

TEST(ChaosScheduler, IsAPureFunctionOfSeedAndCoordinates) {
  fault::ChaosConfig cfg;
  cfg.seed = 42;
  cfg.stall_rate = 0.3;
  cfg.slow_frame_rate = 0.2;
  const fault::ChaosScheduler a(cfg);
  const fault::ChaosScheduler b(cfg);
  // Probe b in reverse first: a stateless schedule cannot care about
  // query order (the property that makes chaos thread-order safe).
  std::vector<std::uint64_t> reversed;
  for (std::uint32_t w = 4; w-- > 0;) {
    for (std::uint64_t c = 256; c-- > 0;) {
      reversed.push_back(b.stall_ms(w, c));
    }
  }
  bool any_stall = false;
  for (std::uint32_t w = 0; w < 4; ++w) {
    for (std::uint64_t c = 0; c < 256; ++c) {
      EXPECT_EQ(a.stall_ms(w, c),
                reversed[(3 - w) * 256 + (255 - c)]);
      EXPECT_EQ(a.stall_ms(w, c), b.stall_ms(w, c));
      any_stall |= a.stall_ms(w, c) != 0;
      if (a.stall_ms(w, c) != 0) {
        EXPECT_GE(a.stall_ms(w, c), cfg.stall_min_ms);
        EXPECT_LE(a.stall_ms(w, c), cfg.stall_max_ms);
      }
    }
  }
  EXPECT_TRUE(any_stall);

  fault::ChaosConfig other = cfg;
  other.seed = 43;
  const fault::ChaosScheduler c(other);
  std::size_t diffs = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    diffs += a.stall_ms(0, i) != c.stall_ms(0, i) ? 1 : 0;
  }
  EXPECT_GT(diffs, 0u) << "different seeds must give different schedules";
}

TEST(ChaosScheduler, DisabledLanesAreSilent) {
  fault::ChaosConfig cfg;  // all rates default to 0
  cfg.seed = 9;
  const fault::ChaosScheduler chaos(cfg);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(chaos.stall_ms(0, i), 0u);
    EXPECT_EQ(chaos.subscriber_delay_ms(i), 0u);
  }
  EXPECT_EQ(chaos.kill_point(100), 100u) << "kill disabled -> never";
}

TEST(ChaosScheduler, KillPointLandsInTheBackHalf) {
  fault::ChaosConfig cfg;
  cfg.seed = 5;
  cfg.kill_while_recording = true;
  const fault::ChaosScheduler chaos(cfg);
  for (std::uint64_t total : {1ull, 2ull, 17ull, 1000ull}) {
    const std::uint64_t k = chaos.kill_point(total);
    EXPECT_GE(k, total / 2) << total;
    EXPECT_LT(k, total) << total;
    EXPECT_EQ(k, chaos.kill_point(total)) << "must be deterministic";
  }
  EXPECT_EQ(chaos.kill_point(0), 0u);
}

}  // namespace
}  // namespace saiyan
