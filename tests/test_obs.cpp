// Observability subsystem tests (ctest label: unit).
//
// Covers the flight-recorder contract end to end: log2 histogram
// bucket edges and interpolated quantiles, the per-thread trace ring
// (drop-and-count overwrite, torn-read-free snapshots, Chrome JSON
// shape and byte-budget trimming), ScopedTimer's histogram/timeline
// split, the Prometheus writer's exposition invariants, and — the
// load-bearing one — that attaching stage metrics and enabling
// tracing never changes what the streaming demodulator decodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "gateway/gateway_metrics.hpp"
#include "gateway/gateway_stats.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/prometheus.hpp"
#include "obs/stage_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "sim/capture.hpp"
#include "stream/ingest_stats.hpp"
#include "stream/streaming_demod.hpp"

namespace saiyan {
namespace {

// ------------------------------------------------------------ histogram

TEST(LatencyHistogram, BucketEdgesArePowerOfTwoRanges) {
  using H = obs::LatencyHistogram;
  // Bucket 0 holds exactly {0}; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(H::bucket_lower_us(0), 0u);
  EXPECT_EQ(H::bucket_upper_us(0), 0u);
  EXPECT_EQ(H::bucket_lower_us(1), 1u);
  EXPECT_EQ(H::bucket_upper_us(1), 1u);
  EXPECT_EQ(H::bucket_lower_us(7), 64u);
  EXPECT_EQ(H::bucket_upper_us(7), 127u);
  // Edges tile the axis with no gap or overlap.
  for (std::size_t i = 1; i + 1 < H::kBuckets; ++i) {
    EXPECT_EQ(H::bucket_lower_us(i), H::bucket_upper_us(i - 1) + 1);
  }
  // The last bucket is open-ended.
  EXPECT_EQ(H::bucket_upper_us(H::kBuckets - 1), ~std::uint64_t{0});
}

TEST(LatencyHistogram, RecordLandsInBitWidthBucket) {
  obs::LatencyHistogram h;
  h.record(0);
  h.record(1);
  h.record(127);
  h.record(128);
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> counts;
  h.snapshot_counts(counts);
  EXPECT_EQ(counts[0], 1u);  // 0
  EXPECT_EQ(counts[1], 1u);  // 1
  EXPECT_EQ(counts[7], 1u);  // 127 -> [64,127]
  EXPECT_EQ(counts[8], 1u);  // 128 -> [128,255]
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.sum_us(), 256u);
  EXPECT_EQ(h.max_us(), 128u);
}

TEST(LatencyHistogram, QuantileInterpolatesInsideBucket) {
  obs::LatencyHistogram h;
  // 100 samples all in bucket [64,127]: p0..p100 sweep the bucket
  // linearly instead of all collapsing onto the upper edge.
  for (int i = 0; i < 100; ++i) h.record(100);
  const std::uint64_t p50 = h.quantile_us(0.5);
  EXPECT_GE(p50, 64u);
  EXPECT_LE(p50, 127u);
  EXPECT_LT(h.quantile_us(0.01), h.quantile_us(0.99));
}

TEST(LatencyHistogram, QuantileEdgeCases) {
  obs::LatencyHistogram empty;
  EXPECT_EQ(empty.quantile_us(0.5), 0u);

  // All-zero samples: first bucket degenerates to its single edge.
  obs::LatencyHistogram zeros;
  for (int i = 0; i < 10; ++i) zeros.record(0);
  EXPECT_EQ(zeros.quantile_us(0.99), 0u);

  // A sample past the last finite edge clamps into the open-ended
  // bucket, which reports its lower edge instead of interpolating
  // toward infinity.
  obs::LatencyHistogram huge;
  huge.record(~std::uint64_t{0});
  EXPECT_EQ(huge.quantile_us(0.5),
            obs::LatencyHistogram::bucket_lower_us(
                obs::LatencyHistogram::kBuckets - 1));
  // Out-of-range q is clamped, not UB.
  EXPECT_EQ(huge.quantile_us(-1.0), huge.quantile_us(0.0));
  EXPECT_EQ(huge.quantile_us(2.0), huge.quantile_us(1.0));
}

TEST(LatencyHistogram, SaturationFlagCountsOpenEndedBucket) {
  // The open-ended bucket silently clamps quantiles to its lower edge
  // (previous test); saturated_count() is the operator-visible flag
  // that this clamping is happening.
  obs::LatencyHistogram h;
  EXPECT_EQ(h.saturated_count(), 0u);
  for (int i = 0; i < 100; ++i) h.record(100);
  EXPECT_EQ(h.saturated_count(), 0u);
  h.record(~std::uint64_t{0});
  h.record(obs::LatencyHistogram::bucket_lower_us(
      obs::LatencyHistogram::kBuckets - 1));
  EXPECT_EQ(h.saturated_count(), 2u);
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> counts;
  h.snapshot_counts(counts);
  EXPECT_EQ(obs::LatencyHistogram::saturated_from_counts(counts), 2u);
}

TEST(StageMetrics, NamesAndRouting) {
  obs::StageMetrics m;
  m.record(obs::Stage::kScan, 5);
  m.record(obs::Stage::kDeliver, 7);
  EXPECT_EQ(m.histogram(obs::Stage::kScan).total(), 1u);
  EXPECT_EQ(m.histogram(obs::Stage::kDeliver).sum_us(), 7u);
  EXPECT_EQ(m.histogram(obs::Stage::kDecode).total(), 0u);
  EXPECT_STREQ(obs::to_string(obs::Stage::kScan), "scan");
  EXPECT_STREQ(obs::to_string(obs::Stage::kSicCancel), "sic_cancel");
  EXPECT_STREQ(obs::to_string(obs::Stage::kGapRealign), "gap_realign");
}

// Concurrent writers against one reader: the writer always records
// scan before decode, so any coherent view has scan >= decode.
TEST(StageMetrics, WaitFreeUnderConcurrentWriters) {
  obs::StageMetrics m;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      m.record(obs::Stage::kScan, 3);
      m.record(obs::Stage::kDecode, 9);
    }
  });
  for (int i = 0; i < 20000; ++i) {
    ASSERT_GE(m.histogram(obs::Stage::kScan).total(),
              m.histogram(obs::Stage::kDecode).total());
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(m.histogram(obs::Stage::kScan).total(),
            m.histogram(obs::Stage::kDecode).total());
}

// ----------------------------------------------------------- trace ring

#if SAIYAN_TRACING

/// Every ring test starts from an empty registry and leaves tracing
/// disabled, so ordering between tests (and with the rest of the
/// binary) doesn't matter.
class TraceRing : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_for_test();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_for_test();
  }
};

TEST_F(TraceRing, RecordsEventsInOrder) {
  obs::set_thread_name("tester");
  obs::trace_begin("job");
  obs::trace_instant("tick");
  obs::trace_end("job");
  const auto snap = obs::snapshot_all();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].thread_name, "tester");
  EXPECT_TRUE(snap[0].alive);
  EXPECT_EQ(snap[0].dropped, 0u);
  ASSERT_EQ(snap[0].events.size(), 3u);
  EXPECT_EQ(snap[0].events[0].phase, 'B');
  EXPECT_EQ(snap[0].events[1].phase, 'i');
  EXPECT_EQ(snap[0].events[2].phase, 'E');
  EXPECT_STREQ(snap[0].events[1].name, "tick");
  EXPECT_LE(snap[0].events[0].ts_us, snap[0].events[2].ts_us);
}

TEST_F(TraceRing, DisabledEmissionIsInvisible) {
  obs::set_enabled(false);
  obs::trace_instant("ghost");
  obs::trace_begin("ghost");
  obs::trace_end("ghost");
  EXPECT_TRUE(obs::snapshot_all().empty());
  EXPECT_EQ(obs::events_dropped_total(), 0u);
}

TEST_F(TraceRing, OverflowDropsOldestAndCounts) {
  obs::set_thread_name("flood");
  constexpr int kEmit = 10000;  // > ring capacity
  for (int i = 0; i < kEmit; ++i) obs::trace_instant("e");
  const auto snap = obs::snapshot_all();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_GT(snap[0].dropped, 0u);
  EXPECT_LT(snap[0].events.size(), static_cast<std::size_t>(kEmit));
  EXPECT_GT(snap[0].events.size(), 0u);
  EXPECT_EQ(snap[0].dropped + snap[0].events.size(),
            static_cast<std::uint64_t>(kEmit));
  // The global counter tracks overwritten-ever; the snapshot's dropped
  // additionally counts the conservatively-discarded copy window.
  EXPECT_GT(obs::events_dropped_total(), 0u);
  EXPECT_LE(obs::events_dropped_total(), snap[0].dropped);
  // Surviving events are the newest, still in order.
  for (std::size_t i = 1; i < snap[0].events.size(); ++i) {
    EXPECT_LE(snap[0].events[i - 1].ts_us, snap[0].events[i].ts_us);
  }
}

TEST_F(TraceRing, DeadThreadRingSurvives) {
  std::thread t([] {
    obs::set_thread_name("shortlived");
    obs::trace_instant("from-the-grave");
  });
  t.join();
  const auto snap = obs::snapshot_all();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].thread_name, "shortlived");
  EXPECT_FALSE(snap[0].alive);
  ASSERT_EQ(snap[0].events.size(), 1u);
  EXPECT_STREQ(snap[0].events[0].name, "from-the-grave");
}

TEST_F(TraceRing, ScopedTimerFeedsHistogramAndTimeline) {
  obs::LatencyHistogram hist;
  obs::set_thread_name("timer");
  { obs::ScopedTimer t("span", &hist); }
  EXPECT_EQ(hist.total(), 1u);
  auto snap = obs::snapshot_all();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].events.size(), 1u);
  EXPECT_EQ(snap[0].events[0].phase, 'X');
  EXPECT_STREQ(snap[0].events[0].name, "span");

  // Tracing off: the histogram still records, the timeline does not.
  obs::set_enabled(false);
  { obs::ScopedTimer t("dark", &hist); }
  obs::set_enabled(true);
  EXPECT_EQ(hist.total(), 2u);
  snap = obs::snapshot_all();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].events.size(), 1u);
}

TEST_F(TraceRing, ChromeJsonShape) {
  obs::set_thread_name("jsonthread");
  obs::trace_begin("work");
  obs::trace_instant("blip");
  obs::trace_end("work");
  { obs::ScopedTimer t("scoped"); }
  const std::string json = obs::chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"saiyan-gateway\""), std::string::npos);
  EXPECT_NE(json.find("\"jsonthread\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // Structurally valid: brackets and quotes balance.
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceRing, ChromeJsonHonorsByteBudget) {
  obs::set_thread_name("big");
  for (int i = 0; i < 4000; ++i) obs::trace_instant("event-with-a-name");
  const std::string full = obs::chrome_trace_json();
  const std::size_t budget = full.size() / 4;
  const std::string trimmed = obs::chrome_trace_json(budget);
  EXPECT_LE(trimmed.size(), budget);
  // Still valid JSON with the metadata intact.
  EXPECT_EQ(trimmed.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trimmed.find("\"saiyan-gateway\""), std::string::npos);
  long depth = 0;
  for (const char c : trimmed) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceRing, JsonEscapesThreadNames) {
  obs::set_thread_name("quote\"back\\slash");
  obs::trace_instant("e");
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

#endif  // SAIYAN_TRACING

// ----------------------------------------------------------- prometheus

TEST(Prometheus, WriterEmitsHeadersOncePerFamily) {
  obs::PromWriter w;
  w.family("saiyan_jobs_total", "Jobs.", "counter");
  w.sample("saiyan_jobs_total", "worker=\"0\"", std::uint64_t{3});
  w.family("saiyan_jobs_total", "Jobs.", "counter");  // dedup
  w.sample("saiyan_jobs_total", "worker=\"1\"", std::uint64_t{4});
  w.family("saiyan_uptime_seconds", "Uptime.", "gauge");
  w.sample("saiyan_uptime_seconds", "", 1.5);
  const std::string& out = w.str();
  std::size_t n = 0;
  for (std::size_t p = out.find("# HELP saiyan_jobs_total");
       p != std::string::npos;
       p = out.find("# HELP saiyan_jobs_total", p + 1)) {
    ++n;
  }
  EXPECT_EQ(n, 1u);
  EXPECT_NE(out.find("saiyan_jobs_total{worker=\"0\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("saiyan_jobs_total{worker=\"1\"} 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE saiyan_uptime_seconds gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("saiyan_uptime_seconds 1.5\n"), std::string::npos);
}

TEST(Prometheus, HistogramSeriesIsCumulativeAndEndsAtInf) {
  obs::LatencyHistogram h;
  h.record(0);
  h.record(100);
  h.record(100);
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> counts;
  h.snapshot_counts(counts);
  obs::PromWriter w;
  w.family("saiyan_lat", "Latency.", "histogram");
  w.histogram("saiyan_lat", "stage=\"scan\"", counts, h.sum_us());
  const std::string& out = w.str();
  EXPECT_NE(out.find("saiyan_lat_bucket{stage=\"scan\",le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("saiyan_lat_bucket{stage=\"scan\",le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("saiyan_lat_bucket{stage=\"scan\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("saiyan_lat_sum{stage=\"scan\"} 200\n"),
            std::string::npos);
  EXPECT_NE(out.find("saiyan_lat_count{stage=\"scan\"} 3\n"),
            std::string::npos);
  // Cumulative counts never decrease along the le series.
  std::uint64_t prev = 0;
  for (std::size_t p = out.find("_bucket{"); p != std::string::npos;
       p = out.find("_bucket{", p + 1)) {
    const std::size_t sp = out.rfind(' ', out.find('\n', p));
    const std::uint64_t v = std::stoull(out.substr(sp + 1));
    ASSERT_GE(v, prev);
    prev = v;
  }
}

// Golden-shape test of the full gateway exporter against a synthetic
// snapshot: every family the docs promise, well-formed exposition.
TEST(Prometheus, GatewayStatsExport) {
  gateway::GatewayStats s;
  s.workers = 2;
  s.jobs_done = 7;
  s.frames_decoded = 41;
  s.uptime_s = 2.5;
  s.per_worker.resize(2);
  s.per_worker[0].frames = 40;
  s.per_worker[0].jobs = 6;
  s.per_worker[1].frames = 1;
  s.per_worker[1].jobs = 1;
  s.latency_count = 3;
  s.latency_sum_us = 300;
  s.latency_buckets[7] = 3;  // three ~100us frames
  gateway::StageLatencySnapshot st;
  st.stage = "decode";
  st.count = 5;
  st.sum_us = 50;
  st.buckets[4] = 5;
  s.stages.push_back(st);
  s.ingest.chunks_ok = 11;

  const std::string out = gateway::to_prometheus(s);
  for (const char* needle :
       {"# TYPE saiyan_uptime_seconds gauge", "saiyan_uptime_seconds 2.5",
        "# TYPE saiyan_jobs_done_total counter", "saiyan_jobs_done_total 7",
        "saiyan_frames_decoded_total 41",
        "saiyan_ingest_events_total{kind=\"chunks_ok\"} 11",
        "# TYPE saiyan_frame_latency_microseconds histogram",
        "saiyan_frame_latency_microseconds_count 3",
        "saiyan_stage_latency_microseconds_bucket{stage=\"decode\",le=\"15\"} "
        "5",
        "saiyan_stage_latency_microseconds_count{stage=\"decode\"} 5",
        "saiyan_worker_frames_total{worker=\"0\"} 40",
        "saiyan_worker_jobs_total{worker=\"1\"} 1"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << "missing: " << needle;
  }
  // Exposition-format line discipline: every line is a comment or
  // `name{labels} value`, and HELP/TYPE precede their family's samples.
  std::size_t pos = 0;
  std::string seen_type_for;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::string line = out.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# ", 0) == 0) {
      ASSERT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string value = line.substr(sp + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(end, value.c_str() + value.size()) << line;
  }
}

// A snapshot with every scalar distinct and nonzero: 2 workers, 2
// stages, 4 links against a top-K of 2, a valid noise floor and every
// ingest error class counted. A getter wired to the wrong field, or a
// field dropped from one renderer, changes the rendered lines.
gateway::GatewayStats full_stats() {
  gateway::GatewayStats s;
  s.uptime_s = 12.5;
  s.workers = 2;
  s.subscribers = 3;
  s.jobs_enqueued = 101;
  s.jobs_done = 102;
  s.jobs_failed = 103;
  s.streams_open = 104;
  s.config_reloads = 105;
  s.frames_decoded = 106;
  s.symbols_decoded = 107;
  s.truncated_frames = 108;
  s.samples_consumed = 109;
  s.chunks_ingested = 110;
  s.markers_expected = 111;
  s.frames_per_sec = 7.25;
  s.msamples_per_sec = 1.125;
  s.latency_p50_us = 112;
  s.latency_p99_us = 113;
  s.latency_max_us = 114;
  s.latency_buckets[6] = 20;
  s.latency_buckets[7] = 95;
  s.latency_buckets[obs::LatencyHistogram::kBuckets - 1] = 1;
  s.latency_count = 116;
  s.latency_sum_us = 117;
  s.latency_saturated = 118;
  const char* names[] = {"scan", "decode"};
  for (std::uint64_t i = 0; i < 2; ++i) {
    gateway::StageLatencySnapshot st;
    st.stage = names[i];
    st.count = 201 + 10 * i;
    st.sum_us = 202 + 10 * i;
    st.p50_us = 203 + 10 * i;
    st.p99_us = 204 + 10 * i;
    st.max_us = 205 + 10 * i;
    st.saturated = 206 + 10 * i;
    st.buckets[3 + i] = 207 + 10 * i;
    st.buckets[obs::LatencyHistogram::kBuckets - 1] = 208 + 10 * i;
    s.stages.push_back(st);
  }
  s.trace_events_dropped = 119;
  s.watchdog_cancels = 120;
  s.deadline_cancels = 121;
  s.degradation_level = 2;
  s.degradation_transitions = 122;
  std::uint64_t v = 301;
  for (std::uint64_t* f :
       {&s.ingest.chunks_ok, &s.ingest.chunks_corrupt, &s.ingest.resyncs,
        &s.ingest.bytes_skipped, &s.ingest.samples_lost, &s.ingest.gaps,
        &s.ingest.gap_samples, &s.ingest.spans_dropped, &s.ingest.sic_shed,
        &s.ingest.rescans_dropped, &s.ingest.rescans_expired,
        &s.ingest.spans_shed, &s.ingest.frames_dropped_subscriber,
        &s.ingest.jobs_cancelled}) {
    *f = v++;
  }
  for (std::size_t i = 1; i < s.ingest.errors.size(); ++i) {
    s.ingest.errors[i] = 400 + i;
  }
  s.ingest.last_error = stream::IngestError::kChunkCrc;
  s.per_worker.resize(2);
  for (std::uint64_t i = 0; i < 2; ++i) {
    gateway::WorkerSnapshot& w = s.per_worker[i];
    w.frames = 501 + 10 * i;
    w.symbols = 502 + 10 * i;
    w.samples = 503 + 10 * i;
    w.chunks = 504 + 10 * i;
    w.jobs = 505 + 10 * i;
    w.truncated = 506 + 10 * i;
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    obs::LinkSnapshot l;
    l.tag_id = 7 + i;
    l.channel = i % 2;
    l.frames = 40 - 3 * i;
    l.ewma_snr_db = 10.5 + i;
    s.links.links.push_back(l);
  }
  s.links.frames_total = 123;
  s.links.evictions = 124;
  s.links.capacity = 125;
  s.links.noise_floor_dbm = -97.5;
  s.links.noise_floor_valid = true;
  s.link_top_k = 2;
  return s;
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    out.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string read_golden(const char* name) {
  const std::string path = std::string(SAIYAN_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The stats text and the Prometheus exposition of one fully populated
// snapshot, pinned line for line (order-insensitive). The goldens hold
// sorted lines; a renamed key, a changed help string or a value read
// from the wrong field shows up as a differing line.
TEST(Prometheus, GatewayStatsRendersGoldenTextAndExposition) {
  const gateway::GatewayStats s = full_stats();
  for (const auto& [name, rendered] :
       {std::pair<const char*, std::string>{"gateway_stats.txt", s.to_text()},
        {"gateway_stats.prom", gateway::to_prometheus(s)}}) {
    const std::vector<std::string> got = sorted_lines(rendered);
    const std::vector<std::string> want = sorted_lines(read_golden(name));
    EXPECT_EQ(got, want) << name;
  }

  // Before the first idle span the text omits the floor and the
  // exposition reports the -200 sentinel.
  gateway::GatewayStats cold = s;
  cold.links.noise_floor_valid = false;
  EXPECT_EQ(cold.to_text().find("noise_floor_dbm"), std::string::npos);
  const std::string prom = gateway::to_prometheus(cold);
  EXPECT_NE(prom.find("\nsaiyan_noise_floor_db -200\n"), std::string::npos);
  EXPECT_NE(prom.find("\nsaiyan_noise_floor_valid 0\n"), std::string::npos);
}

// Each kIngestCounters row, set alone, is summed by merge() into its
// own field only, and renders under its own name in the stats text
// and the exposition.
TEST(Prometheus, EveryIngestCounterRendersUnderItsOwnName) {
  for (std::size_t i = 0; i < std::size(stream::kIngestCounters); ++i) {
    const stream::IngestCounter& c = stream::kIngestCounters[i];
    const std::uint64_t v = 1000 + i;
    gateway::GatewayStats s;
    s.ingest.*c.field = v;
    stream::IngestStats merged;
    merged.merge(s.ingest);
    merged.merge(s.ingest);
    for (const stream::IngestCounter& o : stream::kIngestCounters) {
      EXPECT_EQ(merged.*o.field, &o == &c ? 2 * v : 0)
          << c.name << "/" << o.name;
    }
    const std::string text = s.to_text();
    EXPECT_NE(text.find("\ningest." + std::string(c.name) + " " +
                        std::to_string(v) + "\n"),
              std::string::npos)
        << c.name;
    const std::string prom = gateway::to_prometheus(s);
    EXPECT_NE(prom.find("\nsaiyan_ingest_events_total{kind=\"" +
                        std::string(c.name) + "\"} " + std::to_string(v) +
                        "\n"),
              std::string::npos)
        << c.name;
  }
}

// ------------------------------------------- decode is observation-free

// Attaching stage metrics and (when compiled in) enabling the trace
// ring must not change a single decoded symbol: observability reads
// the pipeline, never steers it.
TEST(ObservedDecode, BitIdenticalWithTracingOnAndOff) {
  sim::CaptureConfig cfg;
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  cfg.saiyan = core::SaiyanConfig::make(p, core::Mode::kSuper);
  cfg.payload_symbols = 12;
  cfg.packets_per_tag = 2;
  cfg.seed = 77;
  cfg.tag_rss_dbm = {-55.0, -58.0};
  const sim::Capture cap = sim::generate_capture(cfg);

  struct Decoded {
    std::vector<stream::DecodedPacket> packets;
    std::vector<std::uint32_t> symbols;
  };
  auto run = [&](bool observe) {
    obs::StageMetrics metrics;
    stream::StreamConfig sc;
    sc.saiyan = cfg.saiyan;
    sc.payload_symbols = cfg.payload_symbols;
    if (observe) sc.stage_metrics = &metrics;
    stream::StreamingDemodulator demod(sc);
    std::span<const dsp::Complex> rest(cap.samples);
    while (!rest.empty()) {
      const std::size_t take = std::min<std::size_t>(8192, rest.size());
      demod.push(rest.first(take));
      rest = rest.subspan(take);
    }
    demod.finish();
    Decoded out;
    for (const auto& pkt : demod.packets()) {
      out.packets.push_back(pkt);
      const auto syms = demod.symbols(pkt);
      out.symbols.insert(out.symbols.end(), syms.begin(), syms.end());
    }
    if (observe) {
      EXPECT_GT(metrics.histogram(obs::Stage::kScan).total(), 0u);
      EXPECT_GT(metrics.histogram(obs::Stage::kDecode).total(), 0u);
    }
    return out;
  };

  const Decoded plain = run(false);
#if SAIYAN_TRACING
  obs::reset_for_test();
  obs::set_enabled(true);
#endif
  const Decoded observed = run(true);
#if SAIYAN_TRACING
  obs::set_enabled(false);
  obs::reset_for_test();
#endif

  ASSERT_GT(plain.packets.size(), 0u);
  ASSERT_EQ(observed.packets.size(), plain.packets.size());
  EXPECT_EQ(observed.symbols, plain.symbols);
  for (std::size_t i = 0; i < plain.packets.size(); ++i) {
    EXPECT_EQ(observed.packets[i].packet_start, plain.packets[i].packet_start);
    EXPECT_EQ(observed.packets[i].payload_start,
              plain.packets[i].payload_start);
    EXPECT_EQ(observed.packets[i].n_symbols, plain.packets[i].n_symbols);
    EXPECT_EQ(observed.packets[i].collided, plain.packets[i].collided);
    EXPECT_EQ(observed.packets[i].sic_assisted, plain.packets[i].sic_assisted);
  }
}

}  // namespace
}  // namespace saiyan
