// Gateway facade + daemon plumbing tests (ctest label: gateway).
//
// The load-bearing property is the sharding contract: a job runs on
// exactly one worker, so the gateway's decode output for a trace is
// bit-identical to an offline StreamingDemodulator pass at ANY worker
// count. Everything else — Result conventions, config validation with
// first-bad-field reporting, reload-without-loss, subscriber
// backpressure, the control wire codec — guards the API redesign this
// facade introduced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/result.hpp"
#include "daemon/control_protocol.hpp"
#include "daemon/daemon_config.hpp"
#include "fault/chaos.hpp"
#include "gateway/degradation.hpp"
#include "gateway/gateway.hpp"
#include "gateway/gateway_metrics.hpp"
#include "obs/seqlock.hpp"
#include "sim/capture.hpp"
#include "stream/streaming_demod.hpp"
#include "stream/trace.hpp"

namespace saiyan {
namespace {

lora::PhyParams phy() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  return p;
}

constexpr std::size_t kPayload = 16;

/// Nine frames from three tags at staggered RSS — fully decodable
/// offline, which the bit-identity tests assert before relying on it.
const sim::CaptureConfig& capture_cfg() {
  static const sim::CaptureConfig cfg = [] {
    sim::CaptureConfig c;
    c.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
    c.tag_rss_dbm = {-55.0, -58.0, -61.0};
    c.packets_per_tag = 3;
    c.payload_symbols = kPayload;
    c.seed = 7;
    return c;
  }();
  return cfg;
}

const sim::Capture& capture() {
  static const sim::Capture cap = sim::generate_capture(capture_cfg());
  return cap;
}

gateway::GatewayConfig base_config() {
  gateway::GatewayConfig cfg;
  cfg.stream.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.stream.payload_symbols = kPayload;
  cfg.chunk_samples = 8192;
  return cfg;
}

/// (start, symbols) pairs in offset order — the identity compared
/// across worker counts and against the offline reference.
using FrameKey = std::pair<std::uint64_t, std::vector<std::uint32_t>>;

std::vector<FrameKey> offline_reference(const std::string& trace_path,
                                        const gateway::GatewayConfig& cfg) {
  auto opened = stream::TraceReader::open(trace_path, cfg.resync);
  EXPECT_TRUE(opened.ok()) << opened.message();
  stream::TraceReader reader = std::move(opened).value();
  stream::StreamConfig sc = cfg.worker_stream_config();
  sc.saiyan = core::SaiyanConfig::make(reader.meta().phy, reader.meta().mode);
  sc.payload_symbols = reader.meta().payload_symbols;
  stream::StreamingDemodulator demod(sc);
  dsp::Signal chunk;
  for (;;) {
    const stream::ChunkStatus st = reader.next_chunk(chunk);
    if (st != stream::ChunkStatus::kOk) break;
    demod.push(chunk);
  }
  demod.finish();
  std::vector<FrameKey> out;
  for (const stream::DecodedPacket& p : demod.packets()) {
    const auto syms = demod.symbols(p);
    out.emplace_back(p.packet_start,
                     std::vector<std::uint32_t>(syms.begin(), syms.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class GatewayFile : public ::testing::Test {
 protected:
  void SetUp() override {
    std::snprintf(path_, sizeof(path_), "saiyan_gw_%s_%d.sytrc",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name(),
                  static_cast<int>(::getpid()));
    sim::write_capture(capture(), capture_cfg(), path_);
  }
  void TearDown() override { std::remove(path_); }

  char path_[128];
};

/// Thread-safe frame collector subscriber.
class Collector {
 public:
  gateway::FrameHandler handler() {
    return [this](const gateway::FrameRecord& fr) {
      std::lock_guard<std::mutex> lk(m_);
      frames_.push_back(fr);
    };
  }
  std::vector<gateway::FrameRecord> take() {
    std::lock_guard<std::mutex> lk(m_);
    return frames_;
  }

 private:
  std::mutex m_;
  std::vector<gateway::FrameRecord> frames_;
};

// ---------------------------------------------------------------- Result

TEST(Result, ValueAndErrorPaths) {
  saiyan::Result<int> good = 41;
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 41);
  EXPECT_EQ(good.value_or(-1), 41);
  EXPECT_TRUE(good.message().empty());

  saiyan::Result<int> bad = fail("nope", stream::IngestError::kBadMagic);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.message(), "nope");
  EXPECT_EQ(bad.error().ingest, stream::IngestError::kBadMagic);
  EXPECT_THROW((void)bad.value(), std::logic_error);

  saiyan::Result<Unit> u = ok();
  EXPECT_TRUE(u.ok());
}

// ---------------------------------------------------------- GatewayConfig

TEST(GatewayConfigValidate, ReportsFirstBadFieldByPath) {
  gateway::GatewayConfig cfg = base_config();
  cfg.stream.min_score = 0.0;
  cfg.workers = 0;  // also bad, but min_score comes first
  auto v = cfg.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("stream.min_score"), std::string::npos)
      << v.message();

  cfg = base_config();
  cfg.workers = 0;
  v = cfg.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("workers"), std::string::npos);

  cfg = base_config();
  cfg.chunk_samples = stream::kMaxTraceChunkSamples + 1;
  v = cfg.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("chunk_samples"), std::string::npos);

  cfg = base_config();
  cfg.limits.subscriber_queue = 0;
  v = cfg.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("limits.subscriber_queue"), std::string::npos);

  EXPECT_TRUE(base_config().validate().ok());
}

// ------------------------------------------------------ TraceReader::open

TEST(TraceReaderOpen, ClassifiesFailures) {
  auto missing = stream::TraceReader::open("does_not_exist.sytrc");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().ingest, stream::IngestError::kBadHeader);

  auto magic = stream::TraceReader::try_from_bytes("NOTATRACE........");
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.error().ingest, stream::IngestError::kBadMagic);
}

// -------------------------------------------------------- control protocol

TEST(ControlProtocol, RequestRoundTrip) {
  daemon::ControlRequest req;
  req.op = daemon::ControlOp::kReload;
  req.payload = "payload bytes";
  const std::string wire = daemon::encode_request(req);
  auto back = daemon::decode_request(wire);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().op, daemon::ControlOp::kReload);
  EXPECT_EQ(back.value().payload, "payload bytes");
}

TEST(ControlProtocol, ResponseRoundTrip) {
  daemon::ControlResponse resp;
  resp.status = daemon::ControlStatus::kError;
  resp.payload = "why it failed";
  auto back = daemon::decode_response(daemon::encode_response(resp));
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().status, daemon::ControlStatus::kError);
  EXPECT_EQ(back.value().payload, "why it failed");
}

TEST(ControlProtocol, RejectsMalformedFrames) {
  EXPECT_FALSE(daemon::decode_request("").ok());
  EXPECT_FALSE(daemon::decode_request("abc").ok());  // short header

  // Length prefix disagrees with the actual frame size.
  std::string wire = daemon::encode_request({daemon::ControlOp::kStats, ""});
  wire.push_back('x');
  EXPECT_FALSE(daemon::decode_request(wire).ok());

  // Unknown op byte.
  std::string bad_op = daemon::encode_request({daemon::ControlOp::kStats, ""});
  bad_op[4] = 99;
  EXPECT_FALSE(daemon::decode_request(bad_op).ok());

  // Absurd declared length must be rejected before allocation.
  std::string huge = "\xff\xff\xff\x7f";
  huge.push_back(1);
  EXPECT_FALSE(daemon::decode_request(huge).ok());
}

// ----------------------------------------------------------- daemon config

TEST(DaemonConfig, ParsesAndValidates) {
  char path[128];
  std::snprintf(path, sizeof(path), "saiyan_gw_conf_%d.conf",
                static_cast<int>(::getpid()));
  {
    std::ofstream out(path);
    out << "# demo config\n"
        << "socket /tmp/test_saiyand.sock\n"
        << "workers 2\n"
        << "chunk_samples 4096\n"
        << "payload_symbols 16   # inline comment\n"
        << "trace a.sytrc\n"
        << "trace b.sytrc\n";
  }
  auto loaded = daemon::load_daemon_config(path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(loaded.value().socket_path, "/tmp/test_saiyand.sock");
  EXPECT_EQ(loaded.value().gateway.workers, 2u);
  EXPECT_EQ(loaded.value().gateway.chunk_samples, 4096u);
  EXPECT_EQ(loaded.value().gateway.stream.payload_symbols, 16u);
  ASSERT_EQ(loaded.value().traces.size(), 2u);
  EXPECT_EQ(loaded.value().traces[1], "b.sytrc");

  {
    std::ofstream out(path);
    out << "workers 2\nbogus_key 1\n";
  }
  auto bad = daemon::load_daemon_config(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find(":2:"), std::string::npos) << bad.message();

  {
    std::ofstream out(path);
    out << "workers 0\n";
  }
  auto range = daemon::load_daemon_config(path);
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.message().find("workers"), std::string::npos);

  // Overload shedding is the live-backlog degradation ladder's; the
  // old shed knob, the rescan-queue cap, the ladder switch and its
  // backlog and p99 watermarks are unknown keys.
  for (const char* key :
       {"sic_shed_queue", "sic_max_rescan_queue", "degradation",
        "degradation_backlog_high", "degradation_backlog_low",
        "degradation_p99_high_us", "degradation_p99_low_us"}) {
    {
      std::ofstream out(path);
      out << "workers 2\n" << key << " 1\n";
    }
    auto shed = daemon::load_daemon_config(path);
    ASSERT_FALSE(shed.ok()) << key;
    EXPECT_NE(shed.message().find(":2:"), std::string::npos) << shed.message();
    EXPECT_NE(shed.message().find("'" + std::string(key) + "'"),
              std::string::npos)
        << shed.message();
  }
  std::remove(path);
}

std::string write_conf(const std::string& body) {
  const std::string path =
      "saiyan_gw_rows_" + std::to_string(::getpid()) + ".conf";
  std::ofstream(path) << body;
  return path;
}

// One line per key-table row, each with a non-default value.
TEST(DaemonConfig, EveryKeyLandsInItsField) {
  const std::string path = write_conf(
      "socket /tmp/rows.sock\n"
      "trace r.sytrc\n"
      "workers 3\n"
      "chunk_samples 2048\n"
      "throttle_us 7\n"
      "resync 0\n"
      "subscriber_queue 17\n"
      "watchdog_poll_ms 11\n"
      "watchdog_heartbeat_timeout_ms 1234\n"
      "watchdog_job_deadline_ms 4321\n"
      "degradation_lag_high_ms 900\n"
      "degradation_lag_low_ms 300\n"
      "degradation_escalate_after 4\n"
      "degradation_deescalate_after 6\n"
      "sic_depth 2\n"
      "min_score 0.7\n"
      "payload_symbols 24\n"
      "seed 99\n"
      "seed_by_offset 1\n"
      "sf 8\n"
      "bandwidth_hz 250e3\n"
      "sample_rate_hz 2e6\n"
      "bits_per_symbol 3\n"
      "preamble_symbols 8\n"
      "mode vanilla\n");
  auto loaded = daemon::load_daemon_config(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  const daemon::DaemonOptions& o = loaded.value();
  const gateway::GatewayConfig& g = o.gateway;
  EXPECT_EQ(o.socket_path, "/tmp/rows.sock");
  EXPECT_EQ(o.traces, std::vector<std::string>{"r.sytrc"});
  EXPECT_EQ(g.workers, 3u);
  EXPECT_EQ(g.chunk_samples, 2048u);
  EXPECT_EQ(g.throttle_us, 7u);
  EXPECT_FALSE(g.resync);
  EXPECT_EQ(g.limits.subscriber_queue, 17u);
  EXPECT_EQ(g.watchdog.poll_ms, 11u);
  EXPECT_EQ(g.watchdog.heartbeat_timeout_ms, 1234u);
  EXPECT_EQ(g.watchdog.job_deadline_ms, 4321u);
  EXPECT_EQ(g.degradation.lag_high_ms, 900u);
  EXPECT_EQ(g.degradation.lag_low_ms, 300u);
  EXPECT_EQ(g.degradation.escalate_after, 4u);
  EXPECT_EQ(g.degradation.deescalate_after, 6u);
  EXPECT_EQ(g.stream.sic.depth, 2u);
  EXPECT_EQ(g.stream.min_score, 0.7);
  EXPECT_EQ(g.stream.payload_symbols, 24u);
  EXPECT_EQ(g.stream.seed, 99u);
  EXPECT_TRUE(g.stream.seed_by_offset);
  // PHY keys rebuild stream.saiyan through SaiyanConfig::make.
  lora::PhyParams want;
  want.spreading_factor = 8;
  want.bandwidth_hz = 250e3;
  want.sample_rate_hz = 2e6;
  want.bits_per_symbol = 3;
  want.preamble_symbols = 8;
  EXPECT_EQ(g.stream.saiyan.phy, want);
  EXPECT_EQ(g.stream.saiyan.mode, core::Mode::kVanilla);
  EXPECT_EQ(g.stream.saiyan.envelope.sample_rate_hz, 2e6);
}

TEST(DaemonConfig, RejectsNegativeJunkAndOutOfRangeValuesByLine) {
  for (const char* line : {"workers -3", "workers 2x", "workers +2",
                           "throttle_us 18446744073709551616",
                           "degradation_escalate_after 4294967296",
                           "sf 2147483648", "resync 2", "min_score 0.5.1",
                           "mode turbo"}) {
    const std::string path = write_conf(std::string("# bad\n") + line + "\n");
    auto r = daemon::load_daemon_config(path);
    std::remove(path.c_str());
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_NE(r.message().find(path + ":2:"), std::string::npos)
        << r.message();
  }
}

// Serve flags are settings applied after the file: at start and on
// every reload, which loads the same file and flags again.
TEST(DaemonConfig, FlagsApplyAfterTheFile) {
  const std::string path = write_conf("workers 1\nthrottle_us 5\n");
  const std::vector<daemon::Setting> flags = {
      {"--workers", "workers", "2"}, {"--throttle-us", "throttle_us", "300"}};
  auto start = daemon::load_daemon_config(path, flags);
  auto reload = daemon::load_daemon_config(path, flags);
  ASSERT_TRUE(start.ok()) << start.message();
  ASSERT_TRUE(reload.ok()) << reload.message();
  EXPECT_EQ(start.value().gateway.workers, 2u);
  EXPECT_EQ(start.value().gateway.throttle_us, 300u);
  EXPECT_EQ(reload.value().gateway.workers, 2u);
  EXPECT_EQ(reload.value().gateway.throttle_us, 300u);

  auto bad = daemon::load_daemon_config(
      path, {{"--workers", "workers", "-3"}});
  std::remove(path.c_str());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("--workers"), std::string::npos)
      << bad.message();

  // No file: the flags apply over the defaults.
  auto bare = daemon::load_daemon_config("", flags);
  ASSERT_TRUE(bare.ok()) << bare.message();
  EXPECT_EQ(bare.value().gateway.workers, 2u);
  EXPECT_EQ(bare.value().gateway.chunk_samples,
            gateway::GatewayConfig{}.chunk_samples);
}

// ----------------------------------------------------------------- gateway

TEST(GatewayCreate, RejectsBadConfigWithFieldPath) {
  gateway::GatewayConfig cfg = base_config();
  cfg.stream.min_score = 2.0;
  auto gw = gateway::Gateway::create(cfg);
  ASSERT_FALSE(gw.ok());
  EXPECT_NE(gw.message().find("stream.min_score"), std::string::npos);
}

TEST_F(GatewayFile, EnqueueRejectsMissingAndCorruptTraces) {
  auto gw = gateway::Gateway::create(base_config());
  ASSERT_TRUE(gw.ok()) << gw.message();
  auto job = gw.value()->enqueue_trace("no_such_file.sytrc");
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.error().ingest, stream::IngestError::kBadHeader);
  EXPECT_EQ(gw.value()->stats().jobs_enqueued, 0u);
}

TEST_F(GatewayFile, BitIdenticalToOfflineAtAnyWorkerCount) {
  const gateway::GatewayConfig base = base_config();
  const std::vector<FrameKey> expected = offline_reference(path_, base);
  ASSERT_EQ(expected.size(), capture().markers.size())
      << "reference capture must be fully decodable";

  for (const std::size_t workers : {1u, 2u, 4u}) {
    gateway::GatewayConfig cfg = base;
    cfg.workers = workers;
    auto created = gateway::Gateway::create(cfg);
    ASSERT_TRUE(created.ok()) << created.message();
    auto& gw = *created.value();
    Collector col;
    gw.subscribe(col.handler());

    // Several copies of the job spread over the pool.
    constexpr std::size_t kJobs = 4;
    std::vector<std::uint64_t> job_ids;
    for (std::size_t j = 0; j < kJobs; ++j) {
      auto id = gw.enqueue_trace(path_);
      ASSERT_TRUE(id.ok()) << id.message();
      job_ids.push_back(id.value());
    }
    ASSERT_TRUE(gw.drain().ok());

    const std::vector<gateway::FrameRecord> frames = col.take();
    ASSERT_EQ(frames.size(), kJobs * expected.size()) << workers << " workers";
    for (const std::uint64_t id : job_ids) {
      std::vector<FrameKey> got;
      for (const gateway::FrameRecord& fr : frames) {
        if (fr.job == id) got.emplace_back(fr.packet_start, fr.symbols);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << workers << " workers, job " << id;
    }

    const gateway::GatewayStats st = gw.stats();
    EXPECT_EQ(st.frames_decoded, kJobs * expected.size());
    EXPECT_EQ(st.jobs_done, kJobs);
    EXPECT_EQ(st.markers_expected, kJobs * capture().markers.size());
    EXPECT_EQ(st.ingest.frames_dropped_subscriber, 0u);
    if (workers >= 2) {
      // Round-robin must actually spread jobs over the pool.
      std::size_t active = 0;
      for (const gateway::WorkerSnapshot& w : st.per_worker) {
        active += w.jobs > 0 ? 1 : 0;
      }
      EXPECT_GE(active, 2u) << workers << " workers";
    }
  }
}

TEST_F(GatewayFile, ReloadKeepsInFlightJobsAndCountsSwaps) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  // Throttle so the first job is still in flight when reload lands.
  cfg.throttle_us = 2000;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());

  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  gateway::GatewayConfig next = cfg;
  next.throttle_us = 0;
  next.stream.min_score = 0.7;
  ASSERT_TRUE(gw.reload(next).ok());
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());

  // Zero frames lost across the swap: both jobs decoded everything.
  EXPECT_EQ(col.take().size(), 2 * capture().markers.size());
  EXPECT_EQ(gw.stats().config_reloads, 1u);

  // Fixed-at-create knobs are rejected with a clear message.
  gateway::GatewayConfig bad = cfg;
  bad.workers = 4;
  auto r = gw.reload(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("workers"), std::string::npos);
}

TEST_F(GatewayFile, SlowSubscriberShedsFramesWithoutStallingWorkers) {
  gateway::GatewayConfig cfg = base_config();
  cfg.limits.subscriber_queue = 1;  // smallest legal queue
  // The slow handler holds its first frame on a latch until the job is
  // done. After each chunk the worker waits for that chunk's frames to
  // reach the handlers (the capture's frames end more than a trace
  // chunk apart, so a chunk emits at most one): the fast subscriber
  // keeps up, the slow one's second frame finds its queue empty and
  // every later one finds it full.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> holding{false};
  std::atomic<std::size_t> delivered{0};
  Collector fast;
  gateway::Gateway* gwp = nullptr;
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo&) {
    const std::uint64_t decoded = gwp->stats().frames_decoded;
    while ((decoded != 0 && !holding.load()) ||
           fast.take().size() < decoded) {
      std::this_thread::yield();
    }
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  gwp = &gw;
  gw.subscribe([&](const gateway::FrameRecord&) {
    delivered.fetch_add(1);
    holding.store(true);
    released.wait();
  });
  gw.subscribe(fast.handler());

  const auto job = gw.enqueue_trace(path_);
  ASSERT_TRUE(job.ok()) << job.message();
  // Workers never wait on the slow handler: the job finishes while the
  // handler still holds its first frame.
  gateway::JobState state = gateway::JobState::kPending;
  while ((state = gw.job_status(job.value()).value().state) ==
         gateway::JobState::kPending) {
    std::this_thread::yield();
  }
  EXPECT_EQ(state, gateway::JobState::kDone);
  EXPECT_EQ(delivered.load(), 1u);
  release.set_value();
  ASSERT_TRUE(gw.drain().ok());

  const gateway::GatewayStats st = gw.stats();
  const std::size_t total = capture().markers.size();
  EXPECT_EQ(st.frames_decoded, total);
  // The fast subscriber saw everything; the slow one kept the frame in
  // its handler plus one queued and shed the rest, all accounted for.
  EXPECT_EQ(fast.take().size(), total);
  EXPECT_EQ(st.ingest.frames_dropped_subscriber, total - 2);
  EXPECT_EQ(delivered.load() + st.ingest.frames_dropped_subscriber, total);
}

TEST_F(GatewayFile, UnsubscribeDeliversQueuedFramesFirst) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  const gateway::SubscriberId id = gw.subscribe(col.handler());
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());
  gw.unsubscribe(id);
  EXPECT_EQ(col.take().size(), capture().markers.size());
  EXPECT_EQ(gw.stats().subscribers, 0u);
}

TEST(GatewayLiveStream, MatchesOfflineAndGuardsDrain) {
  gateway::GatewayConfig cfg;
  cfg.stream.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.stream.payload_symbols = kPayload;
  cfg.workers = 2;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());

  const gateway::StreamId sid = gw.open_stream();
  EXPECT_EQ(gw.stats().streams_open, 1u);

  // drain() with a live producer is an error, not a deadlock.
  auto premature = gw.drain();
  ASSERT_FALSE(premature.ok());
  EXPECT_NE(premature.message().find("still open"), std::string::npos);

  const dsp::Signal& samples = capture().samples;
  constexpr std::size_t kPush = 10000;
  for (std::size_t off = 0; off < samples.size(); off += kPush) {
    const std::size_t n = std::min(kPush, samples.size() - off);
    ASSERT_TRUE(gw.push(sid, std::span(samples).subspan(off, n)).ok());
  }
  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_FALSE(gw.push(sid, std::span(samples).first(1)).ok())
      << "push after close must fail";
  ASSERT_TRUE(gw.drain().ok());

  // Offline reference over the same samples with the same config.
  stream::StreamingDemodulator demod(cfg.worker_stream_config());
  demod.push(samples);
  demod.finish();
  std::vector<FrameKey> expected;
  for (const stream::DecodedPacket& p : demod.packets()) {
    const auto syms = demod.symbols(p);
    expected.emplace_back(p.packet_start,
                          std::vector<std::uint32_t>(syms.begin(), syms.end()));
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());

  std::vector<FrameKey> got;
  for (const gateway::FrameRecord& fr : col.take()) {
    got.emplace_back(fr.packet_start, fr.symbols);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(gw.stats().streams_open, 0u);
}

TEST_F(GatewayFile, StatsTextCarriesTheDocumentedKeys) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());
  const std::string text = gw.stats().to_text();
  for (const char* key :
       {"frames_decoded", "markers_expected", "latency_p99_us",
        "ingest.frames_dropped_subscriber", "worker.0.frames",
        "jobs_done", "frames_per_sec"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key << "\n" << text;
  }
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.frames_decoded, capture().markers.size());
  EXPECT_GT(st.latency_max_us, 0u);
  EXPECT_GE(st.latency_p99_us, st.latency_p50_us);
}

TEST(GatewayLinks, RegistryTracksTagsEndToEnd) {
  // link_headers capture: payload symbol 0 carries the tag id, symbol
  // 1 a per-tag sequence counter — the telescope's ground truth.
  sim::CaptureConfig ccfg = capture_cfg();
  ccfg.link_headers = true;
  const sim::Capture cap = sim::generate_capture(ccfg);
  char path[128];
  std::snprintf(path, sizeof(path), "saiyan_gw_links_%d.sytrc",
                static_cast<int>(::getpid()));
  sim::write_capture(cap, ccfg, path);

  gateway::GatewayConfig cfg = base_config();
  cfg.link.sequence_symbol = true;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector sink;
  gw.subscribe(sink.handler());
  ASSERT_TRUE(gw.enqueue_trace(path).ok());
  ASSERT_TRUE(gw.drain().ok());
  std::remove(path);

  // Registry: one link per tag, every frame attributed, no inferred
  // losses (each tag's counter is consecutive), frames_total matches.
  const obs::LinkRegistrySnapshot links = gw.links();
  const std::size_t n_tags = ccfg.tag_rss_dbm.size();
  ASSERT_EQ(links.links.size(), n_tags);
  EXPECT_EQ(links.frames_total, cap.markers.size());
  EXPECT_EQ(links.evictions, 0u);
  for (const obs::LinkSnapshot& l : links.links) {
    EXPECT_LT(l.tag_id, n_tags);
    EXPECT_EQ(l.channel, 0u);
    EXPECT_EQ(l.frames, ccfg.packets_per_tag);
    EXPECT_EQ(l.lost_frames, 0u);
    EXPECT_GT(l.last_seen_us, 0u);
  }

  // Delivered frames carry the identity, and stats()/Prometheus/the
  // links-op text all agree with the registry.
  for (const gateway::FrameRecord& fr : sink.take()) {
    EXPECT_LT(fr.tag_id, n_tags);
    EXPECT_EQ(fr.channel, 0u);
  }
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.links.links.size(), n_tags);
  EXPECT_NE(st.to_text().find("links_tracked 3"), std::string::npos);
  const std::string prom = gateway::to_prometheus(st);
  EXPECT_NE(prom.find("saiyan_link_frames_total"), std::string::npos);
  EXPECT_NE(prom.find("tag=\"other\",channel=\"all\""), std::string::npos);
  EXPECT_NE(prom.find("saiyan_noise_floor_db"), std::string::npos);
  EXPECT_NE(prom.find("saiyan_frame_latency_saturated_total"),
            std::string::npos);
  const std::string listing =
      gateway::links_to_text(links, gateway::LinkQuery{});
  EXPECT_NE(listing.find("links_tracked 3"), std::string::npos);
  EXPECT_NE(listing.find("link.0.0.frames 3"), std::string::npos);

  // Link telemetry config is create()-time only.
  gateway::GatewayConfig changed = cfg;
  changed.link.capacity *= 2;
  auto r = gw.reload(changed);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("link"), std::string::npos);
}

TEST(GatewayStatsPrimitives, LatencyHistogramQuantiles) {
  obs::LatencyHistogram h;
  for (int i = 0; i < 98; ++i) h.record(100);   // bucket [64, 127]
  h.record(100000);
  h.record(200000);
  // The median interpolates inside the landing bucket instead of
  // reporting its upper edge: rank 50 of 98 in [64, 127] ≈ 96.
  EXPECT_GE(h.quantile_us(0.5), 64u);
  EXPECT_LE(h.quantile_us(0.5), 127u);
  EXPECT_EQ(h.quantile_us(0.5), 96u);
  EXPECT_GE(h.quantile_us(0.999), 100000u);
  EXPECT_EQ(h.max_us(), 200000u);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.sum_us(), 98u * 100 + 100000 + 200000);
}

// ------------------------------------------------ watchdog + self-heal

/// Shared skeleton for the two watchdog trip-wires: wedge one chosen
/// job inside the chunk hook (spinning until the watchdog's cancel
/// token fires, like a stuck DMA wait would), then assert the
/// self-healing contract — drain() returns, the wedged job surfaces a
/// typed kCancelled outcome, and every OTHER job's decode output is
/// bit-identical to the offline reference.
void watchdog_trip(const char* trace_path, bool via_deadline) {
  gateway::GatewayConfig cfg;
  cfg.stream.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.stream.payload_symbols = kPayload;
  cfg.chunk_samples = 8192;
  cfg.workers = 2;
  cfg.watchdog.poll_ms = 10;
  // Generous bounds: an honest job replays this trace in well under a
  // second, so only the deliberately wedged job can trip them.
  if (via_deadline) {
    cfg.watchdog.job_deadline_ms = 1500;
  } else {
    cfg.watchdog.heartbeat_timeout_ms = 1500;
  }
  const std::vector<FrameKey> expected = offline_reference(trace_path, cfg);
  ASSERT_FALSE(expected.empty());

  // The first job to reach its hook claims itself as the victim and
  // wedges until the watchdog's cancel token fires (job ids are not
  // known before enqueue, and jobs start running immediately; id 0 is
  // a real job, so the unclaimed sentinel must be out of band).
  constexpr std::uint64_t kNoVictim = ~0ull;
  std::atomic<std::uint64_t> victim{kNoVictim};
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo& info) {
    if (info.chunk_index != 0) return;
    std::uint64_t claimed = kNoVictim;
    if (!victim.compare_exchange_strong(claimed, info.job) &&
        claimed != info.job) {
      return;  // another job already wedged
    }
    while (!info.cancel->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());

  std::vector<std::uint64_t> job_ids;
  for (int j = 0; j < 4; ++j) {
    auto id = gw.enqueue_trace(trace_path);
    ASSERT_TRUE(id.ok()) << id.message();
    job_ids.push_back(id.value());
  }
  // Jobs were pre-assigned round-robin at enqueue, so the victim's
  // worker already holds later jobs — exactly the wedge drain() must
  // survive.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(gw.drain().ok());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_NE(victim.load(), kNoVictim) << "no job ever reached its hook";
  EXPECT_LT(wall, 30.0) << "drain must return promptly after the cancel";

  auto vs = gw.job_status(victim.load());
  ASSERT_TRUE(vs.ok()) << vs.message();
  EXPECT_EQ(vs.value().state, gateway::JobState::kCancelled);
  EXPECT_NE(vs.value().message.find(via_deadline ? "deadline" : "heartbeat"),
            std::string::npos)
      << vs.value().message;

  // Every other job decoded bit-identically to the offline pass.
  const std::vector<gateway::FrameRecord> frames = col.take();
  for (const std::uint64_t id : job_ids) {
    if (id == victim.load()) continue;
    auto st = gw.job_status(id);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().state, gateway::JobState::kDone) << "job " << id;
    std::vector<FrameKey> got;
    for (const gateway::FrameRecord& fr : frames) {
      if (fr.job == id) got.emplace_back(fr.packet_start, fr.symbols);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "job " << id;
  }

  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.jobs_done, 3u);
  EXPECT_EQ(st.jobs_failed, 1u) << "a cancelled job is not a done job";
  EXPECT_EQ(st.ingest.jobs_cancelled, 1u);
  if (via_deadline) {
    EXPECT_EQ(st.deadline_cancels, 1u);
    EXPECT_EQ(st.watchdog_cancels, 0u);
  } else {
    EXPECT_EQ(st.watchdog_cancels, 1u);
  }
}

TEST_F(GatewayFile, JobDeadlineCancelsWedgedJobAndDrainReturns) {
  watchdog_trip(path_, /*via_deadline=*/true);
}

TEST_F(GatewayFile, HeartbeatTimeoutCancelsWedgedJobAndDrainReturns) {
  watchdog_trip(path_, /*via_deadline=*/false);
}

// A live-stream job has its own teardown: a watchdog cancel must
// retire the stream, not just end the job.
TEST_F(GatewayFile, HeartbeatTimeoutTearsDownWedgedLiveStream) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  cfg.watchdog.poll_ms = 10;
  cfg.watchdog.heartbeat_timeout_ms = 1500;
  // The stream job wedges in its first chunk hook until the heartbeat
  // cancel fires. The trace job queued behind it on the one worker
  // reaches its own first hook only after the stream job has been
  // torn down and its outcome recorded.
  constexpr std::uint64_t kNoVictim = ~0ull;
  std::atomic<std::uint64_t> victim{kNoVictim};
  std::promise<void> next_job;
  std::future<void> next_job_started = next_job.get_future();
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo& info) {
    if (info.chunk_index != 0) return;
    std::uint64_t claimed = kNoVictim;
    if (victim.compare_exchange_strong(claimed, info.job)) {
      while (!info.cancel->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      next_job.set_value();
    }
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  const std::span<const dsp::Complex> samples(capture().samples);
  const gateway::StreamId sid = gw.open_stream();
  ASSERT_TRUE(gw.push(sid, samples.first(10000)).ok());
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_EQ(next_job_started.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the job behind the wedged stream never started";

  auto vs = gw.job_status(victim.load());
  ASSERT_TRUE(vs.ok()) << vs.message();
  EXPECT_EQ(vs.value().state, gateway::JobState::kCancelled);
  EXPECT_NE(vs.value().message.find("heartbeat"), std::string::npos)
      << vs.value().message;
  auto late = gw.push(sid, samples.first(1));
  ASSERT_FALSE(late.ok()) << "push to a cancelled stream must fail";
  EXPECT_NE(late.message().find("closed stream"), std::string::npos)
      << late.message();
  EXPECT_EQ(gw.stats().streams_open, 0u);

  ASSERT_TRUE(gw.drain().ok());
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.watchdog_cancels, 1u);
  EXPECT_EQ(st.jobs_failed, 1u);
  EXPECT_EQ(st.jobs_done, 1u);
  EXPECT_EQ(st.ingest.jobs_cancelled, 1u);
}

// A live stream idle between tag bursts waits for input; it is not
// wedged. The watchdog must leave it alone however short the heartbeat
// timeout, while a wedged stream (above) is still torn down.
TEST(GatewayLiveStream, IdleStreamOutlivesHeartbeatTimeout) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  cfg.watchdog.poll_ms = 5;
  cfg.watchdog.heartbeat_timeout_ms = 20;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  const std::span<const dsp::Complex> samples(capture().samples);
  const gateway::GatewayStats before = gw.stats();

  // Chunks shorter than a scan block: the pushes themselves cost the
  // worker next to nothing.
  const gateway::StreamId sid = gw.open_stream();
  ASSERT_TRUE(gw.push(sid, samples.first(1000)).ok());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (gw.stats().chunks_ingested == before.chunks_ingested &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(gw.stats().chunks_ingested, before.chunks_ingested + 1);

  // Elapsed wall time is the property under test: a longer idle can
  // only expose a watchdog that ages a waiting worker.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(10 * cfg.watchdog.heartbeat_timeout_ms));
  const auto again = gw.push(sid, samples.subspan(1000, 1000));
  ASSERT_TRUE(again.ok()) << again.message();
  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_TRUE(gw.drain().ok());

  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.watchdog_cancels, before.watchdog_cancels);
  EXPECT_EQ(st.jobs_done, before.jobs_done + 1)
      << "the stream job must end kDone";
  EXPECT_EQ(st.jobs_failed, before.jobs_failed);
  EXPECT_EQ(st.chunks_ingested, before.chunks_ingested + 2);
}

// A worker's first job builds its demodulator (and, in a fresh
// process, the receiver templates) before it reads any input. The job's
// clocks start once the demodulator is ready, so a heartbeat timeout
// far below the build time leaves the job alone. ctest runs each test
// in its own process, so the build here is cold.
TEST(GatewayLiveStream, ColdDemodulatorBuildIsNotAged) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  cfg.watchdog.poll_ms = 1;
  cfg.watchdog.heartbeat_timeout_ms = 5;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  const gateway::StreamId sid = gw.open_stream();
  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_TRUE(gw.drain().ok());
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.jobs_done, 1u) << "the stream job must end kDone";
  EXPECT_EQ(st.jobs_failed, 0u);
  EXPECT_EQ(st.watchdog_cancels, 0u);
}

// A live stream is a job: open_stream() returns its job id, so the
// stream's own outcome reads back like a trace replay's.
TEST(GatewayLiveStream, JobStatusReportsTheStreamsOwnOutcome) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  const gateway::StreamId sid = gw.open_stream();
  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_TRUE(gw.drain().ok());
  auto st = gw.job_status(sid);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(st.value().state, gateway::JobState::kDone);
}

/// Chunk-hook latch for one live stream: counts the chunks its worker
/// has finished and holds the worker in the hook of the stream's first
/// chunk until released, so the test can queue a backlog behind it.
class StreamLatch {
 public:
  /// Install as the config's chunk hook; call watch() once the stream
  /// is open.
  std::function<void(const gateway::GatewayConfig::ChunkHookInfo&)> hook() {
    return [this](const gateway::GatewayConfig::ChunkHookInfo& info) {
      if (info.job != job_.load()) return;
      std::unique_lock<std::mutex> lk(m_);
      done_ = info.chunk_index + 1;
      cv_.notify_all();
      // Bounded, so a failed test cannot wedge the gateway's teardown.
      cv_.wait_for(lk, std::chrono::seconds(60), [&] { return open_; });
    };
  }
  void watch(std::uint64_t job) { job_.store(job); }
  void release() {
    std::lock_guard<std::mutex> lk(m_);
    open_ = true;
    cv_.notify_all();
  }
  /// Wait until the worker has finished `n` chunks of the stream.
  bool wait_done(std::uint64_t n) {
    std::unique_lock<std::mutex> lk(m_);
    return cv_.wait_for(lk, std::chrono::seconds(60),
                        [&] { return done_ >= n; });
  }

 private:
  std::atomic<std::uint64_t> job_{~0ull};
  std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t done_ = 0;
  bool open_ = false;
};

/// Live chunks of 2 ms at 4 MHz: twice the 1 ms high watermark the
/// ladder tests set, so any chunk still queued makes a dequeue hot.
constexpr std::size_t kLiveChunk = 8192;

/// The i-th live chunk: the next 2 ms of the test capture, wrapping.
std::span<const dsp::Complex> live_chunk(std::uint64_t i) {
  const dsp::Signal& s = capture().samples;
  return std::span(s).subspan(i * kLiveChunk % (s.size() - kLiveChunk),
                              kLiveChunk);
}

/// Hold the stream's worker in its first chunk while `backlog` more
/// chunks queue behind it, then let it run through them. Every backlog
/// chunk but the last is dequeued with another queued behind it.
void push_held_backlog(gateway::Gateway& gw, gateway::StreamId sid,
                       StreamLatch& latch, std::uint64_t backlog) {
  ASSERT_TRUE(gw.push(sid, live_chunk(0)).ok());
  ASSERT_TRUE(latch.wait_done(1)) << "the stream's first chunk never ran";
  for (std::uint64_t i = 1; i <= backlog; ++i) {
    ASSERT_TRUE(gw.push(sid, live_chunk(i)).ok());
  }
  latch.release();
  ASSERT_TRUE(latch.wait_done(1 + backlog)) << "the backlog never drained";
}

// The ladder is a pure function of the push schedule. A backlog queued
// behind a held worker climbs one rung per `escalate_after` hot chunks;
// chunks pushed one at a time, each consumed before the next, are cool
// and walk it down one rung per `deescalate_after`.
TEST(GatewayLiveStream, LadderEscalatesAndRecoversThroughPushes) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  cfg.degradation.lag_high_ms = 1;
  const gateway::DegradationConfig& dc = cfg.degradation;
  StreamLatch latch;
  cfg.chunk_hook = latch.hook();
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  const gateway::StreamId sid = gw.open_stream();
  latch.watch(sid);
  constexpr std::uint64_t kTop = 3;  // kDropSpans
  const std::uint64_t backlog = kTop * dc.escalate_after + 1;
  ASSERT_NO_FATAL_FAILURE(push_held_backlog(gw, sid, latch, backlog));
  gateway::GatewayHealth h = gw.health();
  EXPECT_EQ(h.workers[0].degradation_level, kTop);
  EXPECT_EQ(h.workers[0].lag_ms, 0u);
  EXPECT_EQ(h.degradation_transitions, kTop);

  std::uint64_t done = 1 + backlog;
  for (std::uint64_t i = 0; i < kTop * dc.deescalate_after; ++i) {
    ASSERT_TRUE(gw.push(sid, live_chunk(done)).ok());
    ASSERT_TRUE(latch.wait_done(++done));
  }
  h = gw.health();
  EXPECT_EQ(h.degradation_level, 0u);
  EXPECT_EQ(h.degradation_name,
            gateway::to_string(gateway::DegradationLevel::kHealthy));
  EXPECT_EQ(h.degradation_transitions, 2 * kTop);

  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_TRUE(gw.drain().ok());
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.degradation_level, 0u);
  EXPECT_EQ(st.degradation_transitions, 2 * kTop);
  EXPECT_EQ(st.chunks_ingested, done);
  auto js = gw.job_status(sid);
  ASSERT_TRUE(js.ok()) << js.message();
  EXPECT_EQ(js.value().state, gateway::JobState::kDone);
}

// Only a live stream sheds, and only on its own worker: while worker
// 0's stream sits on the top rung, a trace replayed on worker 1 decodes
// bit-identically to the offline pass.
TEST(GatewayLiveStream, TraceReplayIgnoresALiveWorkersRung) {
  const std::string path =
      "saiyan_gw_rung_" + std::to_string(::getpid()) + ".sytrc";
  sim::write_capture(capture(), capture_cfg(), path);
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  cfg.degradation.lag_high_ms = 1;
  const std::vector<FrameKey> expected = offline_reference(path, cfg);
  ASSERT_FALSE(expected.empty());
  StreamLatch latch;
  cfg.chunk_hook = latch.hook();
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());

  // Jobs go round-robin: the stream to worker 0, the trace to worker 1.
  const gateway::StreamId sid = gw.open_stream();
  latch.watch(sid);
  ASSERT_NO_FATAL_FAILURE(push_held_backlog(
      gw, sid, latch, 3 * cfg.degradation.escalate_after + 1));
  ASSERT_EQ(gw.health().workers[0].degradation_level,
            static_cast<std::uint32_t>(gateway::DegradationLevel::kDropSpans));

  auto trace = gw.enqueue_trace(path);
  ASSERT_TRUE(trace.ok()) << trace.message();
  // The stream stays open, and so on its rung, until the replay ends.
  while (gw.job_status(trace.value()).value().state ==
         gateway::JobState::kPending) {
    std::this_thread::yield();
  }
  const gateway::GatewayHealth h = gw.health();
  EXPECT_EQ(h.workers[0].degradation_level,
            static_cast<std::uint32_t>(gateway::DegradationLevel::kDropSpans));
  EXPECT_EQ(h.workers[1].degradation_level, 0u);
  ASSERT_TRUE(gw.close_stream(sid).ok());
  ASSERT_TRUE(gw.drain().ok());
  std::remove(path.c_str());

  EXPECT_EQ(gw.job_status(trace.value()).value().state,
            gateway::JobState::kDone);
  std::vector<FrameKey> got;
  for (const gateway::FrameRecord& fr : col.take()) {
    if (fr.job == trace.value()) got.emplace_back(fr.packet_start, fr.symbols);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST_F(GatewayFile, JobStatusReportsTypedOutcomes) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  // Job 1's first chunk proves its reader is open; it then holds until
  // the main thread has deleted the trace. Job 1 keeps reading through
  // its open descriptor, and job 2 deterministically opens a missing
  // file. Only job 1 can reach a chunk: job 2 never opens.
  std::promise<void> job1_open;
  std::future<void> job1_opened = job1_open.get_future();
  std::atomic<bool> file_removed{false};
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo& info) {
    if (info.chunk_index != 0) return;
    job1_open.set_value();
    while (!file_removed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  auto first = gw.enqueue_trace(path_);
  ASSERT_TRUE(first.ok());
  auto second = gw.enqueue_trace(path_);
  ASSERT_TRUE(second.ok());
  // The second job was validated at enqueue; deleting the file before
  // its worker reaches it forces the mid-flight failure path.
  // Release the hook even on timeout, so a late job 1 cannot hang the
  // gateway's shutdown.
  const std::future_status opened =
      job1_opened.wait_for(std::chrono::seconds(10));
  std::remove(path_);
  file_removed.store(true);
  ASSERT_EQ(opened, std::future_status::ready)
      << "job 1 never reached its first chunk";
  ASSERT_TRUE(gw.drain().ok());

  auto s1 = gw.job_status(first.value());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1.value().state, gateway::JobState::kDone);
  auto s2 = gw.job_status(second.value());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value().state, gateway::JobState::kFailed);
  EXPECT_EQ(s2.value().ingest, stream::IngestError::kBadHeader);
  EXPECT_FALSE(s2.value().message.empty());

  // Never-issued ids are a typed error, not kPending.
  EXPECT_FALSE(gw.job_status(second.value() + 100).ok());
  EXPECT_STREQ(gateway::to_string(gateway::JobState::kCancelled), "cancelled");

  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.jobs_done, 1u);
  EXPECT_EQ(st.jobs_failed, 1u);
}

TEST_F(GatewayFile, ReloadRejectedWhileDrainInProgress) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 1;
  cfg.throttle_us = 5000;  // stretch the replay so drain() is caught live
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());

  std::thread drainer([&] { EXPECT_TRUE(gw.drain().ok()); });
  // Give drain() time to register; the job itself runs for much longer.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto r = gw.reload(base_config());
  drainer.join();
  ASSERT_FALSE(r.ok()) << "reload during drain must be rejected, not racy";
  EXPECT_NE(r.message().find("drain"), std::string::npos) << r.message();

  // After the drain returns, reload works again.
  EXPECT_TRUE(gw.reload(base_config()).ok());
}

TEST_F(GatewayFile, ReloadRejectsWatchdogAndDegradationChanges) {
  auto created = gateway::Gateway::create(base_config());
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  gateway::GatewayConfig wd = base_config();
  wd.watchdog.job_deadline_ms = 1000;
  auto r = gw.reload(wd);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("watchdog"), std::string::npos);

  gateway::GatewayConfig dg = base_config();
  dg.degradation.lag_high_ms = ~std::uint64_t{0};  // on, never trips
  r = gw.reload(dg);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("degradation"), std::string::npos);
}

TEST_F(GatewayFile, SeededChaosStallsLeaveDecodeBitIdentical) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  const std::vector<FrameKey> expected = offline_reference(path_, cfg);

  fault::ChaosConfig chaos_cfg;
  chaos_cfg.seed = 1234;
  chaos_cfg.stall_rate = 0.3;
  chaos_cfg.stall_min_ms = 1;
  chaos_cfg.stall_max_ms = 3;
  const fault::ChaosScheduler chaos(chaos_cfg);
  std::atomic<std::size_t> stalls{0};
  cfg.chunk_hook = [&](const gateway::GatewayConfig::ChunkHookInfo& info) {
    const std::uint64_t ms = chaos.stall_ms(info.worker, info.chunk_index);
    if (ms == 0) return;
    stalls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  Collector col;
  gw.subscribe(col.handler());
  std::vector<std::uint64_t> job_ids;
  for (int j = 0; j < 3; ++j) {
    auto id = gw.enqueue_trace(path_);
    ASSERT_TRUE(id.ok());
    job_ids.push_back(id.value());
  }
  ASSERT_TRUE(gw.drain().ok());
  EXPECT_GT(stalls.load(), 0u) << "the chaos schedule never fired";

  const std::vector<gateway::FrameRecord> frames = col.take();
  for (const std::uint64_t id : job_ids) {
    std::vector<FrameKey> got;
    for (const gateway::FrameRecord& fr : frames) {
      if (fr.job == id) got.emplace_back(fr.packet_start, fr.symbols);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "job " << id;
  }
}

TEST_F(GatewayFile, HealthSnapshotCarriesTheDocumentedKeys) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  // An on ladder whose lag cannot trip.
  cfg.degradation.lag_high_ms = ~std::uint64_t{0};
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();
  ASSERT_TRUE(gw.enqueue_trace(path_).ok());
  ASSERT_TRUE(gw.drain().ok());

  const gateway::GatewayHealth h = gw.health();
  EXPECT_EQ(h.degradation_level, 0u);
  EXPECT_EQ(h.degradation_name,
            gateway::to_string(gateway::DegradationLevel::kHealthy));
  ASSERT_EQ(h.workers.size(), 2u);
  for (const gateway::WorkerHealth& w : h.workers) {
    EXPECT_FALSE(w.busy);
  }
  const std::string text = h.to_text();
  for (const char* key :
       {"degradation_level", "degradation_name", "watchdog_cancels",
        "deadline_cancels", "jobs_cancelled", "worker.0.busy",
        "worker.1.heartbeat_age_ms", "worker.0.degradation_level",
        "worker.1.lag_ms"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key << "\n" << text;
  }
  EXPECT_EQ(text.find("rescan_backlog"), std::string::npos) << text;
  EXPECT_EQ(text.find("window_p99_us"), std::string::npos) << text;

  // The stats text grew the self-healing counters too.
  const std::string stats_text = gw.stats().to_text();
  for (const char* key : {"watchdog_cancels", "deadline_cancels",
                          "degradation_level", "ingest.jobs_cancelled"}) {
    EXPECT_NE(stats_text.find(key), std::string::npos) << key;
  }
}

// Each worker publishes one record, so every stats() snapshot sees
// each worker at one instant: counters that move together are never
// seen apart, however often the scrape lands mid-job.
TEST_F(GatewayFile, StatsSnapshotsStayCoherentUnderLoad) {
  gateway::GatewayConfig cfg = base_config();
  cfg.workers = 2;
  auto created = gateway::Gateway::create(cfg);
  ASSERT_TRUE(created.ok()) << created.message();
  auto& gw = *created.value();

  std::atomic<bool> stop{false};
  std::uint64_t snapshots = 0;
  std::uint64_t torn = 0;
  std::thread scraper([&] {
    while (!stop.load()) {
      const gateway::GatewayStats st = gw.stats();
      std::uint64_t jobs = 0;
      for (const gateway::WorkerSnapshot& w : st.per_worker) jobs += w.jobs;
      ++snapshots;
      if (st.chunks_ingested != st.ingest.chunks_ok ||
          st.jobs_done + st.jobs_failed != jobs) {
        ++torn;
      }
    }
  });
  constexpr std::uint64_t kJobs = 40;
  for (std::uint64_t j = 0; j < kJobs; ++j) {
    EXPECT_TRUE(gw.enqueue_trace(path_).ok());
  }
  EXPECT_TRUE(gw.drain().ok());
  stop.store(true);
  scraper.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(torn, 0u) << torn << " of " << snapshots << " snapshots torn";
  const gateway::GatewayStats st = gw.stats();
  EXPECT_EQ(st.jobs_done, kJobs);
  EXPECT_EQ(st.frames_decoded, kJobs * capture().markers.size());
}

TEST(GatewayStatsPrimitives, StatsCellPublishesCoherentSnapshots) {
  obs::Seqlock<stream::IngestStats> cell;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    stream::IngestStats s;
    while (!stop.load()) {
      // Two coupled fields; a torn read would see them disagree.
      s.chunks_ok += 1;
      s.bytes_skipped = s.chunks_ok * 2;
      cell.publish(s);
    }
  });
  for (int i = 0; i < 20000; ++i) {
    const stream::IngestStats snap = cell.read();
    ASSERT_EQ(snap.bytes_skipped, snap.chunks_ok * 2);
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace saiyan
