// One configuration for the whole serving path.
//
// Before the facade, driving the library as a gateway meant juggling
// three config structs (core::SaiyanConfig inside stream::StreamConfig
// inside whatever the caller invented) plus loose knobs scattered over
// call sites (chunk size, resync mode, SIC policy). GatewayConfig
// aggregates all of it behind one validated struct:
//
//   GatewayConfig cfg;
//   cfg.workers = 4;
//   cfg.stream.sic.depth = 1;
//   if (auto v = cfg.validate(); !v.ok()) die(v.message());
//   auto gw = gateway::Gateway::create(cfg);
//
// validate() checks every field and reports the *first* bad one by its
// dotted path ("stream.min_score", "limits.subscriber_queue"), so a
// config-file error points at a line, not at a stack trace from
// whichever layer noticed three calls later.
//
// Overload has one policy: the degradation ladder (`degradation`)
// sheds SIC and decode work on a live stream whose backlog runs hot,
// and
// `limits` bounds delivery. The SIC rescan queue needs no cap: it
// drains inline on the worker (stream/streaming_demod.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/result.hpp"
#include "gateway/degradation.hpp"
#include "stream/streaming_demod.hpp"

namespace saiyan::gateway {

/// Delivery bounds of the serving path. SIC overload is the
/// degradation ladder's job (see DegradationConfig).
struct GatewayLimits {
  /// Frames buffered per subscriber before new frames are dropped for
  /// that subscriber (IngestStats::frames_dropped_subscriber). A slow
  /// consumer sheds its own frames; it never stalls a worker.
  std::size_t subscriber_queue = 256;
};

/// Watchdog: liveness supervision of the worker pool. A worker beats a
/// per-worker heartbeat at every chunk boundary; the watchdog thread
/// polls the heartbeats and per-job wall-clock ages and fires the
/// worker's cooperative cancel token when either bound is exceeded.
/// The cancelled job fails with a typed error (JobState::kCancelled)
/// instead of wedging drain() forever; the worker itself survives and
/// picks up the next job with a fresh demodulator. Fixed at
/// Gateway::create() (like `workers`): reload() rejects changes.
struct WatchdogConfig {
  /// Supervision poll period.
  std::uint64_t poll_ms = 20;
  /// Cancel a job whose worker has not beaten its heartbeat for this
  /// long (a chunk wedged inside the demodulator). 0 = disabled.
  std::uint64_t heartbeat_timeout_ms = 0;
  /// Soft per-job deadline: cancel any job busy longer than this, even
  /// one still making progress. 0 = disabled. Both clocks start when
  /// the job's demodulator is ready: building it (receiver templates
  /// on a worker's first job) is never aged.
  std::uint64_t job_deadline_ms = 0;

  bool operator==(const WatchdogConfig&) const = default;
};

/// Link telescope: per-tag/channel RF diagnostics registry (see
/// obs/link_telemetry.hpp). Fixed at Gateway::create() — the registry
/// is shared state the workers write into; reload() rejects changes.
struct LinkTelemetryConfig {
  /// Record per-frame diagnostics into the link registry. Purely
  /// observational: decode output is bit-identical on or off.
  bool enabled = true;
  /// Max simultaneously tracked links (tag × channel); the
  /// least-recently-seen link is evicted beyond this.
  std::size_t capacity = 256;
  /// Payload symbol 1 is a per-link wrapping sequence counter: infer
  /// lost frames from gaps. Off unless the deployment's tags actually
  /// encode one (sim captures do with CaptureConfig::link_headers).
  bool sequence_symbol = false;

  bool operator==(const LinkTelemetryConfig&) const = default;
};

struct GatewayConfig {
  /// Per-worker demodulation pipeline: PHY + receiver mode, frame
  /// length, scanner threshold, decode seeds, SIC policy. Every worker
  /// runs an identical warm copy.
  stream::StreamConfig stream;

  /// Demodulator worker threads. Each worker owns a warm
  /// StreamingDemodulator + SIC resolver + DemodWorkspace; streams and
  /// trace-replay jobs are assigned to workers round-robin, so decode
  /// results are bit-identical at any worker count.
  std::size_t workers = 1;

  /// Slice size in samples of each demodulator push. The demodulator
  /// is chunk-size invariant, so this changes no frame.
  std::size_t chunk_samples = 16384;

  /// Read traces in skip-and-resync mode and feed recovered gaps to
  /// the demodulator (StreamingDemodulator::note_gap) instead of
  /// aborting the stream at the first corrupt chunk.
  bool resync = true;

  /// Pacing: sleep this long after each ingested chunk (0 = replay as
  /// fast as the hardware allows). The daemon's record-then-serve mode
  /// uses it to approximate a real-time capture feed.
  std::uint64_t throttle_us = 0;

  GatewayLimits limits;

  /// Liveness supervision (heartbeats + job deadlines). Disabled by
  /// default; fixed at create().
  WatchdogConfig watchdog;

  /// Adaptive overload degradation (see gateway/degradation.hpp).
  /// Disabled by default; fixed at create().
  DegradationConfig degradation;

  /// Per-link RF diagnostics registry. Enabled by default (near-zero
  /// hot-path cost); fixed at create().
  LinkTelemetryConfig link;

  /// Operational event sink (ladder transitions, watchdog cancels).
  /// Called from worker threads and the watchdog thread; must be
  /// thread-safe and fast.
  /// Null = events are counted but not reported.
  std::function<void(const std::string&)> on_event;

  /// Test-only instrumentation: invoked on the worker thread after
  /// every ingested chunk, with the worker's own cancel token. The
  /// chaos harness uses it to stall a worker mid-job and to verify a
  /// watchdog cancel unsticks it; production configs leave it null.
  struct ChunkHookInfo {
    std::uint32_t worker = 0;
    std::uint64_t job = 0;
    std::uint64_t chunk_index = 0;                ///< within the job
    const std::atomic<bool>* cancel = nullptr;    ///< worker cancel token
  };
  std::function<void(const ChunkHookInfo&)> chunk_hook;

  /// Check every field; on failure the Error message names the first
  /// bad field by its dotted path.
  saiyan::Result<Unit> validate() const;

  /// The stream config every worker's demodulator starts from.
  stream::StreamConfig worker_stream_config() const { return stream; }
};

}  // namespace saiyan::gateway
