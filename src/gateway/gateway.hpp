// saiyan::gateway::Gateway — the one public entry point for serving.
//
// Everything below this facade existed before it: streaming
// demodulation (src/stream/), SIC collision resolution (src/sic/),
// impairment-tolerant trace ingest (src/fault/ + TraceReader resync).
// What did not exist was a process shape: callers wired
// StreamingDemodulator + CollisionResolver + TraceReader together by
// hand, one instance per thread, with ad-hoc stats plumbing. Gateway
// owns that wiring:
//
//   * N worker threads, each with a warm StreamingDemodulator (which
//     itself owns the SIC resolver and DemodWorkspace). Work arrives
//     as *jobs* — a trace file to replay, or a live sample stream fed
//     through push() — assigned to workers round-robin at enqueue
//     time. A job runs on exactly one worker, so decode output is
//     bit-identical to an offline StreamingDemodulator pass over the
//     same input at ANY worker count (the NSD per-worker model: shard
//     by stream, never split one stream across workers).
//   * Subscribers: registered callbacks receive every decoded frame
//     (FrameRecord) on a dedicated delivery thread per subscriber,
//     through a bounded queue. A slow subscriber drops its own frames
//     (IngestStats::frames_dropped_subscriber) — it never stalls a
//     worker or another subscriber.
//   * Live statistics: stats() assembles a coherent snapshot from one
//     seqlocked record per worker without stopping anything (see
//     gateway_stats.hpp).
//   * reload(): swap the serving config. In-flight jobs keep the
//     config they started with — no span is dropped, exactly the
//     NSD-style "reload without drops" contract; jobs enqueued after
//     the swap use the new config.
//
// Error convention: construction-time config errors and per-call
// environment failures return saiyan::Result; exceptions are reserved
// for programmer errors (pushing to a stream you already closed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "dsp/types.hpp"
#include "gateway/gateway_config.hpp"
#include "gateway/gateway_stats.hpp"

namespace saiyan::gateway {

/// One decoded frame as delivered to subscribers. Self-contained (the
/// symbols are copied out of the worker's store) so the record can
/// outlive the worker's buffers.
struct FrameRecord {
  std::uint64_t job = 0;            ///< enqueue-order job id (trace or stream)
  std::uint32_t worker = 0;         ///< worker that decoded it
  std::uint64_t packet_start = 0;   ///< absolute first preamble sample
  std::uint64_t payload_start = 0;  ///< absolute first payload sample
  double score = 0.0;               ///< preamble match quality
  bool collided = false;            ///< overlapped another decoded frame
  bool sic_assisted = false;        ///< decoded from a cancelled residual
  std::uint64_t latency_us = 0;     ///< chunk ingest -> frame decoded
  std::vector<std::uint32_t> symbols;
  // Link-telescope diagnostics (all 0.0 when cfg.link.enabled is
  // false; see obs/link_telemetry.hpp).
  std::uint32_t tag_id = 0;         ///< link id (first payload symbol)
  std::uint32_t channel = 0;        ///< stream channel index
  double snr_db = 0.0;              ///< frame power over noise floor
  double cfo_hz = 0.0;              ///< preamble carrier offset
  std::uint32_t sic_depth = 0;      ///< cancellation depth at decode
};

using SubscriberId = std::uint64_t;
using StreamId = std::uint64_t;  ///< a live stream's job id
using FrameHandler = std::function<void(const FrameRecord&)>;

/// Lifecycle of a job as seen through Gateway::job_status().
enum class JobState : std::uint8_t {
  kPending = 0,    ///< queued or running
  kDone = 1,       ///< completed normally
  kFailed = 2,     ///< typed error in JobStatus::message / ingest
  kCancelled = 3,  ///< watchdog heartbeat timeout or job deadline
};

const char* to_string(JobState state);

/// Typed outcome of a job — how a cancelled or failed job surfaces to
/// the caller instead of wedging drain() or vanishing silently.
struct JobStatus {
  JobState state = JobState::kPending;
  /// Human-readable cause for kFailed / kCancelled; empty otherwise.
  std::string message;
  /// Ingest-taxonomy class when the failure came from trace parsing.
  stream::IngestError ingest = stream::IngestError::kNone;
};

class Gateway {
 public:
  /// Validate `cfg` and start the worker pool. The Error of a failed
  /// create() names the first bad config field.
  static saiyan::Result<std::unique_ptr<Gateway>> create(
      const GatewayConfig& cfg);

  /// Drains nothing: outstanding jobs are abandoned where they are.
  /// Call drain() first for a graceful stop.
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Queue a trace file for replay on one worker. The header is
  /// validated now (bad files are rejected here, not inside a worker);
  /// the PHY/mode/frame length come from the trace itself, so traces
  /// recorded under any receiver setup replay correctly. Returns the
  /// job id frames of this trace will carry.
  saiyan::Result<std::uint64_t> enqueue_trace(const std::string& path);

  /// Open a live sample stream (socket ingest, in-process feeding).
  /// The stream is pinned to one worker. The returned id is the
  /// stream's job id: its frames carry it in FrameRecord::job, and
  /// job_status() reports its outcome. Decoding uses the configured
  /// stream.saiyan PHY. When the stream falls behind its pushes, its
  /// own degradation ladder sheds work (see DegradationConfig).
  StreamId open_stream();

  /// Append a chunk (copied) to a live stream. Fails on an unknown or
  /// closed stream id.
  saiyan::Result<Unit> push(StreamId stream,
                            std::span<const dsp::Complex> chunk);

  /// End a live stream: the worker flushes the demodulator and
  /// completes the job. Fails on an unknown or already-closed id.
  saiyan::Result<Unit> close_stream(StreamId stream);

  /// Register a frame subscriber. `handler` runs on a dedicated
  /// delivery thread, never on a worker thread.
  SubscriberId subscribe(FrameHandler handler);

  /// Remove a subscriber; its queued frames are delivered first.
  void unsubscribe(SubscriberId id);

  /// Swap the serving config for jobs enqueued from now on. In-flight
  /// jobs finish under the config they started with (no dropped
  /// spans). Worker count, subscriber limits, watchdog and degradation
  /// policy are fixed at create(); a changed value in any is rejected.
  /// Rejected (not blocked, not UB) while a drain() is in progress —
  /// retry after the drain returns.
  saiyan::Result<Unit> reload(const GatewayConfig& cfg);

  /// Block until every queued job has completed, all live streams are
  /// closed and consumed, and every subscriber queue has drained.
  /// Call close_stream() on open streams first — drain() fails
  /// (rather than deadlocks) if a live stream is still open. A job
  /// wedged past the watchdog's bounds is cancelled with a typed
  /// error (job_status()), so drain() still returns.
  saiyan::Result<Unit> drain();

  /// Typed outcome of a job id returned by enqueue_trace() /
  /// open_stream(). Fails on an id that was never issued. Outcomes of
  /// the most recent completed jobs are retained (a bounded window);
  /// a pruned old job reads back as kPending.
  saiyan::Result<JobStatus> job_status(std::uint64_t job) const;

  /// Coherent statistics snapshot; wait-free for the workers.
  GatewayStats stats() const;

  /// Self-healing snapshot (watchdog liveness + degradation ladder);
  /// wait-free for the workers. The `health` control op serves this.
  GatewayHealth health() const;

  /// Full link-telescope registry snapshot (per-tag/channel rolling
  /// windows + noise floor); readers never block workers. Empty when
  /// cfg.link.enabled is false. The `links` control op serves this
  /// through links_to_text().
  obs::LinkRegistrySnapshot links() const;

  const GatewayConfig& config() const;

 private:
  explicit Gateway(const GatewayConfig& cfg);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace saiyan::gateway
