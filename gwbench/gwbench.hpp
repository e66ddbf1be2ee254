// Gateway serving benchmark: shared types.
//
// Three workloads serve generated captures through saiyan::gateway::
// Gateway (serve.cpp). A traced run also drives the same inputs through
// each layer's public calls (layers.cpp) and times them from here, so
// nothing inside the library changes to be measured. Inputs are a pure
// function of (workload, seed) (inputs.cpp); every delivered frame is
// checked against ground truth and an offline StreamingDemodulator pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsp/types.hpp"
#include "gateway/gateway.hpp"
#include "stream/trace.hpp"

namespace gwbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Sample rate of the default PHY (SF7 / BW 500 kHz / K=2 at 4 MHz):
/// the real-time reference of rtf_per_worker.
inline constexpr double kSampleRateHz = 4e6;
/// Trace chunk records and live pushes carry this many samples.
inline constexpr std::size_t kChunkSamples = 16384;

struct WorkloadSpec {
  std::string name;
  std::size_t workers = 1;
  /// Trace workloads: jobs per closed-loop round (window/workers per
  /// worker).
  std::size_t window = 1;
  /// Live workloads: open-loop push rate in samples per second.
  double offered_rate = 0.0;
  bool live = false;
  bool float32 = false;  ///< v2 traces
  std::size_t sic_depth = 0;
  std::size_t n_inputs = 2;  ///< distinct captures per seed, cycled
};

/// Throws std::invalid_argument on an unknown name.
WorkloadSpec workload_spec(const std::string& name);

/// One decoded frame as the oracle compares it.
struct FrameKey {
  std::uint64_t packet_start = 0;
  std::vector<std::uint32_t> symbols;
  auto operator<=>(const FrameKey&) const = default;
};

/// One generated capture: a trace file on disk plus what the oracle
/// and the generator need.
struct Input {
  std::string path;
  std::vector<saiyan::stream::TraceMarker> markers;
  std::uint64_t samples = 0;
  std::uint64_t chunks = 0;  ///< trace chunk records (= live pushes)
  std::uint64_t bytes = 0;   ///< trace file size
  saiyan::dsp::Signal iq;    ///< live workloads: the samples, in memory
  /// Offline StreamingDemodulator pass over the same input, sorted.
  std::vector<FrameKey> reference;
};

struct InputSet {
  std::vector<Input> inputs;
  std::string warmup_path;  ///< tiny trace with the workload's PHY/format
  std::size_t frame_samples = 0;
  std::size_t tolerance = 0;  ///< marker offset match tolerance, samples
  double gen_s = 0.0;         ///< generation (0 when read from the cache)
  double reference_s = 0.0;   ///< loading + offline oracle pass
  bool cached = false;
};

/// Generate (or load from `cache_dir`) the inputs of (spec, seed), then
/// compute their offline reference decode. `smoke` shrinks every input.
InputSet prepare_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                        bool smoke, const std::string& cache_dir);

/// The serving configuration every run of `spec` uses.
saiyan::gateway::GatewayConfig gateway_config(const WorkloadSpec& spec);

/// Ground-truth check: how many of `frames` match a distinct marker in
/// offset (within `tolerance`) and symbols.
std::size_t count_ok(const std::vector<FrameKey>& frames,
                     const std::vector<saiyan::stream::TraceMarker>& markers,
                     std::size_t tolerance);

/// Oracle verdict, accumulated over a run.
struct Oracle {
  bool ok = true;
  std::string message;  ///< first failure
  void fail(const std::string& why) {
    if (ok) message = why;
    ok = false;
  }
};

/// Compare the frames delivered for one job with the input's reference.
void check_job(const Input& in, std::vector<FrameKey> got,
               const std::string& what, Oracle& oracle);

// ------------------------------------------------------------- serving

struct ServeResult {
  double window_s = 0.0;     ///< measured serve window (whole rounds)
  std::uint64_t samples = 0; ///< consumed inside the window
  std::size_t workers = 1;
  std::vector<double> latency_ms;  ///< one per delivered frame
  std::uint64_t frames_ok = 0;
  std::uint64_t markers = 0;
  std::uint64_t attempted = 0;  ///< jobs + pushes + frames decoded
  std::uint64_t failed = 0;     ///< failed/cancelled jobs, rejected calls,
                                ///< subscriber-dropped frames
  std::uint64_t backlog_max_chunks = 0;
  double backlog_mean_chunks = 0.0;
  double generator_late_max_ms = 0.0;
  double rss_start_mb = 0.0;
  double rss_peak_mb = 0.0;
  // Traced serve only.
  std::vector<double> call_us;  ///< Gateway::push / enqueue_trace
  std::vector<double> busy_share;  ///< per worker
  std::uint64_t deliver_count = 0;
  double deliver_busy_s = 0.0;

  double rtf_per_worker() const {
    return static_cast<double>(samples) /
           (window_s * static_cast<double>(workers) * kSampleRateHz);
  }
};

class Sink;

/// A gateway ready to serve `spec`, with its frame sink subscribed.
struct Server {
  std::unique_ptr<Sink> sink;
  std::unique_ptr<saiyan::gateway::Gateway> gateway;  // stops before sink
  Server();
  ~Server();
  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;
};

/// Gateway::create + subscriber + one warm-up job per worker — what a
/// daemon pays once at start (setup_s).
Server start_server(const WorkloadSpec& spec, const InputSet& set);

/// Serve `set` for `seconds` (the measured window), then drain and
/// check every delivered frame. `traced` adds the per-call timers and
/// the worker-busy sampler.
ServeResult serve(Server& server, const WorkloadSpec& spec,
                  const InputSet& set, double seconds, bool traced,
                  Oracle& oracle);

// -------------------------------------------------------- layer drive

/// Per-layer budget from driving the same inputs through TraceReader
/// and StreamingDemodulator directly, on `spec.workers` threads sharing
/// one obs::StageMetrics (as the gateway's workers do).
struct LayerBudget {
  double wall_s = 0.0;
  double trace_s = 0.0;  ///< TraceReader::open + next_chunk
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_samples = 0;
  double demod_s = 0.0;  ///< StreamingDemodulator::push + finish
  std::uint64_t samples = 0;
  double scan_s = 0.0, decode_s = 0.0, cancel_s = 0.0, rescan_s = 0.0;
  std::uint64_t scan_blocks = 0, decodes = 0, cancels = 0, rescans = 0;
  std::uint64_t collisions_resolved = 0, frames_cancelled = 0;

  double stage_s() const {
    return trace_s + scan_s + decode_s + cancel_s + rescan_s;
  }
  double coverage() const {
    const double busy = trace_s + demod_s;
    return busy > 0.0 ? stage_s() / busy : 0.0;
  }
};

LayerBudget drive_layers(const WorkloadSpec& spec, const InputSet& set,
                         double seconds, Oracle& oracle);

// ------------------------------------------------------------ report

/// Resident set size of this process, MB.
double rss_mb();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the
/// value and that percentile. With fewer than eleven samples, the max
/// at percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
Tail tail(std::vector<double> v);

/// Cut `v` (in arrival order) into consecutive windows of `window`
/// values, dropping a trailing partial window, and return the median of
/// the windows' p90s (nearest rank). With fewer than `window` values,
/// the p90 of all of them. A host stall then moves the result only if
/// it delays a tenth of the frames in most windows.
double windowed_p90(const std::vector<double>& v, std::size_t window);

/// `nproc`, CPU model, build type, SAIYAN_TRACING and SIMD dispatch.
std::string fingerprint();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace gwbench
