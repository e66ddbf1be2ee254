// Adaptive degradation ladder: graceful decode quality loss under
// overload, never a throughput cliff.
//
// MDS2's operational lesson (PAPERS.md) is that a service facing more
// load than it can absorb must shed *chosen* work early, not queue
// until everything is late. The gateway's most expensive optional
// work is SIC cancel+rescan; its cheapest mandatory work is plain
// frame decode. The ladder orders what gets sacrificed:
//
//   level 0  kHealthy      full configured pipeline
//   level 1  kReduceSic    SIC chains capped at one cancellation
//   level 2  kShedRescans  cancel/rescan stage shed entirely
//   level 3  kDropSpans    whole framed spans dropped undecoded
//
// One signal drives it, sampled by the gateway's watchdog thread each
// poll: the *windowed* p99 chunk-to-frame latency (the bucket-delta of
// the seqlock latency histogram between polls — the cumulative
// histogram would never come back down after one storm). The SIC
// rescan queue is no signal: rescans run inline on the worker at
// every block boundary, so it holds only regions queued in the last
// frame plus one block, whatever the load (stream/streaming_demod.cpp).
// Escalation needs `escalate_after` consecutive hot polls,
// de-escalation `deescalate_after` consecutive cool polls, and between
// the high and low watermarks the level holds — classic hysteresis,
// so a load level near a threshold does not flap the pipeline on and
// off every tick.
//
// DegradationLadder itself is a pure, single-threaded controller —
// level is a deterministic function of the update() input sequence —
// so hysteresis behavior is pinned by plain unit tests; the
// concurrency lives entirely in the gateway's watchdog loop.
#pragma once

#include <cstdint>

namespace saiyan::gateway {

enum class DegradationLevel : std::uint8_t {
  kHealthy = 0,
  kReduceSic = 1,
  kShedRescans = 2,
  kDropSpans = 3,
};

const char* to_string(DegradationLevel level);

/// Thresholds and hysteresis for the ladder. Fixed at
/// Gateway::create().
struct DegradationConfig {
  /// Windowed-p99-latency signal (microseconds): hot when the p99
  /// reaches `p99_high_us`, cool when it is back at or below
  /// `p99_low_us`. 0 high = the ladder is off and never degrades.
  std::uint64_t p99_high_us = 0;
  std::uint64_t p99_low_us = 0;
  /// Consecutive hot polls before stepping one level up.
  std::uint32_t escalate_after = 2;
  /// Consecutive cool polls before stepping one level down.
  std::uint32_t deescalate_after = 10;

  bool operator==(const DegradationConfig&) const = default;
};

/// Pure hysteresis state machine over the windowed-p99 signal.
/// Single-threaded: the gateway's watchdog thread owns it; everyone
/// else sees the level through an atomic the watchdog publishes.
class DegradationLadder {
 public:
  explicit DegradationLadder(const DegradationConfig& cfg) : cfg_(cfg) {}

  /// One controller poll. Returns true when the level changed.
  bool update(std::uint64_t p99_us);

  DegradationLevel level() const {
    return static_cast<DegradationLevel>(level_);
  }
  std::uint64_t transitions() const { return transitions_; }

 private:
  DegradationConfig cfg_;
  std::uint8_t level_ = 0;
  std::uint32_t hot_polls_ = 0;
  std::uint32_t cool_polls_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace saiyan::gateway
