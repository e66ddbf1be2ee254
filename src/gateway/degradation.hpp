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
// Only live streams shed. A live stream has a deadline: a reply is
// useful only while the tag can still retransmit. A trace replay has
// none, so it always runs at level 0 and its frames never depend on
// host load.
//
// One signal drives it: the live stream's own backlog, the samples
// pushed but not yet dequeued, in ms at the stream's sample rate. Each
// live job runs its own ladder, fed once per dequeued chunk, so a
// stream that falls behind degrades only its own worker. The SIC
// rescan queue is no signal: rescans run inline at every block
// boundary, so it stays bounded whatever the load
// (stream/streaming_demod.cpp). Escalation needs `escalate_after`
// consecutive hot chunks, de-escalation `deescalate_after` consecutive
// cool chunks, and between the high and low watermarks the level holds
// — classic hysteresis, so a backlog near a threshold does not flap
// the pipeline on and off every chunk.
//
// DegradationLadder itself is a pure, single-threaded controller —
// level is a deterministic function of the update() input sequence,
// and so of the push schedule — so it is pinned by plain unit tests
// and by gateway tests that drive it through pushes.
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
  /// Live-backlog signal (milliseconds of samples queued): hot when
  /// the backlog reaches `lag_high_ms`, cool when it is back at or
  /// below `lag_low_ms`. 0 high = the ladder is off and never degrades.
  std::uint64_t lag_high_ms = 0;
  std::uint64_t lag_low_ms = 0;
  /// Consecutive hot chunks before stepping one level up.
  std::uint32_t escalate_after = 2;
  /// Consecutive cool chunks before stepping one level down.
  std::uint32_t deescalate_after = 10;

  bool operator==(const DegradationConfig&) const = default;
};

/// Pure hysteresis state machine over the live-backlog signal.
/// Single-threaded: a live job's worker owns it; everyone else sees
/// the level through the worker's published record.
class DegradationLadder {
 public:
  explicit DegradationLadder(const DegradationConfig& cfg) : cfg_(cfg) {}

  /// One dequeued chunk. Returns true when the level changed.
  bool update(std::uint64_t lag_ms);

  DegradationLevel level() const {
    return static_cast<DegradationLevel>(level_);
  }
  std::uint64_t transitions() const { return transitions_; }

 private:
  DegradationConfig cfg_;
  std::uint8_t level_ = 0;
  std::uint32_t hot_streak_ = 0;
  std::uint32_t cool_streak_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace saiyan::gateway
