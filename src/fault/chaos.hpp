// Deterministic chaos scheduling for gateway robustness tests.
//
// FaultInjector (sibling header) impairs the *data*: dropped samples,
// flipped bytes, torn traces. ChaosScheduler impairs the *process*:
// which worker stalls mid-job, which subscriber goes slow, where in a
// recording the process "dies". The two compose into the chaos
// harness the self-healing pillars are tested under — watchdog cancels
// of stalled workers, frame shedding under slow delivery, crash recovery
// of torn segment directories.
//
// Determinism is the entire point, and thread interleaving is the
// enemy of it: a chaos source that consumed a shared RNG stream would
// make every decision depend on which worker asked first. Every
// ChaosScheduler decision is therefore a *stateless pure function* of
// (seed, coordinates): stall_ms(worker, chunk) hashes the seed with
// the worker index and chunk index through the same splitmix64
// finalizer the decode path uses for stream seeds
// (dsp::derive_stream_seed). Any thread can ask in any order, any
// number of times, and the answer for a coordinate never changes —
// a fixed seed pins the whole chaos schedule, which is what lets a
// test assert exact counters after a storm.
#pragma once

#include <cstdint>

#include "dsp/rng.hpp"

namespace saiyan::fault {

struct ChaosConfig {
  std::uint64_t seed = 1;

  /// P(a given (worker, chunk) coordinate stalls). A "stall" models a
  /// wedged decode: the test's chunk hook spins until the watchdog
  /// fires the worker's cancel token (stall_ms bounds the spin for
  /// watchdog-disabled configs).
  double stall_rate = 0.0;
  std::uint64_t stall_min_ms = 50;
  std::uint64_t stall_max_ms = 200;

  /// P(a given delivered frame is slow-pathed in the subscriber),
  /// and how long the handler sleeps when it is — backpressure that
  /// drives frames_dropped_subscriber.
  double slow_frame_rate = 0.0;
  std::uint64_t slow_frame_ms = 5;

  /// Simulated process death while recording: kill_point(n) picks the
  /// chunk index at which the recorder "dies" (never reaching chunk n
  /// or later), uniform over [n/2, n). 0 disables.
  bool kill_while_recording = false;
};

class ChaosScheduler {
 public:
  explicit ChaosScheduler(const ChaosConfig& cfg) : cfg_(cfg) {}

  /// Stall duration for this (worker, chunk) coordinate; 0 = no stall.
  /// Pure: same coordinates, same answer, from any thread.
  std::uint64_t stall_ms(std::uint32_t worker,
                         std::uint64_t chunk_index) const;

  /// Slow-subscriber delay for the frame with this delivery index;
  /// 0 = deliver at full speed.
  std::uint64_t subscriber_delay_ms(std::uint64_t frame_index) const;

  /// Chunk index at which a recorder of `total_chunks` chunks dies
  /// (uniform in [total_chunks/2, total_chunks)); total_chunks when
  /// kill_while_recording is off (i.e. it survives).
  std::uint64_t kill_point(std::uint64_t total_chunks) const;

  const ChaosConfig& config() const { return cfg_; }

 private:
  /// Independent 64-bit draw for a (domain, a, b) coordinate.
  std::uint64_t draw(std::uint64_t domain, std::uint64_t a,
                     std::uint64_t b) const;

  ChaosConfig cfg_;
};

}  // namespace saiyan::fault
