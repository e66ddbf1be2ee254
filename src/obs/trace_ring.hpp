// Per-thread flight recorder: lock-free rings of trace events.
//
// Model (a small subset of the Chrome trace-event format):
//   - 'X' complete events: name + start timestamp + duration, emitted
//     by ScopedTimer at destruction so one slot covers the whole span.
//   - 'B'/'E' begin/end pairs for spans that cross function boundaries
//     (the gateway brackets whole jobs this way so a crash mid-job
//     still leaves the 'B' in the ring).
//   - 'i' instant events for point occurrences (watchdog cancel,
//     degradation transition, gap detection).
//
// Each thread owns one fixed-capacity TraceEventRing, registered on
// first use in a global registry and kept alive after thread exit so a
// late dump_trace still sees the tail of a dead worker's timeline.
// The writer never blocks and never allocates after the first event on
// a thread: when the ring is full the oldest events are overwritten
// and counted as dropped. Readers snapshot with a head re-check and
// discard any slot that may have been overwritten mid-copy, so a torn
// event is never reported.
//
// Event names must be string literals (or otherwise immortal): the
// ring stores the pointer, not a copy.
//
// Everything here is gated twice:
//   - compile time: -DSAIYAN_TRACING=0 (CMake -DSAIYAN_TRACING=OFF)
//     turns emission into empty inlines; only the histogram side of
//     ScopedTimer survives.
//   - run time: obs::set_enabled(true) — default off, so library
//     tests and benchmarks that assert zero allocation on the hot
//     path never see a thread_local ring being created. saiyand
//     flips it on at startup.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/latency_histogram.hpp"

#ifndef SAIYAN_TRACING
#define SAIYAN_TRACING 1
#endif

namespace saiyan::obs {

struct TraceEvent {
  const char* name = nullptr;  ///< string literal; never freed
  std::uint64_t ts_us = 0;     ///< microseconds since process trace epoch
  std::uint64_t dur_us = 0;    ///< 'X' only; 0 otherwise
  char phase = 'X';            ///< 'X', 'B', 'E', or 'i'
};

/// One thread's snapshot, as taken by snapshot_all().
struct ThreadTrace {
  std::string thread_name;        ///< "worker0", "watchdog", ...
  std::uint32_t tid = 0;          ///< stable sequential id, not OS tid
  bool alive = true;              ///< false once the owning thread exited
  std::uint64_t dropped = 0;      ///< events emitted but absent here
  std::vector<TraceEvent> events; ///< oldest first
};

#if SAIYAN_TRACING

/// Global runtime switch. Off by default; saiyand enables it in serve
/// mode. Reads are one relaxed atomic load on the hot path.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// Microseconds since the process-wide trace epoch (steady clock; the
/// epoch is captured on first use).
std::uint64_t now_us() noexcept;

/// Name the calling thread's ring (registers it if needed). Call once
/// near the top of a thread's main; unnamed threads show up as
/// "thread<tid>".
void set_thread_name(const char* name);

/// Emit a point event on the calling thread's ring. No-op unless
/// enabled().
void trace_instant(const char* name) noexcept;

/// Emit explicit begin/end events (spans that cross scopes — prefer
/// ScopedTimer otherwise). No-ops unless enabled().
void trace_begin(const char* name) noexcept;
void trace_end(const char* name) noexcept;

/// Snapshot every registered ring (including rings of exited threads).
std::vector<ThreadTrace> snapshot_all();

/// Total events overwritten-before-read across all rings, ever.
std::uint64_t events_dropped_total() noexcept;

/// Serialize a snapshot of all rings as Chrome trace-event JSON
/// ({"traceEvents":[...]}, ts/dur in µs, pid=1 named "saiyan-gateway",
/// one tid per thread with thread_name metadata). If the full dump
/// would exceed `max_bytes`, whole threads' oldest events are trimmed
/// until it fits — the output is always valid JSON. max_bytes == 0
/// means unlimited.
std::string chrome_trace_json(std::size_t max_bytes = 0);

/// Test hook: forget all registered rings (including the calling
/// thread's — its next event re-registers a fresh ring) and reset the
/// dropped counter. Not safe while other threads are emitting.
void reset_for_test();

#else  // !SAIYAN_TRACING — emission compiled out entirely.

inline void set_enabled(bool) noexcept {}
constexpr bool enabled() noexcept { return false; }
inline std::uint64_t now_us() noexcept { return 0; }
inline void set_thread_name(const char*) {}
inline void trace_instant(const char*) noexcept {}
inline void trace_begin(const char*) noexcept {}
inline void trace_end(const char*) noexcept {}
inline std::vector<ThreadTrace> snapshot_all() { return {}; }
inline std::uint64_t events_dropped_total() noexcept { return 0; }
inline std::string chrome_trace_json(std::size_t = 0) {
  return "{\"traceEvents\":[]}";
}
inline void reset_for_test() {}

#endif  // SAIYAN_TRACING

/// Times a scope into an optional histogram and, when tracing is
/// enabled, also emits an 'X' event on the calling thread's ring. The
/// histogram side works even with tracing disabled (runtime or compile
/// time) — per-stage latency stats are always on; only the timeline is
/// optional. When neither a histogram is attached nor tracing enabled,
/// construction is two loads and the destructor is a no-op.
/// `carried_us` is earlier work of the same stage that ran outside the
/// scope (a scan block's ring ingest, timed per append): it is added
/// to the histogram record, while the timeline span covers the scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, LatencyHistogram* hist = nullptr,
                       std::uint64_t carried_us = 0) noexcept
      : name_(name), hist_(hist), carried_us_(carried_us) {
#if SAIYAN_TRACING
    traced_ = enabled();
    if (hist_ != nullptr || traced_) start_us_ = now_us();
#else
    if (hist_ != nullptr) start_us_ = steady_now_us_();
#endif
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
#if SAIYAN_TRACING
    if (hist_ == nullptr && !traced_) return;
    const std::uint64_t end = now_us();
    const std::uint64_t dur = end - start_us_;
    if (hist_ != nullptr) hist_->record(dur + carried_us_);
    if (traced_) emit_complete_(name_, start_us_, dur);
#else
    if (hist_ == nullptr) return;
    hist_->record(steady_now_us_() - start_us_ + carried_us_);
#endif
  }

 private:
#if SAIYAN_TRACING
  static void emit_complete_(const char* name, std::uint64_t ts_us,
                             std::uint64_t dur_us) noexcept;
#else
  static std::uint64_t steady_now_us_() noexcept;
#endif

  const char* name_;
  LatencyHistogram* hist_;
  std::uint64_t carried_us_;
  std::uint64_t start_us_ = 0;
#if SAIYAN_TRACING
  bool traced_ = false;
#endif
};

}  // namespace saiyan::obs
