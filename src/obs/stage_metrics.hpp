// Per-stage pipeline latency aggregation.
//
// The flight recorder (trace_ring.hpp) answers "what happened in the
// last few seconds, in order"; StageMetrics answers "where does the
// time go, cumulatively". One LatencyHistogram per pipeline stage,
// written wait-free from any worker thread, snapshotted by the stats
// path into GatewayStats and exported as Prometheus histograms.
//
// The stage list is the serving pipeline, in order: preamble scan,
// framed batch decode, SIC cancellation, SIC rescan, gap realignment,
// and subscriber delivery. The names are wire contract — they become
// the `stage` label of saiyan_stage_latency_microseconds and the
// stage.<name>.* keys of the stats text payload.
#pragma once

#include <array>
#include <cstdint>

#include "obs/latency_histogram.hpp"

namespace saiyan::obs {

enum class Stage : std::uint8_t {
  kScan = 0,      ///< per block: ring ingest + envelope + preamble scan
  kDecode,        ///< framed span through the warm BatchDemodulator
  kSicCancel,     ///< remodulate + least-squares subtract one frame
  kSicRescan,     ///< re-detect buried preambles on a cancelled span
  kGapRealign,    ///< note_gap salvage + zero-fill realignment
  kDeliver,       ///< one subscriber callback for one frame
  kCount,
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount);

constexpr const char* to_string(Stage s) {
  switch (s) {
    case Stage::kScan:       return "scan";
    case Stage::kDecode:     return "decode";
    case Stage::kSicCancel:  return "sic_cancel";
    case Stage::kSicRescan:  return "sic_rescan";
    case Stage::kGapRealign: return "gap_realign";
    case Stage::kDeliver:    return "deliver";
    case Stage::kCount:      break;
  }
  return "?";
}

/// One histogram per stage; shared by every worker of a gateway (the
/// histograms are wait-free multi-writer). Not owned by the pipeline
/// objects that record into it — the gateway wires a pointer through
/// stream::StreamConfig::stage_metrics.
struct StageMetrics {
  std::array<LatencyHistogram, kStageCount> stages;

  void record(Stage s, std::uint64_t us) {
    stages[static_cast<std::size_t>(s)].record(us);
  }

  LatencyHistogram& histogram(Stage s) {
    return stages[static_cast<std::size_t>(s)];
  }
  const LatencyHistogram& histogram(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
};

}  // namespace saiyan::obs
