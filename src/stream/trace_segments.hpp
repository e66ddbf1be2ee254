// Crash-safe segmented trace capture (append-only segment rotation).
//
// A single-file TraceWriter loses the whole capture to one crash: the
// header's total_samples is only patched at close, and a SIGKILL mid
// write leaves an unpatched file with a possibly-torn last chunk.
// SegmentedTraceWriter bounds the blast radius to one segment, the
// zns-tools append-only layout (PAPERS.md) adapted to the trace
// format:
//
//   capture-dir/
//     seg-000000.sytrc       sealed segment (complete, CRC'd, header
//     seg-000001.sytrc       total patched — a full standalone trace)
//     seg-000002.sytrc.tmp   active tail (torn on crash)
//
// Each segment is a complete trace file: full PHY header, then CRC'd
// chunks. The ground-truth marker table is written into segment 0
// only (markers carry absolute sample offsets over the whole capture).
// The active segment is written under a `.tmp` suffix and *sealed* by
// patching its header total, optionally fsyncing, then atomically
// renaming to its final name and fsyncing the directory — a reader
// never observes a half-sealed `.sytrc` file. Rotation is size-based
// (segment_samples) and/or capture-time-based (segment_seconds,
// derived from samples / sample_rate so rotation points are
// deterministic for a given input, never wall-clock). Chunks are
// never split across segments.
//
// Crash recovery (scan_segments / SegmentedTraceReader): every sealed
// segment is salvaged bit-exactly; the torn `.tmp` tail is read in
// skip-and-resync mode, salvaging its valid chunk prefix (the tail's
// header total is still 0, so the EOF cross-check knows not to fire).
// `saiyand --recover DIR` drives this from the command line;
// merge_segments() folds the salvage into one plain servable trace.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "stream/trace.hpp"

namespace saiyan::stream {

/// When segment bytes are pushed to stable storage.
enum class FsyncPolicy : std::uint8_t {
  kNone = 0,       ///< never fsync (page cache only; fastest)
  kOnSeal = 1,     ///< fsync each segment once, as part of sealing it
  kEveryChunk = 2, ///< flush + fsync after every chunk (slowest, at
                   ///< most one chunk of loss in the torn tail)
};

const char* to_string(FsyncPolicy p);

struct SegmentPolicy {
  /// Seal the active segment once it holds at least this many samples
  /// (checked at chunk boundaries; 0 = no size-based rotation).
  std::uint64_t segment_samples = 1u << 21;
  /// Seal once the active segment spans at least this much *capture*
  /// time (samples / sample_rate_hz — deterministic, not wall clock;
  /// 0 = no time-based rotation).
  double segment_seconds = 0.0;
  FsyncPolicy fsync = FsyncPolicy::kOnSeal;
};

class SegmentedTraceWriter {
 public:
  /// Creates `dir` if missing and opens the first segment. Throws
  /// std::runtime_error on I/O failure (same contract as TraceWriter).
  SegmentedTraceWriter(const std::string& dir, const TraceMeta& meta,
                       const std::vector<TraceMarker>& markers = {},
                       const SegmentPolicy& policy = {});
  ~SegmentedTraceWriter();

  SegmentedTraceWriter(const SegmentedTraceWriter&) = delete;
  SegmentedTraceWriter& operator=(const SegmentedTraceWriter&) = delete;

  /// Append one chunk, rotating first if the active segment is full.
  /// A chunk always lands whole in exactly one segment.
  void write_chunk(std::span<const dsp::Complex> samples);

  /// Seal the active tail. Idempotent, sticky-error — the segmented
  /// analogue of TraceWriter::finish(). The destructor seals the same
  /// way without reporting.
  saiyan::Result<Unit> finish();

  std::uint64_t samples_written() const { return total_; }
  std::size_t segments_sealed() const { return sealed_; }
  const std::string& dir() const { return dir_; }

  /// "seg-000042.sytrc" — sealed-segment file name for an index.
  static std::string segment_name(std::uint64_t index);

 private:
  void open_segment();
  bool seal_segment() noexcept;
  bool close_() noexcept;  // finish() without the Error

  std::string dir_;
  TraceMeta meta_;
  std::vector<TraceMarker> markers_;  // segment 0 only
  SegmentPolicy policy_;
  std::optional<TraceWriter> writer_;  // active tail
  std::uint64_t seg_index_ = 0;
  std::uint64_t seg_samples_ = 0;  // samples in the active segment
  std::uint64_t total_ = 0;
  std::size_t sealed_ = 0;
  bool closed_ = false;
  std::string last_error_;
};

/// Per-file salvage outcome of a recovery scan.
struct SegmentInfo {
  std::string path;
  std::uint64_t index = 0;
  bool sealed = false;    ///< final name (not `.tmp`)
  bool readable = false;  ///< header parsed
  /// Sealed, every chunk intact, and the header total matched — the
  /// bit-exact case recovery promises for sealed segments.
  bool complete = false;
  std::uint64_t samples = 0;  ///< samples salvaged from this file
  std::uint64_t chunks = 0;
  IngestStats stats;
  std::string error;  ///< header-level failure, when !readable
};

struct RecoveryReport {
  TraceMeta meta;  ///< from the first readable segment; total_samples
                   ///< is the salvaged total across all segments
  std::vector<TraceMarker> markers;
  std::vector<SegmentInfo> segments;  ///< ordered by index
  std::uint64_t sealed_segments = 0;
  std::uint64_t salvaged_samples = 0;
  bool torn_tail = false;  ///< an unsealed `.tmp` tail was present
  /// `key value` lines (mirrors GatewayStats::to_text()).
  std::string to_text() const;
};

/// Scan a capture directory and salvage-account every segment without
/// modifying anything. Fails only when the directory is unreadable or
/// holds no segment files at all.
saiyan::Result<RecoveryReport> scan_segments(const std::string& dir);

/// Read a segment directory as one logical chunk stream: sealed
/// segments in index order, then the torn tail's valid prefix.
/// Unreadable files are skipped (their loss is visible in stats()).
class SegmentedTraceReader {
 public:
  static saiyan::Result<SegmentedTraceReader> open(const std::string& dir);

  const TraceMeta& meta() const { return report_.meta; }
  const std::vector<TraceMarker>& markers() const { return report_.markers; }
  const RecoveryReport& report() const { return report_; }

  /// kOk / kResync chunk stream across all salvageable segments;
  /// kEof once every segment is exhausted. Never kCorrupt (all
  /// segment readers run in recover mode).
  ChunkStatus next_chunk(dsp::Signal& out);

  const IngestStats& stats() const { return stats_; }
  std::uint64_t last_gap_samples() const { return last_gap_; }
  std::uint64_t samples_read() const { return samples_read_; }

 private:
  explicit SegmentedTraceReader(RecoveryReport report);

  RecoveryReport report_;
  std::size_t cur_ = 0;                  // index into report_.segments
  std::optional<TraceReader> reader_;    // open segment, if any
  IngestStats stats_;
  std::uint64_t last_gap_ = 0;
  std::uint64_t samples_read_ = 0;
};

/// Salvage a segment directory into one plain trace file (servable by
/// TraceReader / Gateway::enqueue_trace): meta + markers from the
/// scan, every recovered chunk in order, total patched to the
/// salvaged count. Mid-capture losses concatenate (the per-segment
/// gap estimates are in the recovery report, not the merged file).
saiyan::Result<RecoveryReport> merge_segments(const std::string& dir,
                                              const std::string& out_path);

}  // namespace saiyan::stream
