// Versioned binary gateway-trace format (record / replay).
//
// A trace is a complex-baseband capture plus the context needed to
// replay it deterministically: the LoRa PHY parameters and receiver
// mode it was recorded under, the expected payload length, and
// optional ground-truth markers (per transmitted packet: absolute
// sample offset, tag id, payload symbols) so a replay can score
// itself. Samples are stored as CRC-guarded chunks, so a truncated or
// corrupted capture file is rejected cleanly instead of being decoded
// into garbage.
//
// Layout (little-endian, versions 1 and 2):
//
//   magic "SAIYTRC1" | u32 version | u32 mode
//   double sample_rate_hz | u32 sf | double bandwidth_hz | u32 K
//   u32 preamble_symbols | double sync_symbols | u32 fec
//   u32 payload_symbols | u64 total_samples | u64 n_markers
//   markers: { u64 sample_offset, u32 tag_id, u32 n, u32 symbols[n] }
//   chunks:  { u32 n_samples, u16 crc16, u16 reserved,
//              iq[2*n_samples] } ... until EOF
//
// Version 1 stores iq as float64 pairs and round-trips bit-exactly.
// Version 2 (TraceMeta::float32_samples) stores float32 pairs — half
// the bytes, which is what a multi-gateway recorder actually ships —
// so a replay reproduces the capture only to float precision and
// decode equivalence becomes tolerance-based rather than bit-exact.
//
// `total_samples` is patched by TraceWriter::close(); the chunk CRC is
// lora::crc16 (CRC-16/CCITT-FALSE) over the raw (encoded) sample
// bytes. It is computed from slicing-by-8 tables, eight bytes per
// step; the value is the same as the bit-serial definition, so the
// format is unchanged and old traces verify as before. Chunk boundaries
// carry no semantic meaning — they are whatever the recorder pushed —
// and the streaming demodulator's chunk-size invariance makes replay
// results independent of them.
//
// Hostile-input posture: every size field read from the file is
// bounded both by a format sanity cap and by the actual file size
// before anything is allocated, so a corrupted or adversarial length
// can never translate into an absurd allocation. The header and
// marker table are strict (malformed -> throw); the chunk stream has
// two modes:
//
//   * strict (default): the first corrupt chunk wedges the reader,
//     exactly the pre-robustness contract;
//   * recover (TraceReader(..., /*recover=*/true)): a corrupt chunk
//     starts a skip-and-resync scan — the reader slides forward byte
//     by byte until it finds the next complete, CRC-valid chunk
//     record, delivers it with ChunkStatus::kResync, and estimates the
//     samples lost in the skipped bytes (last_gap_samples()) so the
//     consumer can re-align its absolute sample clock. Every rejection
//     is classified into an IngestError and counted in stats().
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "dsp/types.hpp"
#include "stream/ingest_stats.hpp"

namespace saiyan::stream {

/// Format sanity cap on a single chunk's sample count (4M complex
/// samples = 64 MiB of float64 IQ): a corrupted length field must not
/// translate into an absurd allocation. Public so config validation
/// (gateway::GatewayConfig) can enforce the same bound at the API
/// boundary the writer and reader enforce on the wire.
inline constexpr std::uint32_t kMaxTraceChunkSamples = 1u << 22;

/// Ground truth for one transmitted packet in the capture.
struct TraceMarker {
  std::uint64_t sample_offset = 0;  ///< first preamble sample
  std::uint32_t tag_id = 0;
  std::vector<std::uint32_t> symbols;  ///< transmitted payload symbols
};

struct TraceMeta {
  lora::PhyParams phy;
  core::Mode mode = core::Mode::kSuper;
  std::size_t payload_symbols = 32;
  std::uint64_t total_samples = 0;  ///< filled on close / read
  /// Version 2 sample encoding: float32 IQ pairs (half the bytes;
  /// replay is tolerance-equivalent instead of bit-exact). Set before
  /// writing; filled from the header version when reading.
  bool float32_samples = false;
};

/// Keep the first I/O failure: store `what` in `error` unless it
/// already holds one. An allocation failure stores the one-char marker
/// "!" instead of throwing.
void record_first_error(std::string& error, std::string_view what) noexcept;

class TraceWriter {
 public:
  /// Creates/truncates `path` and writes the header + markers.
  /// Throws std::runtime_error on I/O failure.
  TraceWriter(const std::string& path, const TraceMeta& meta,
              const std::vector<TraceMarker>& markers = {});
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Append one CRC-guarded sample chunk.
  void write_chunk(std::span<const dsp::Complex> samples);

  /// Push buffered bytes to the OS (durability policies that fsync per
  /// chunk need the stream flushed first). Returns false on I/O
  /// failure, which stays sticky for finish(); a no-op after close.
  bool flush() noexcept;

  /// Patch total_samples into the header, flush and close. Idempotent:
  /// later calls report the first call's outcome, and the Error is the
  /// *first* I/O failure (write_chunk, flush or close). The destructor
  /// closes the same way without reporting; call finish() to detect a
  /// truncated write.
  saiyan::Result<Unit> finish();

  std::uint64_t samples_written() const { return total_; }

 private:
  bool close_() noexcept;  // finish() without the Error; false on failure

  std::ofstream out_;
  std::streampos total_samples_pos_;
  std::uint64_t total_ = 0;
  bool closed_ = false;
  bool float32_ = false;           // version 2 sample encoding
  std::vector<float> f32_scratch_;  // reusable chunk conversion buffer
  std::string last_error_;          // first I/O failure; "" when none
};

enum class ChunkStatus {
  kOk,
  kEof,
  kCorrupt,  ///< CRC mismatch, truncation, or an absurd chunk header
  kResync,   ///< recovered: `out` holds the next valid chunk after a
             ///< skipped corrupt region (see last_gap_samples())
};

class TraceReader {
 public:
  /// Opens and validates the header + markers; throws
  /// std::runtime_error on a missing file or malformed header.
  /// `recover` selects the skip-and-resync chunk mode.
  explicit TraceReader(const std::string& path, bool recover = false);

  /// Result-returning open — the unified public-boundary convention:
  /// a missing file or malformed header comes back as an Error whose
  /// `ingest` field classifies the failure (kBadMagic / kBadVersion /
  /// kBadHeader / kBadMarkerTable) instead of an exception.
  static saiyan::Result<TraceReader> open(const std::string& path,
                                          bool recover = false);

  /// Parse a trace held in memory (fuzz harnesses, byte-level tests).
  /// Same contract as the file constructor.
  static TraceReader from_bytes(std::string_view bytes, bool recover = false);

  /// Result-returning from_bytes, same classification as open().
  static saiyan::Result<TraceReader> try_from_bytes(std::string_view bytes,
                                                    bool recover = false);

  const TraceMeta& meta() const { return meta_; }
  const std::vector<TraceMarker>& markers() const { return markers_; }

  /// Read the next chunk into `out` (resized).
  ///
  /// Strict mode: after kCorrupt the reader stays in a failed state
  /// and keeps returning kCorrupt. Recover mode never returns
  /// kCorrupt: a corrupt chunk is skipped and the next valid one (if
  /// any) is delivered as kResync; when no valid chunk remains the
  /// stream ends with kEof. Every rejection is counted in stats().
  ChunkStatus next_chunk(dsp::Signal& out);

  /// Ingest health counters (chunk outcomes, resyncs, error classes).
  const IngestStats& stats() const { return stats_; }

  /// Estimated samples lost in the most recent resync skip (valid
  /// after kResync, and after a recover-mode kEof that discarded a
  /// corrupt tail). The estimate is exact when the skipped region was
  /// a single payload-corrupted chunk whose declared length survived.
  std::uint64_t last_gap_samples() const { return last_gap_samples_; }

  std::uint64_t samples_read() const { return samples_read_; }

 private:
  struct Unparsed {};  // tag: construct without parsing the header
  TraceReader(Unparsed, std::unique_ptr<std::istream> in, std::uint64_t size,
              bool recover);
  TraceReader(std::unique_ptr<std::istream> in, std::uint64_t size,
              bool recover, const std::string& name);
  /// Header + marker-table parse; empty on success, else the
  /// classified error (what the throwing constructors throw and the
  /// Result-returning entry points return).
  std::optional<saiyan::Error> parse_header(const std::string& name);

  bool read_exact(void* dst, std::size_t n);
  template <typename T>
  bool get(T& v) {
    return read_exact(&v, sizeof(T));
  }
  std::size_t sample_bytes() const;
  void decode_samples(dsp::Signal& out, std::uint32_t n_samples) const;
  ChunkStatus fail_chunk(IngestError err, std::uint64_t chunk_start,
                         std::uint32_t declared_n, dsp::Signal& out);
  ChunkStatus resync(std::uint64_t chunk_start, std::uint32_t declared_n,
                     dsp::Signal& out);
  ChunkStatus end_of_stream();

  std::unique_ptr<std::istream> in_;
  std::uint64_t size_ = 0;  ///< total stream length in bytes
  std::uint64_t pos_ = 0;   ///< current read offset
  bool recover_ = false;
  TraceMeta meta_;
  std::vector<TraceMarker> markers_;
  bool failed_ = false;
  bool eof_done_ = false;  // total_samples cross-check runs once
  std::uint64_t samples_read_ = 0;  // cross-checked against the header
  std::uint64_t last_gap_samples_ = 0;
  IngestStats stats_;
  std::vector<std::uint8_t> chunk_bytes_;  // reusable CRC scratch
  std::vector<std::uint8_t> resync_buf_;   // sliding header-scan window
};

}  // namespace saiyan::stream
