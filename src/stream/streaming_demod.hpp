// Streaming continuous-capture demodulation.
//
// core::BatchDemodulator (PR 3) decodes one pre-framed packet at a
// time; a gateway workload is a long capture with many packets from
// many tags at unknown offsets, idle gaps, and partial packets at
// chunk boundaries. StreamingDemodulator closes that gap: it accepts
// arbitrary-sized sample chunks, frames packets with an incremental
// preamble scanner, and decodes each framed span through a warm
// BatchDemodulator — yielding decoded packets with absolute
// sample-offset timestamps.
//
// Structure per push:
//
//   chunk -> RfRing -----------------------------(framed span)----+
//              |  fixed-size blocks                               v
//              +-> scan front end (vanilla reference chain)  BatchDemodulator
//                    -> PacketScanner -> confirmed PacketSpans -> DecodedPacket
//
// Design invariants:
//
//   * Chunk-size invariance. All internal work is keyed to absolute
//     sample positions: the capture is processed in fixed-size blocks
//     (envelope + scan), and frames decode at the first block boundary
//     after their last sample arrives. Pushing the capture one sample
//     at a time or in one call yields bit-identical packets.
//   * Batch equivalence. A decoded packet is produced by
//     BatchDemodulator::decode_aligned over the framed RF span with an
//     Rng seeded from dsp::derive_stream_seed(cfg.seed, packet_index),
//     so streaming decode is bit-identical to batch decode of the
//     individually framed packets.
//   * Zero allocation per chunk once warm. Rings, scan workspace,
//     correlator workspaces and the decode workspace all reach a
//     steady-state size; callers that drain packets between pushes
//     keep the result buffers from growing.
//
// Collision resolution (cfg.sic.depth > 0) works in place on the RF
// ring. After a frame at cancellation depth d < depth decodes, its
// reconstructed waveform is least-squares-subtracted from the ring
// (sic::CollisionResolver::cancel) and its span re-scanned
// (CollisionResolver::rescan): a weaker preamble that was buried under
// the frame — invisible to the mixed-stream scanner, whose Pearson
// score it cannot clear there — now stands clear on the residual, gets
// framed at depth d+1 and decodes like any other packet. Chains
// iterate up to cfg.sic.depth. The scanner reads each block before any
// decode can cancel into it (see note_gap() for the one exception).
// Subtraction only ever touches a decoded frame's own span, and
// per-packet stream seeds are consumed in decode order, so a capture
// without overlaps decodes bit-identically with SIC on or off. Depth 0
// is the same path with no cancellation.
//
// The scan front end always runs the *vanilla* reference chain
// (SAW -> LNA gain -> envelope detector, no CFS, no receiver noise):
// detection needs only timing, the vanilla envelope is cheaper and —
// unlike the CFS mixer, whose clock phase would reset at every block
// boundary — blockwise-stable. Channel noise recorded in the capture
// still limits detection, as it should.
//
// Instances are not thread-safe; shard a capture across workers by
// giving each its own StreamingDemodulator.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/batch_demod.hpp"
#include "obs/link_telemetry.hpp"
#include "obs/stage_metrics.hpp"
#include "sic/collision_resolver.hpp"
#include "stream/ingest_stats.hpp"
#include "stream/packet_scanner.hpp"
#include "stream/sample_ring.hpp"
#include "stream/trace.hpp"

namespace saiyan::stream {

struct StreamConfig {
  core::SaiyanConfig saiyan;
  std::size_t payload_symbols = 32;  ///< frame length is known a priori
  std::uint64_t seed = 1;            ///< per-packet decode stream root
  double min_score = 0.6;            ///< scanner confirmation threshold
  /// Successive-interference-cancellation policy for overlapping
  /// frames (depth 0 = off; see sic/collision_resolver.hpp). Under
  /// overload the gateway's degradation ladder sheds this work through
  /// set_degradation().
  sic::SicConfig sic;
  /// Derive per-packet decode seeds from the frame's absolute sample
  /// offset instead of its decode index. Decode results then do not
  /// depend on how many earlier frames were lost to impairments —
  /// which is what lets a faulted replay be compared bit for bit
  /// against a clean run downstream of a recovered gap. Off by
  /// default: the index-keyed scheme is what batch equivalence pins.
  bool seed_by_offset = false;
  /// Per-stage latency histograms to record into (not owned; may be
  /// null = no stage timing). The gateway points every worker at one
  /// shared obs::StageMetrics; recording is wait-free, so sharing is
  /// safe. Timing never changes decode behaviour — output is
  /// bit-identical with or without it.
  obs::StageMetrics* stage_metrics = nullptr;
  /// Link-telemetry sink (not owned; may be null = no RF diagnostics).
  /// When set, each decoded packet carries SNR/CFO/timing/margin
  /// diagnostics and idle blocks feed the sink's noise-floor tracker.
  /// Purely observational: decode output is bit-identical with the
  /// sink attached or not. The gateway points every worker at one
  /// shared obs::LinkTelemetry.
  obs::LinkTelemetry* link_telemetry = nullptr;
  /// Operator-assigned channel index stamped on this stream's link
  /// diagnostics (a wideband channelizer front end would assign one
  /// per sub-band; a single-channel gateway leaves it 0).
  std::uint32_t channel = 0;
  /// Cooperative cancellation token (not owned; may be null). push()
  /// polls it once per internal block iteration: when it reads true,
  /// the push stops early, cancelled() latches, and the caller is
  /// expected to abandon the job (a gateway watchdog unsticking a
  /// wedged worker). reset() clears the latch, not the token.
  const std::atomic<bool>* cancel = nullptr;
};

/// One decoded packet. Symbols live in the demodulator's flat store —
/// see StreamingDemodulator::symbols().
struct DecodedPacket {
  std::uint64_t packet_start = 0;   ///< absolute first preamble sample
  std::uint64_t payload_start = 0;  ///< absolute first payload sample
  double score = 0.0;               ///< preamble match quality
  std::uint32_t first_symbol = 0;   ///< index into the symbol store
  std::uint32_t n_symbols = 0;
  /// This frame overlapped another decoded frame (set on the weaker
  /// frame always; on the stronger one only while it is still
  /// undrained when the overlap is discovered).
  bool collided = false;
  /// Decoded from a residual a stronger frame was cancelled out of.
  bool sic_assisted = false;
  /// SIC cancellation depth the frame decoded at (0 = mixed stream).
  std::uint32_t sic_depth = 0;
  // RF diagnostics, computed only when cfg.link_telemetry is set
  // (all 0.0 otherwise). Never consumed by decode.
  double snr_db = 0.0;          ///< frame power over tracked noise floor
  double cfo_hz = 0.0;          ///< preamble carrier-frequency offset
  double timing_offset = 0.0;   ///< fractional-sample peak offset [-1, 1]
  double corr_margin = 0.0;     ///< preamble score minus min_score
  double noise_floor_dbm = 0.0; ///< floor estimate at decode time
};

class StreamingDemodulator {
 public:
  explicit StreamingDemodulator(const StreamConfig& cfg);

  // The scanner and detector members hold references into sibling
  // members; copying or moving would leave them dangling. Shard a
  // capture across workers by constructing one instance per worker
  // (emplace via pointers/optional in containers).
  StreamingDemodulator(const StreamingDemodulator&) = delete;
  StreamingDemodulator& operator=(const StreamingDemodulator&) = delete;

  /// Feed the next capture chunk (any size, including one sample).
  /// Returns the number of packets completed by this chunk.
  std::size_t push(std::span<const dsp::Complex> chunk);

  /// End of capture: scan the partial tail block, flush the scanner,
  /// and decode every pending frame that is fully present (frames cut
  /// off by the capture end are counted as truncated, not decoded).
  /// Returns the number of packets completed by the flush.
  std::size_t finish();

  /// Report an upstream discontinuity of ~`lost_samples` (dropped IQ
  /// chunks, a trace resync skip, a clock glitch). Frames whose spans
  /// are already complete decode first; pending frames straddling the
  /// gap are abandoned (counted in IngestStats::spans_dropped); the
  /// scanner's unconfirmed candidate is invalidated; then the gap is
  /// zero-filled so the absolute sample timeline stays aligned with
  /// upstream ground truth — frames wholly after the gap decode
  /// exactly as they would in a clean run. Not the hot path: the fill
  /// buffer allocates on first use.
  void note_gap(std::uint64_t lost_samples);

  /// Restart on a fresh capture, keeping warm buffers (packet counter,
  /// rings, scanner state, collision and ingest counters are cleared;
  /// decoded packets are kept until clear_packets()).
  void reset();

  /// Packets decoded since construction / the last clear_packets().
  /// Ordered by decode completion, which is packet_start order except
  /// that a SIC-revealed frame can trail a later non-overlapping one.
  std::span<const DecodedPacket> packets() const { return packets_; }

  /// Decoded symbols of one packet.
  std::span<const std::uint32_t> symbols(const DecodedPacket& p) const {
    return std::span<const std::uint32_t>(symbols_).subspan(p.first_symbol,
                                                            p.n_symbols);
  }

  /// Drop delivered packets (keeps capacity — the steady-state caller
  /// drains between pushes and never regrows the result buffers).
  void clear_packets() {
    packets_.clear();
    symbols_.clear();
  }

  /// The cfg.cancel token fired during a push (latched until reset()).
  /// Internal state may hold a partially ingested chunk — the instance
  /// must be reset() (or rebuilt) before the next job.
  bool cancelled() const { return cancelled_; }

  /// Gateway degradation ladder (0 = healthy .. 3 = drop spans; see
  /// gateway/degradation.hpp). Level >= 1 caps the SIC chain depth at
  /// one cancellation; level >= 2 sheds all cancel/rescan work
  /// (sic_shed / rescans_dropped); level >= 3 additionally discards
  /// completed spans undecoded (spans_shed). Takes effect at the next
  /// block boundary; cleared by reset().
  void set_degradation(std::uint8_t level) { degradation_ = level; }
  std::uint8_t degradation() const { return degradation_; }

  std::uint64_t samples_consumed() const { return received_; }
  std::size_t truncated_packets() const { return truncated_; }
  std::size_t frame_samples() const { return frame_len_; }
  std::size_t preamble_samples() const { return preamble_len_; }
  std::size_t block_samples() const { return block_; }
  /// Collisions discovered: rescans of a cancelled span that revealed
  /// a buried preamble.
  std::size_t collision_groups() const { return collision_groups_; }
  /// Frames decoded from a residual after ≥1 cancellation pass.
  std::size_t collisions_resolved() const { return collisions_resolved_; }
  /// Frames whose waveform was reconstructed and subtracted.
  std::size_t frames_cancelled() const { return frames_cancelled_; }
  /// SIC rescan regions queued but not yet processed. Rescans run
  /// inline at block boundaries, so this stays within regions queued
  /// in the last frame plus one block (see decode_ready()).
  std::size_t rescan_backlog() const { return rescans_.size() - rescan_head_; }
  /// Stream-side ingest health: gaps recovered, spans dropped, SIC
  /// work shed under overload.
  const IngestStats& ingest() const { return ingest_; }
  const StreamConfig& config() const { return cfg_; }
  const core::BatchDemodulator& batch() const { return batch_; }
  /// The preamble scanner (read-only: its coarse-gate counter).
  const PacketScanner& scanner() const { return scanner_; }

 private:
  /// A cancelled span queued for re-detection once the ring
  /// holds [start, start + len) and the revealing frame's cancellation
  /// is in (ready_at ≤ received_).
  struct RescanRegion {
    std::uint64_t start = 0;
    std::uint64_t ready_at = 0;
    std::size_t len = 0;
    std::uint32_t depth = 0;  ///< depth of spans it may reveal
  };

  void ingest(std::span<const dsp::Complex> samples);
  void process_block(std::uint64_t block_start, std::size_t len);
  void decode_ready(bool flush);
  void decode_span(const PacketSpan& span);
  void fill_diag(const PacketSpan& span, std::span<const dsp::Complex> frame,
                 DecodedPacket& p) const;
  void cancel_frame(const PacketSpan& span);
  bool process_rescan(const RescanRegion& region);
  void remember_start(std::uint64_t packet_start);
  std::size_t effective_sic_depth() const;
  bool admit_span(const PacketSpan& span);

  StreamConfig cfg_;
  core::BatchDemodulator batch_;      // decode engine + warm workspace
  core::ReceiverChain scan_chain_;    // vanilla-mode scan front end
  core::PreambleDetector scan_detector_;
  core::DemodWorkspace scan_ws_;      // per-block envelope workspace
  PacketScanner scanner_;
  std::optional<sic::CollisionResolver> sic_;  // set when cfg.sic.depth > 0

  RfRing rf_;                         // capture minus cancelled frames
  std::vector<PacketSpan> confirmed_; // scanner output, before admission
  std::vector<PacketSpan> pending_;   // admitted, waiting for frame end
  std::size_t pending_head_ = 0;
  std::vector<RescanRegion> rescans_;
  std::size_t rescan_head_ = 0;
  std::vector<DecodedPacket> packets_;
  std::vector<std::uint32_t> symbols_;
  dsp::Signal cancel_scratch_;        // frame span copy for cancel()
  dsp::Signal gap_fill_;              // zero block for note_gap()
  std::array<std::uint64_t, 8> recent_starts_{};  // decoded-frame dedupe
  std::size_t recent_count_ = 0;

  // Ring-append time not yet carried into a scan record (only counted
  // when stage_metrics is set).
  std::uint64_t ingest_ns_ = 0;
  bool cancelled_ = false;
  std::uint8_t degradation_ = 0;
  // Telemetry only: end of the furthest frame decoded so far — blocks
  // at or before it are never treated as idle for noise sampling.
  std::uint64_t last_frame_end_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t next_block_start_ = 0;
  std::uint64_t packet_counter_ = 0;
  std::size_t truncated_ = 0;
  std::size_t block_ = 0;
  std::size_t frame_len_ = 0;
  std::size_t preamble_len_ = 0;
  std::size_t collision_groups_ = 0;
  std::size_t collisions_resolved_ = 0;
  std::size_t frames_cancelled_ = 0;
  IngestStats ingest_;
};

// Feeding a recorded trace to a demodulator: one rule for every replay.

/// The receiver the trace was recorded for replaces `sc`'s saiyan
/// config and frame length; every other knob stays the caller's.
void configure_for_trace(const TraceMeta& meta, StreamConfig& sc);

/// Read the next chunk into `chunk`; false once the trace is exhausted
/// (EOF, or a strict-mode corrupt chunk). A resync, or a recover-mode
/// EOF that skipped a corrupt tail, is reported to `demod` as a gap.
bool next_trace_chunk(TraceReader& reader, StreamingDemodulator& demod,
                      dsp::Signal& chunk);

}  // namespace saiyan::stream
