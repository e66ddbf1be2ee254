// Incremental preamble detection over a continuous envelope stream.
//
// The batch PreambleDetector answers "where is the one preamble in
// this packet buffer"; a gateway capture instead carries many packets
// at unknown offsets with idle gaps between them, and arrives in
// chunks that split preambles arbitrarily. PacketScanner drives the
// detector's prepared envelope correlator (core::PreambleDetector
// exposes the mean-removed template and its dsp::PreparedTemplate)
// block by block, carrying three pieces of state across block
// boundaries so a preamble straddling any boundary scores exactly as
// it would in one contiguous buffer:
//
//   * the last (template-1) envelope samples (an EnvelopeRing),
//   * the Pearson window statistics of the current scan position,
//   * the best unconfirmed candidate peak.
//
// Scoring is the same Pearson-style match the bit-pattern detector
// uses: signed correlation of the zero-mean template against the raw
// window, normalized by window variance and template energy — scale
// invariant, so tags at different RSS compete fairly. A candidate is
// confirmed once a full refractory interval passes without a better
// peak; lags inside an emitted preamble are suppressed, which lets a
// colliding packet's preamble (overlapping the previous payload) still
// be seen.
//
// Determinism: blocks are the unit of work, so emitted spans depend
// only on the absolute sample stream and the block partition — never
// on how the caller chunked its pushes. Instances are not thread-safe
// and must own their PreambleDetector's correlator exclusively.
#pragma once

#include <cstdint>
#include <vector>

#include "core/preamble_detector.hpp"
#include "stream/sample_ring.hpp"

namespace saiyan::stream {

/// One framed packet located in the capture stream (absolute sample
/// indices at the simulation rate).
struct PacketSpan {
  std::uint64_t packet_start = 0;   ///< first preamble sample
  std::uint64_t payload_start = 0;  ///< first payload sample
  double score = 0.0;               ///< normalized preamble match [0,1]
  /// SIC cancellation depth this span was found at: 0 for scanner
  /// detections in the mixed stream, d+1 for preambles re-detected on
  /// a residual after cancelling a depth-d frame.
  std::uint32_t sic_depth = 0;
  /// Correlation scores one lag before/after the peak (0.0 when the
  /// neighbor never scored — stream start, rescan hits). Telemetry
  /// only: link diagnostics fit a parabola through the peak for a
  /// fractional-sample timing offset. Decode never reads them.
  double score_prev = 0.0;
  double score_next = 0.0;
};

class PacketScanner {
 public:
  /// `detector` must outlive the scanner and not be shared with other
  /// workers (its correlator workspace is mutable). A candidate
  /// confirms after a refractory lag of 1.25 symbols of the detector's
  /// PHY: strictly longer than one symbol, so the symbol-spaced
  /// sidelobes of the preamble's own autocorrelation cannot confirm
  /// before the true peak.
  explicit PacketScanner(const core::PreambleDetector& detector,
                         double min_score = 0.6);

  /// Feed the next envelope block (consecutive blocks tile the
  /// absolute stream). Confirmed spans are appended to `out`; returns
  /// the number appended.
  std::size_t push_block(std::span<const double> env_block,
                         std::vector<PacketSpan>& out);

  /// End of stream: confirm the pending candidate, if any.
  std::size_t finish(std::vector<PacketSpan>& out);

  /// Restart on a fresh stream, keeping warm buffers.
  void reset();

  /// Upstream discontinuity (dropped IQ, trace resync): drop the
  /// unconfirmed candidate — its correlation window straddles the gap,
  /// so its score is meaningless — and suppress detections before
  /// `resume_lag` (the absolute index where intact samples resume).
  /// The envelope history and lag counters are kept: the caller keeps
  /// the absolute timeline aligned by pushing fill samples for the gap.
  void desync(std::uint64_t resume_lag);

  /// Envelope samples consumed so far.
  std::uint64_t samples_consumed() const { return env_.end(); }

  /// An unconfirmed candidate peak is pending — i.e. a preamble may be
  /// rising under the scan head. Noise-floor sampling treats such
  /// blocks as busy, never idle.
  bool has_candidate() const { return have_candidate_; }

  /// Preamble+sync template length in samples — the payload offset
  /// within a framed packet.
  std::size_t template_size() const { return tmpl_len_; }

 private:
  const core::PreambleDetector& det_;
  const double min_score_;
  const std::size_t tmpl_len_;
  const double tmpl_energy_;
  const std::size_t refractory_;

  EnvelopeRing env_;          // template-length history + current block
  dsp::RealSignal corr_;      // per-block correlation output
  std::uint64_t next_lag_ = 0;
  std::uint64_t suppress_before_ = 0;  // lags inside an emitted preamble
  bool have_candidate_ = false;
  PacketSpan candidate_;
  // Telemetry-only carry state for PacketSpan::score_prev/score_next:
  // the previous lag's score (survives block boundaries) and whether
  // the current candidate still awaits its successor-lag score.
  double prev_score_ = 0.0;
  bool next_score_pending_ = false;
};

}  // namespace saiyan::stream
