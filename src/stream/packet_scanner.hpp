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
// Coarse gate. Most blocks hold no preamble peak, yet the full-rate
// search of one block correlates a (block + template - 1)-sample window
// with the template. In front of it, each block is box-car averaged by
// kGateDecimation (16): at SF7 / 500 kHz / 4 MHz an 8192-sample block
// becomes 512 samples and the 12 544-sample template 784. A small decimated history is
// correlated with the decimated zero-mean template through its own
// dsp::PreparedTemplate (a 1536-point transform) and normalized the
// same Pearson way. A block whose lags are [L0, L1) runs the full-rate
// search only when
//
//   * the scanner holds a candidate, or
//   * some decimated lag in [L0/16 - 1, (L1-1)/16 + 1] (clamped to the
//     lags the history holds) scores at least min_score - kGateMargin.
//
// Every other block is cleared: its lags are consumed unscored, the
// previous-lag score resets to 0.0 and nothing is emitted. A block that
// runs is searched exactly as without the gate — same window, same
// transform length, Pearson sums restarted at the window head — so
// every score it produces is bit-identical, and the span list is
// identical as long as no lag scoring >= min_score falls in a cleared
// block (a gate miss). The one visible difference is telemetry: a
// candidate on the first lag after a cleared block records
// score_prev = 0.0, the value for "the neighbor never scored".
//
// The margin is measured, not derived. On the inputs of the three
// gateway benchmark workloads (gwbench, seeds 1-3), for every full-rate
// lag scoring >= m some decimated lag within +-1 of it scored at least
// m - 0.011, at every m from 0.3 to 0.8 in steps of 0.05 (m - 0.003 at
// the default 0.6); 0.15 is about 14x that worst shortfall. At
// min_score 0.6 the gate cleared 62-67 % of the blocks of the dense
// workload, 72-74 % of the colliding one and 86 % of the sparse one,
// with zero misses; tests/test_scan_gate.cpp proves zero misses over
// its corpus at min_score 0.45, 0.6 and 0.75.
//
// The gate engages only on blocks of the size given at construction,
// once the decimated history holds a full gate window, and while the
// stream has been fed in whole multiples of kGateDecimation; the
// template length must be such a multiple too. Anything else (the
// first blocks of a stream, a short tail, an odd-sized caller) runs the
// full search.
//
// Determinism: blocks are the unit of work, so emitted spans depend
// only on the absolute sample stream and the block partition — never
// on how the caller chunked its pushes. The gate decides from the same
// blocks, so this holds with it. Instances are not
// thread-safe and must own their PreambleDetector's correlator
// exclusively.
#pragma once

#include <cstdint>
#include <optional>
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
  /// neighbor never scored — stream start, rescan hits, a previous lag
  /// in a block the coarse gate cleared). Telemetry
  /// only: link diagnostics fit a parabola through the peak for a
  /// fractional-sample timing offset. Decode never reads them.
  double score_prev = 0.0;
  double score_next = 0.0;
};

class PacketScanner {
 public:
  /// Box-car decimation factor of the coarse gate.
  static constexpr std::size_t kGateDecimation = 16;
  /// A block runs the full search when a decimated lag scores at least
  /// min_score - kGateMargin (see the measurement above).
  static constexpr double kGateMargin = 0.15;

  /// `detector` must outlive the scanner and not be shared with other
  /// workers (its correlator workspace is mutable). A candidate
  /// confirms after a refractory lag of 1.25 symbols of the detector's
  /// PHY: strictly longer than one symbol, so the symbol-spaced
  /// sidelobes of the preamble's own autocorrelation cannot confirm
  /// before the true peak. `block_samples` is the fixed block size the
  /// caller feeds (its last block may be shorter): the scan buffers are
  /// sized for it here, and the coarse gate engages on blocks of
  /// exactly this size. 0 sizes the buffers on the first block and
  /// leaves the gate off.
  explicit PacketScanner(const core::PreambleDetector& detector,
                         double min_score = 0.6,
                         std::size_t block_samples = 0);

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

  /// Blocks the coarse gate cleared since construction or reset().
  std::uint64_t blocks_skipped() const { return blocks_skipped_; }

 private:
  /// Append the block's decimated samples to the gate history.
  void gate_feed(std::span<const double> env_block);
  /// True when the gate proves lags [first, end) of this block hold no
  /// score that can reach min_score.
  bool gate_clears(std::size_t block_len, std::uint64_t first,
                   std::uint64_t end);

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

  // Coarse gate (empty when off). The history holds the newest
  // gate-window of decimated samples, oldest first; it shifts by one
  // decimated block per block, so it never wraps and never allocates.
  const std::size_t gate_block_;
  std::optional<dsp::PreparedTemplate> gate_;  // decimated zero-mean template
  dsp::RealSignal gate_hist_;
  dsp::RealSignal gate_corr_;
  std::uint64_t gate_count_ = 0;  // decimated samples fed
  bool gate_aligned_ = true;      // every block so far a multiple of D
  std::uint64_t blocks_skipped_ = 0;
};

}  // namespace saiyan::stream
