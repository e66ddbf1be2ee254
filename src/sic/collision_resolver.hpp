// Successive interference cancellation over decoded frame spans.
//
// The streaming scanner (stream::PacketScanner) reliably detects the
// *strongest* frame of a collision: a ≥6 dB weaker preamble buried in
// another frame's payload scores below the confirmation threshold in
// the mixed waveform (the strong payload's own symbol-spaced
// self-correlation out-competes it), so before this subsystem the
// weaker frame was simply lost. CollisionResolver turns that collision
// into captures with the classic decode → cancel → rescan loop:
//
//   1. a frame decodes (from the stream's one RF ring, which cancels
//      write into — see stream::StreamingDemodulator) exactly as it
//      always did;
//   2. cancel(): its transmit waveform is reconstructed from the
//      decoded symbols (lora::Remodulator), fitted to the residual by
//      least squares (complex amplitude + DC offset, searching a ±
//      sample window since detection is only sample-accurate to ~±2)
//      and subtracted in place via the bit-identical
//      dsp::simd::complex_scaled_subtract kernel;
//   3. rescan(): the cancelled span is re-scanned for a preamble that
//      was hidden under the frame — on the residual the weaker
//      preamble now scores at full strength — and any find is framed
//      and decoded like any other packet, at the next cancellation
//      depth.
//
// Decode errors in a stronger frame remodulate into an imperfect
// replica, so its subtraction is only as clean as its decode — the
// classic SIC error-propagation behavior. Equal-power collisions are
// the worst case: both decodes see ~0 dB interference, exactly as
// physics dictates.
//
// Every buffer (reconstructed frame, rescan envelope workspace,
// prewarmed modulator caches) reaches a steady-state size, after which
// a cancellation pass and a rescan allocate nothing. Instances are not
// thread-safe; shard captures across workers by giving each its own
// resolver.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/batch_demod.hpp"
#include "core/config.hpp"
#include "core/preamble_detector.hpp"
#include "core/receiver_chain.hpp"
#include "lora/remodulator.hpp"

namespace saiyan::sic {

/// ± sample search around the detected frame offset for the
/// least-squares fit (detection is sample-accurate to ~±2).
inline constexpr std::size_t kAlignRadius = 2;

struct SicConfig {
  /// Maximum cancellation depth per collision chain: a frame decoded
  /// at depth d is cancelled and its span rescanned only while
  /// d < depth, so depth 1 resolves two-frame collisions, depth 2
  /// three-way pileups, and 0 disables SIC entirely.
  std::size_t depth = 0;
};

/// A preamble found on a cancelled residual.
struct RescanHit {
  std::size_t offset = 0;  ///< preamble start relative to the region
  double score = 0.0;      ///< normalized correlation score
};

class CollisionResolver {
 public:
  /// `payload_symbols` fixes the frame geometry, exactly like the
  /// streaming demodulator's a-priori frame length.
  CollisionResolver(const core::SaiyanConfig& cfg, const SicConfig& sic,
                    std::size_t payload_symbols);

  /// Reconstruct the frame carrying `symbols`, least-squares fit it
  /// against `region` (whose sample `frame_off` is the frame's
  /// detected first sample; the region should carry kAlignRadius
  /// padding when available) and subtract it in place. Returns the
  /// fitted |amplitude|.
  double cancel(std::span<dsp::Complex> region, std::size_t frame_off,
                std::span<const std::uint32_t> symbols);

  /// Scan a residual region for a hidden preamble: vanilla reference
  /// envelope, then the batch detector's prepared correlator.
  std::optional<RescanHit> rescan(std::span<const dsp::Complex> region);

  const SicConfig& config() const { return cfg_; }
  std::size_t frame_samples() const { return remod_.frame_samples(); }
  std::size_t preamble_samples() const { return remod_.payload_start(); }

 private:
  SicConfig cfg_;
  lora::Remodulator remod_;
  core::ReceiverChain chain_;        // vanilla-mode rescan front end
  core::PreambleDetector detector_;
  core::DemodWorkspace ws_;          // rescan envelope workspace
  dsp::RealSignal scratch_;          // detector mean-removal scratch
  dsp::Signal tx_;                   // reconstructed frame
};

}  // namespace saiyan::sic
