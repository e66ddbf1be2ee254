// Square-law envelope detector (paper Eq. 4 and §3.1).
//
// The detector output is k·|S_in|^2: self-mixing shifts the wanted
// signal to baseband but also folds RF noise down with it
// (2k·St·Sn + k·Sn^2). On top of that the CMOS detector adds its own
// baseband impairments — DC offset, 1/f flicker noise and white
// noise — which sit exactly where the demodulator wants to read the
// envelope. The cyclic-frequency-shifting circuit (cfs.hpp) exists to
// escape these; the noise levels here are what give CFS its ~11 dB
// SNR gain (paper Fig. 10).
#pragma once

#include <optional>
#include <span>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "frontend/lna.hpp"
#include "frontend/workspace.hpp"

namespace saiyan::frontend {

struct EnvelopeDetectorConfig {
  double conversion_gain = 1.0;     ///< k in y = k |x|^2
  double lpf_cutoff_hz = 200e3;     ///< post-detection smoothing
  double sample_rate_hz = 4e6;
  // Baseband impairments, expressed as equivalent detector-output
  // levels relative to the response to a -50 dBm input (i.e. scaled by
  // k so they track the conversion gain). Calibrated so that the
  // envelope-detector-only receiver loses ~30 dB of sensitivity vs.
  // Saiyan (paper §5.2.1) and CFS recovers ~11 dB (paper §3.1).
  double dc_offset_dbm_equiv = -62.0;      ///< static offset
  double flicker_noise_dbm_equiv = -65.0;  ///< 1/f power (in-band)
  double white_noise_dbm_equiv = -89.0;    ///< broadband floor
};

class EnvelopeDetector {
 public:
  explicit EnvelopeDetector(const EnvelopeDetectorConfig& cfg);

  /// Full detector: square-law + impairments + smoothing low-pass.
  dsp::RealSignal detect(std::span<const dsp::Complex> x, dsp::Rng& rng) const;

  /// Square-law + impairments only, no smoothing — the wideband output
  /// the CFS circuit taps before its IF amplifier.
  dsp::RealSignal detect_raw(std::span<const dsp::Complex> x, dsp::Rng& rng) const;

  /// Workspace entries: write into a caller-owned buffer through the
  /// fused LNA + square-law kernel, drawing the impairment noise
  /// through the scratch's reusable buffers. With `lna` set, `x` is
  /// the *unamplified* waveform and the CG-LNA stage
  /// (y = gain·(x + noise)) rides the square-law kernel. A null `rng`
  /// is the noiseless reference: no LNA draws and no impairments.
  /// Values and RNG consumption of detect()/detect_raw() are these
  /// with no LNA stage.
  void detect_ws(std::span<const dsp::Complex> x, std::optional<LnaStage> lna,
                 dsp::Rng* rng, dsp::RealSignal& out,
                 FrontendScratch& scratch) const;

  /// Unsmoothed, with `x` pre-multiplied by a real per-sample mixer
  /// gain (empty: none): y = k·gain²·|x|² + impairments. Lets the CFS
  /// input mixer skip materializing the mixed complex waveform.
  void detect_raw_ws(std::span<const dsp::Complex> x,
                     std::span<const double> mix_gain,
                     std::optional<LnaStage> lna, dsp::Rng* rng,
                     dsp::RealSignal& out, FrontendScratch& scratch) const;

  const EnvelopeDetectorConfig& config() const { return cfg_; }

 private:
  /// Adds DC offset, 1/f flicker and white noise to a detector output.
  void add_impairments(dsp::RealSignal& y, dsp::Rng& rng,
                       FrontendScratch& scratch) const;

  EnvelopeDetectorConfig cfg_;
  double dc_level_;
  double flicker_watts_;
  double white_watts_;
};

}  // namespace saiyan::frontend
