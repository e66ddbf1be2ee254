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

#include "dsp/noise.hpp"
#include "dsp/rng.hpp"
#include "dsp/simd.hpp"
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

  /// Full detector: square-law + impairments + smoothing low-pass,
  /// written into a caller-owned buffer. With `lna` set, `x` is the
  /// *unamplified* waveform and the CG-LNA stage (y = gain·(x + noise))
  /// rides the square-law kernel; without it the input is detected as
  /// given. A null `rng` is the noiseless reference: no LNA draws and
  /// no impairments.
  void detect_ws(std::span<const dsp::Complex> x, std::optional<LnaStage> lna,
                 dsp::Rng* rng, dsp::RealSignal& out,
                 FrontendScratch& scratch) const;

  /// The detector in one pass over the frame: y = k·gain²·|x|² (with
  /// `x` pre-multiplied by a real per-sample mixer gain, empty: none)
  /// plus impairments, each sample handed through `post(y, i)` before
  /// it is stored in out[i]. The post-detection filters ride the same
  /// pass instead of sweeping the frame again.
  ///
  /// With an `rng` the noise is drawn in the per-sample stream order —
  /// all LNA pairs, then every flicker drive, then one white draw per
  /// sample — in three steps: the LNA draws ride the square-law kernel
  /// into `out`, the flicker recurrence fills scratch.flicker, and the
  /// white draws come a stack block at a time inside the final pass,
  /// which adds dc + flicker + σ·white and runs `post`. Every value is
  /// computed with the operations, in the order, of the separate
  /// passes it replaces, so the output is bit-identical to them.
  template <typename Post>
  void detect_into(std::span<const dsp::Complex> x,
                   std::span<const double> mix_gain,
                   std::optional<LnaStage> lna, dsp::Rng* rng,
                   dsp::RealSignal& out, FrontendScratch& scratch,
                   Post post) const;

  const EnvelopeDetectorConfig& config() const { return cfg_; }

 private:
  /// out = k·gain²·|g·(x + LNA noise)|², drawing the LNA noise from
  /// `rng` when both `lna` and `rng` are set.
  void square_law_into(std::span<const dsp::Complex> x,
                       std::span<const double> mix_gain,
                       std::optional<LnaStage> lna, dsp::Rng* rng,
                       dsp::RealSignal& out) const;

  EnvelopeDetectorConfig cfg_;
  double dc_level_;
  double flicker_watts_;
  double white_sigma_;
};

template <typename Post>
void EnvelopeDetector::detect_into(std::span<const dsp::Complex> x,
                                   std::span<const double> mix_gain,
                                   std::optional<LnaStage> lna, dsp::Rng* rng,
                                   dsp::RealSignal& out,
                                   FrontendScratch& scratch, Post post) const {
  square_law_into(x, mix_gain, lna, rng, out);
  const std::size_t n = out.size();
  double* y = out.data();
  if (rng == nullptr) {
    for (std::size_t i = 0; i < n; ++i) y[i] = post(y[i], i);
    return;
  }
  // DC offset, 1/f flicker and white noise. Flicker needs its own
  // buffer (it is normalized over the whole realization); its
  // normalizing gain, the DC level and the white draws fold into the
  // final pass.
  const double fl_gain =
      dsp::flicker_noise_unscaled(n, flicker_watts_, *rng, scratch.flicker);
  const double* fl = scratch.flicker.data();
  const double dc = dc_level_;
  const double sigma = white_sigma_;
  dsp::simd::for_each_gaussian_block(
      *rng, n, [&](const double* w, std::size_t i0, std::size_t m) {
        for (std::size_t j = 0; j < m; ++j) {
          const std::size_t i = i0 + j;
          y[i] = post(y[i] + ((dc + fl_gain * fl[i]) + sigma * w[j]), i);
        }
      });
}

}  // namespace saiyan::frontend
