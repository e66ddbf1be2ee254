// Cyclic-frequency shifting circuit (paper §3.1, Figs. 9 & 11).
//
// The square-law envelope detector dumps its self-mixing products, DC
// offset and flicker noise at baseband — right on top of the wanted
// envelope. CFS sidesteps this:
//
//   1. input mixer: multiply the RF signal with CLK_in(Δf), creating
//      sidebands at F±Δf;
//   2. envelope detection: the sidebands beat against the carrier so
//      the wanted envelope lands at the *intermediate frequency* Δf,
//      while the detector's own noise still lands at DC;
//   3. IF amplifier: a frequency-selective low-power amplifier (2N2222
//      transistor stage, modelled as a bandpass biquad with gain)
//      boosts the clean IF copy and rejects the polluted baseband;
//   4. output mixer: multiply with CLK_out(Δf) (delay-line copy of
//      CLK_in) to bring the envelope back to baseband, pushing the DC
//      noise up to Δf;
//   5. low-pass filter: remove the Δf-shifted noise and the 2Δf image.
//
// Net effect: the envelope reaches the comparator with the detector's
// baseband noise removed — the paper measures an 11 dB SNR gain.
#pragma once

#include <optional>
#include <span>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "frontend/clock.hpp"
#include "frontend/envelope_detector.hpp"

namespace saiyan::frontend {

struct CfsConfig {
  ClockConfig clock;                  ///< Δf and the delay-line phase
  double if_gain_db = 20.0;           ///< IF amplifier gain
  double if_quality_factor = 3.0;     ///< IF bandpass selectivity (BW = Δf/Q)
  double output_lpf_cutoff_hz = 200e3;
};

class CyclicFrequencyShifter {
 public:
  CyclicFrequencyShifter(const CfsConfig& cfg, const EnvelopeDetectorConfig& ed_cfg);

  /// Run the full CFS chain on an RF complex-baseband waveform and
  /// write the recovered baseband envelope into `out`, reusing the
  /// scratch's cached mixer-clock tables (regenerated only when the
  /// waveform length changes) and noise buffers. `lna` and `rng` as in
  /// EnvelopeDetector::detect_ws: an optional CG-LNA stage folded into
  /// the square-law kernel, and null `rng` for the noiseless reference.
  void process_ws(std::span<const dsp::Complex> rf, std::optional<LnaStage> lna,
                  dsp::Rng* rng, dsp::RealSignal& out,
                  FrontendScratch& scratch) const;

  const CfsConfig& config() const { return cfg_; }

 private:
  CfsConfig cfg_;
  EnvelopeDetector detector_;
  ClockGenerator clocks_;
  double fs_hz_;
};

}  // namespace saiyan::frontend
