// SAW filter model (Qualcomm B39431-B3790-Z810, paper Fig. 5).
//
// Saiyan repurposes the steep monotonic skirt of this 434 MHz SAW
// filter as a frequency-to-amplitude converter: within the "critical
// band" 433.5–434 MHz its amplitude response rises 25 dB, so a chirp
// sweeping through the band comes out amplitude-modulated, peaking
// when the instantaneous frequency hits the top band edge.
//
// The model interpolates the measured response anchors from Fig. 5
// (incl. the 10 dB insertion loss at the passband) in dB and applies
// it as a frequency-domain LTI filter to the complex-baseband
// waveform. Ambient temperature shifts the response according to the
// substrate's TCF (channel/temperature.hpp).
//
// The filter runs FftPlan's scrambled round trip (dsp/fft.hpp): the
// forward leaves the bins in transform order, the per-bin gain table is
// stored in that same order, and the inverse starts from it, so no
// bit-reversal pass runs and the output is bit-identical to a
// natural-order round trip.
#pragma once

#include <span>

#include "dsp/types.hpp"

namespace saiyan::dsp {
class FftPlan;
}  // namespace saiyan::dsp

namespace saiyan::frontend {

struct SawFilterConfig {
  double temperature_c = 25.0;  ///< shifts the response via the TCF
};

class SawFilter {
 public:
  explicit SawFilter(const SawFilterConfig& cfg = {});

  /// Amplitude response (dB, negative = loss) at an absolute RF
  /// frequency, including the 10 dB insertion loss.
  double response_db(double rf_frequency_hz) const;

  /// Filter a complex-baseband waveform whose sample k / FFT bin f
  /// corresponds to RF frequency `rf_center_hz + f`. The waveform is
  /// zero-padded to the next FFT-friendly length (power of two or
  /// 3·2^k — a ~45k-sample packet transforms at 49152, not 65536).
  dsp::Signal filter(std::span<const dsp::Complex> x, double fs_hz,
                     double rf_center_hz) const;

  /// Workspace variant: `out` receives the filtered waveform (trimmed
  /// back to x.size()); `fft_scratch` backs the radix-3 de-interleave
  /// pass. Identical values to filter(), zero allocations once the
  /// buffers are warm.
  void filter_into(std::span<const dsp::Complex> x, double fs_hz,
                   double rf_center_hz, dsp::Signal& out,
                   dsp::Signal& fft_scratch) const;

  /// Center the chirp band so its top edge hits the passband edge
  /// (434 MHz): rf_center = 434 MHz - BW/2. This is how Saiyan aligns
  /// the LoRa channel with the critical band.
  static double recommended_rf_center_hz(double bandwidth_hz);

  /// Amplitude gap (dB) across a chirp of the given bandwidth whose
  /// top edge is aligned with the passband edge — the paper's
  /// Fig. 5/23 metric (25 dB @500 kHz, 9.5 dB @250 kHz, 7.2 dB @125 kHz).
  double amplitude_gap_db(double bandwidth_hz) const;

  /// Top edge of the critical band (passband edge), 434 MHz nominal.
  static constexpr double kPassbandEdgeHz = 434.0e6;

 private:
  /// Per-bin amplitude gains for `plan`'s transform, with 1/n folded
  /// in, in the order forward_scrambled leaves the bins: entry p scales
  /// bin plan.scrambled_bin(p). Memoized for the most recent geometry
  /// (fixed within a sweep); the cache makes instances
  /// non-thread-safe, and receive chains are per-thread.
  const dsp::RealSignal& gain_table(const dsp::FftPlan& plan, double fs_hz,
                                    double rf_center_hz) const;

  double shift_hz_;  // temperature-induced response shift

  struct GainCache {
    std::size_t n = 0;
    double fs_hz = 0.0;
    double rf_center_hz = 0.0;
    dsp::RealSignal gains;
  };
  mutable GainCache gain_cache_;
};

}  // namespace saiyan::frontend
