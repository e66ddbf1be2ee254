#include "frontend/saw_filter.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "channel/temperature.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"
#include "dsp/utils.hpp"

namespace saiyan::frontend {
namespace {

// Measured response anchors digitized from paper Fig. 5 (frequency in
// MHz, amplitude in dB). The 433.5->434 MHz segment carries the three
// calibration points called out in the caption: 25 dB over 500 kHz,
// 9.5 dB over 250 kHz, 7.2 dB over 125 kHz, with -10 dB insertion loss
// at the passband edge.
constexpr std::array<double, 13> kFreqMhz = {
    428.0, 430.0, 432.0, 433.0, 433.5, 433.75, 433.875,
    434.0, 434.4, 434.8, 436.0, 438.0, 440.0};
constexpr std::array<double, 13> kGainDb = {
    -62.0, -55.0, -46.0, -40.0, -35.0, -19.5, -17.2,
    -10.0, -10.0, -13.0, -42.0, -55.0, -65.0};

}  // namespace

SawFilter::SawFilter(const SawFilterConfig& cfg)
    : shift_hz_(channel::saw_frequency_shift_hz(kPassbandEdgeHz, cfg.temperature_c)) {}

double SawFilter::response_db(double rf_frequency_hz) const {
  // A temperature shift of +s Hz moves the whole response up in
  // frequency; evaluating the nominal curve at (f - s) realizes that.
  const double f_mhz = (rf_frequency_hz - shift_hz_) / 1e6;
  return dsp::interp1(std::span<const double>(kFreqMhz),
                      std::span<const double>(kGainDb), f_mhz);
}

const dsp::RealSignal& SawFilter::gain_table(const dsp::FftPlan& plan,
                                             double fs_hz,
                                             double rf_center_hz) const {
  // Evaluating the interpolated response and the dB->amplitude
  // conversion per bin dominates the filter cost at Monte-Carlo packet
  // rates; the table only depends on (n, fs, rf_center), which are
  // fixed within a sweep, so memoize the most recent one.
  const std::size_t n = plan.size();
  if (gain_cache_.n != n || gain_cache_.fs_hz != fs_hz ||
      gain_cache_.rf_center_hz != rf_center_hz) {
    gain_cache_.n = n;
    gain_cache_.fs_hz = fs_hz;
    gain_cache_.rf_center_hz = rf_center_hz;
    gain_cache_.gains.resize(n);
    // The inverse transform's 1/n normalization is baked into the
    // table (the filter calls inverse_raw_scrambled), saving one full
    // sweep over the padded waveform per packet. Entry p scales the bin
    // the scrambled forward leaves at position p.
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t p = 0; p < n; ++p) {
      const double f = dsp::bin_frequency(plan.scrambled_bin(p), n, fs_hz);
      gain_cache_.gains[p] = dsp::db_to_amp(response_db(rf_center_hz + f)) * inv_n;
    }
  }
  return gain_cache_.gains;
}

dsp::Signal SawFilter::filter(std::span<const dsp::Complex> x, double fs_hz,
                              double rf_center_hz) const {
  dsp::Signal out;
  dsp::Signal scratch;
  filter_into(x, fs_hz, rf_center_hz, out, scratch);
  return out;
}

void SawFilter::filter_into(std::span<const dsp::Complex> x, double fs_hz,
                            double rf_center_hz, dsp::Signal& out,
                            dsp::Signal& fft_scratch) const {
  if (x.empty()) {
    out.clear();
    return;
  }
  // 3·2^k lengths are planned directly (radix-3 split), so a ~45k
  // packet pads 1.09x to 49152 instead of 1.45x to 65536 — the
  // dominant transform of the receive chain shrinks ~25%.
  // The round trip never puts the bins in natural order: the gains are
  // one multiply per bin, stored in the order the forward leaves them.
  const std::size_t n = dsp::next_fast_len(x.size());
  const auto plan = dsp::fft_plan(n);
  const dsp::RealSignal& gains = gain_table(*plan, fs_hz, rf_center_hz);
  out.resize(n);
  std::copy(x.begin(), x.end(), out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(x.size()), out.end(),
            dsp::Complex{});
  plan->forward_scrambled(out, fft_scratch);
  dsp::simd::complex_scale_table(out.data(), gains.data(), n);
  plan->inverse_raw_scrambled(out, fft_scratch);
  out.resize(x.size());
}

double SawFilter::recommended_rf_center_hz(double bandwidth_hz) {
  return kPassbandEdgeHz - bandwidth_hz / 2.0;
}

double SawFilter::amplitude_gap_db(double bandwidth_hz) const {
  const double top = response_db(kPassbandEdgeHz);
  const double bottom = response_db(kPassbandEdgeHz - bandwidth_hz);
  return top - bottom;
}

}  // namespace saiyan::frontend
