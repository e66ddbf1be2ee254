#include "dsp/noise.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/simd.hpp"
#include "dsp/utils.hpp"

namespace saiyan::dsp {

Signal complex_awgn(std::size_t n, double power_watts, Rng& rng) {
  if (power_watts < 0.0) throw std::invalid_argument("complex_awgn: negative power");
  const double sigma = std::sqrt(power_watts / 2.0);
  Signal out(n);
  double* d = reinterpret_cast<double*>(out.data());
  simd::fill_gaussian(rng, d, 2 * n);
  simd::scale(d, 2 * n, sigma, d);
  return out;
}

void add_awgn(Signal& x, double power_watts, Rng& rng) {
  if (power_watts < 0.0) throw std::invalid_argument("add_awgn: negative power");
  const double sigma = std::sqrt(power_watts / 2.0);
  for (Complex& v : x) {
    v += Complex(sigma * rng.gaussian(), sigma * rng.gaussian());
  }
}

RealSignal real_white_noise(std::size_t n, double power_watts, Rng& rng) {
  if (power_watts < 0.0) throw std::invalid_argument("real_white_noise: negative power");
  const double sigma = std::sqrt(power_watts);
  RealSignal out(n);
  simd::fill_gaussian(rng, out.data(), n);
  simd::scale(out.data(), n, sigma, out.data());
  return out;
}

double flicker_noise_unscaled(std::size_t n, double power_watts, Rng& rng,
                              RealSignal& out) {
  if (power_watts < 0.0) throw std::invalid_argument("flicker_noise: negative power");
  // Sum of octave-spaced one-pole low-pass stages driven by white
  // noise, each normalized to equal variance — equal power per
  // frequency octave, the defining property of 1/f noise. Stage
  // corners run from fs/80 (highest) down by 4x per stage, so the
  // power sits at low frequencies (well below a typical IF), which is
  // exactly why cyclic-frequency shifting can escape it.
  constexpr std::size_t kStages = 6;
  std::array<double, kStages> state{};
  std::array<double, kStages> alpha{};
  std::array<double, kStages> gain{};
  double fc_over_fs = 1.0 / 80.0;
  for (std::size_t s = 0; s < kStages; ++s) {
    alpha[s] = 1.0 - std::exp(-kTwoPi * fc_over_fs);
    // One-pole output variance for unit white input is a/(2-a);
    // equalize every stage.
    gain[s] = 1.0 / std::sqrt(alpha[s] / (2.0 - alpha[s]));
    fc_over_fs /= 4.0;
  }
  out.resize(n);
  // One shared white draw drives all stages (Kellet-style pink
  // filter): same 1/f-dominated spectrum, one gaussian per sample
  // instead of one per stage — this is the hottest noise source in the
  // receive chain. The shared input correlates the stages (coherent
  // low-frequency sum), but with the empirical total-power
  // normalization below the measured effect on the envelope band is
  // negligible: <0.2 dB in 0–200 kHz and ~0.5 dB across sub-bands
  // versus independent drives at fs = 4 MHz (docs/PERFORMANCE.md).
  // The drive is drawn a stack block at a time (same stream order as
  // per-sample draws); the stage recurrence itself is sequential. Each
  // block runs on local copies of the filter, which the compiler keeps
  // in registers — through the captured references every store to the
  // output could alias the state.
  double* y = out.data();
  simd::for_each_gaussian_block(
      rng, n, [&](const double* w, std::size_t i0, std::size_t m) {
        std::array<double, kStages> st = state;
        const std::array<double, kStages> a = alpha;
        const std::array<double, kStages> g = gain;
        for (std::size_t j = 0; j < m; ++j) {
          const double wj = w[j];
          double acc = 0.0;
          for (std::size_t s = 0; s < kStages; ++s) {
            st[s] += a[s] * (wj - st[s]);
            acc += g[s] * st[s];
          }
          y[i0 + j] = acc;
        }
        state = st;
      });
  // The gain that normalizes the realization to the requested power.
  const double p = signal_power(std::span<const double>(out));
  return p > 0.0 ? std::sqrt(power_watts / p) : 1.0;
}

double thermal_noise_floor_dbm(double bandwidth_hz, double noise_figure_db) {
  if (bandwidth_hz <= 0.0) {
    throw std::invalid_argument("thermal_noise_floor_dbm: bandwidth must be > 0");
  }
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

}  // namespace saiyan::dsp
