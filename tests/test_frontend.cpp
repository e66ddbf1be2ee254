// Front-end blocks: LNA, envelope detector (Eq. 4), comparators
// (Eq. 3 / Fig. 7), voltage sampler, clocks and the CFS circuit's
// SNR gain (Fig. 10).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "dsp/iir.hpp"
#include "dsp/nco.hpp"
#include "dsp/noise.hpp"
#include "dsp/simd.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/utils.hpp"
#include "frontend/cfs.hpp"
#include "frontend/clock.hpp"
#include "frontend/comparator.hpp"
#include "frontend/envelope_detector.hpp"
#include "frontend/lna.hpp"
#include "frontend/sampler.hpp"

namespace saiyan::frontend {
namespace {

TEST(Lna, AppliesGain) {
  LnaConfig cfg;
  cfg.gain_db = 20.0;
  const Lna lna(cfg);
  dsp::Rng rng(1);
  dsp::Signal x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = dsp::Complex(std::cos(0.2 * i), std::sin(0.2 * i));
  }
  dsp::set_power_dbm(x, -50.0);
  // The LNA rides the square-law kernel: with k = 1 its output is the
  // amplified waveform's instantaneous power.
  const LnaStage s = lna.stage();
  dsp::RealSignal y(x.size());
  dsp::simd::lna_square_law(x.data(), nullptr, x.size(), s.gain, s.sigma, 1.0,
                            y.data(), &rng);
  EXPECT_NEAR(dsp::watts_to_dbm(dsp::mean(y)), -30.0, 0.2);
}

TEST(Lna, AddsNoiseForWeakSignals) {
  LnaConfig cfg;
  cfg.gain_db = 20.0;
  cfg.noise_figure_db = 10.0;
  const Lna lna(cfg);
  dsp::Rng rng(2);
  dsp::Signal x(1 << 14, dsp::Complex{});  // silence in
  const LnaStage s = lna.stage();
  dsp::RealSignal y(x.size());
  dsp::simd::lna_square_law(x.data(), nullptr, x.size(), s.gain, s.sigma, 1.0,
                            y.data(), &rng);
  EXPECT_GT(dsp::mean(y), 0.0);  // noise out
}

TEST(EnvelopeDetector, SquareLawOnCleanTone) {
  EnvelopeDetectorConfig cfg;
  cfg.sample_rate_hz = 4e6;
  cfg.lpf_cutoff_hz = 100e3;
  const EnvelopeDetector ed(cfg);
  dsp::Signal x(1 << 14, dsp::Complex(2.0, 0.0));  // constant amplitude 2
  dsp::RealSignal y;
  FrontendScratch scratch;
  ed.detect_ws(x, std::nullopt, /*rng=*/nullptr, y, scratch);  // noiseless
  // After settling, output = k*|x|^2 = 4.
  EXPECT_NEAR(y.back(), 4.0, 0.05);
}

TEST(EnvelopeDetector, ImpairmentsAddNoiseFloor) {
  EnvelopeDetectorConfig cfg;
  cfg.sample_rate_hz = 4e6;
  const EnvelopeDetector ed(cfg);
  dsp::Rng rng(4);
  dsp::Signal silence(1 << 14, dsp::Complex{});
  // Square law + impairments only: the detector pass with no smoothing.
  dsp::RealSignal y;
  FrontendScratch scratch;
  ed.detect_into(silence, {}, std::nullopt, &rng, y, scratch,
                 [](double v, std::size_t) { return v; });
  // DC offset shows up as a non-zero mean; flicker+white as variance.
  EXPECT_GT(dsp::mean(y), 0.0);
  EXPECT_GT(dsp::variance(y), 0.0);
}

TEST(EnvelopeDetector, RejectsBadConfig) {
  EnvelopeDetectorConfig cfg;
  cfg.conversion_gain = 0.0;
  EXPECT_THROW(EnvelopeDetector{cfg}, std::invalid_argument);
}

TEST(Comparator, SingleThresholdChattersOnRipple) {
  // An envelope with a dip below threshold mid-peak splits the run —
  // the Fig. 7(c) failure the double threshold fixes.
  dsp::RealSignal env = {0.1, 0.5, 0.9, 0.6, 0.9, 0.5, 0.1};
  SingleThresholdComparator high(0.8);
  const dsp::BitVector bits = high.quantize(env);
  // Two disjoint high runs.
  int runs = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] && (i == 0 || !bits[i - 1])) ++runs;
  }
  EXPECT_EQ(runs, 2);
}

TEST(Comparator, DoubleThresholdBridgesValleys) {
  // Same envelope through Eq. 3: once latched above UH = 0.8, the
  // valley at 0.6 (> UL = 0.3) does not release the output.
  dsp::RealSignal env = {0.1, 0.5, 0.9, 0.6, 0.9, 0.5, 0.1};
  DoubleThresholdComparator comp(0.8, 0.3);
  const dsp::BitVector bits = comp.quantize(env);
  const dsp::BitVector expect = {0, 0, 1, 1, 1, 1, 0};
  EXPECT_EQ(bits, expect);
}

TEST(Comparator, DoubleThresholdIgnoresLowHumps) {
  // A hump that clears UL but not UH must not arm the comparator —
  // the Fig. 7(d) false positive.
  dsp::RealSignal env = {0.1, 0.4, 0.5, 0.4, 0.1, 0.9, 0.1};
  DoubleThresholdComparator comp(0.8, 0.3);
  const dsp::BitVector bits = comp.quantize(env);
  const dsp::BitVector expect = {0, 0, 0, 0, 0, 1, 0};
  EXPECT_EQ(bits, expect);
}

TEST(Comparator, Equation3TruthTable) {
  DoubleThresholdComparator comp(0.8, 0.3);
  // From low: A >= UH -> high, A < UH -> low (even if > UL).
  EXPECT_EQ(comp.quantize(dsp::RealSignal{0.5})[0], 0);
  EXPECT_EQ(comp.quantize(dsp::RealSignal{0.85})[0], 1);
  // From high: A >= UL -> high, A < UL -> low.
  const dsp::BitVector hold = comp.quantize(dsp::RealSignal{0.9, 0.35, 0.2});
  EXPECT_EQ(hold[1], 1);
  EXPECT_EQ(hold[2], 0);
}

TEST(Comparator, RequiresUhAboveUl) {
  EXPECT_THROW(DoubleThresholdComparator(0.3, 0.8), std::invalid_argument);
  EXPECT_THROW(DoubleThresholdComparator(0.5, 0.5), std::invalid_argument);
}

TEST(Thresholds, FromPeakFollowsSection41) {
  // UH = Amax / 10^(G/20), UL = UH - UF.
  const ThresholdPair t = thresholds_from_peak(1.0, 6.0, 0.2);
  EXPECT_NEAR(t.u_high, 0.501, 0.002);
  EXPECT_NEAR(t.u_low, 0.301, 0.002);
  EXPECT_THROW(thresholds_from_peak(0.0, 6.0, 0.1), std::invalid_argument);
  EXPECT_THROW(thresholds_from_peak(1.0, -1.0, 0.1), std::invalid_argument);
}

TEST(Thresholds, DegenerateRippleStillOrdered) {
  const ThresholdPair t = thresholds_from_peak(1.0, 3.0, 10.0);
  EXPECT_LT(t.u_low, t.u_high);
  EXPECT_GT(t.u_low, 0.0);
}

TEST(Sampler, RateFollowsPaperFormula) {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  const VoltageSampler s(p, 1.6);
  EXPECT_NEAR(s.sample_rate_hz(), 3.2 * 500e3 / 32.0, 1e-6);  // 50 kHz
}

TEST(Sampler, SamplesAtRequestedRate) {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  const VoltageSampler s(p, 1.6);
  dsp::BitVector bits(40960, 1);
  const SampledBits out = s.sample(bits, 4e6);
  // 40960 samples at 4 MHz = 10.24 ms; at 50 kHz -> 512 ticks.
  EXPECT_NEAR(static_cast<double>(out.bits.size()), 512.0, 2.0);
  EXPECT_NEAR(out.samples_per_symbol, 12.8, 1e-9);
}

TEST(Sampler, RejectsRateAboveSimulationRate) {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 5;
  const VoltageSampler s(p, 1e3);  // absurd multiplier
  dsp::BitVector bits(100, 0);
  EXPECT_THROW(s.sample(bits, 4e6), std::invalid_argument);
}

TEST(Clock, DelayLineCopyAndAlignment) {
  ClockConfig cfg;
  cfg.frequency_hz = 1e6;
  cfg.sample_rate_hz = 4e6;
  cfg.delay_line_phase_rad = 0.0;
  const ClockGenerator clk(cfg);
  EXPECT_NEAR(clk.alignment(), 1.0, 1e-12);  // cos(0) = 1 (Eq. 5 goal)
  const dsp::RealSignal a = clk.clk_in(16);
  const dsp::RealSignal b = clk.clk_out(16);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Clock, MisalignmentReducesRecovery) {
  ClockConfig cfg;
  cfg.frequency_hz = 1e6;
  cfg.sample_rate_hz = 4e6;
  cfg.delay_line_phase_rad = dsp::kPi / 3.0;
  EXPECT_NEAR(ClockGenerator(cfg).alignment(), 0.5, 1e-12);
}

TEST(Clock, RejectsBadFrequency) {
  ClockConfig cfg;
  cfg.frequency_hz = 3e6;  // above Nyquist
  cfg.sample_rate_hz = 4e6;
  EXPECT_THROW(ClockGenerator{cfg}, std::invalid_argument);
}

TEST(Cfs, RecoverAmplitudeModulation) {
  // AM tone through the CFS chain: the modulation must survive.
  EnvelopeDetectorConfig ed;
  ed.sample_rate_hz = 4e6;
  CfsConfig cfg;
  cfg.clock.sample_rate_hz = 4e6;
  cfg.output_lpf_cutoff_hz = 100e3;
  const CyclicFrequencyShifter cfs(cfg, ed);
  const double fs = 4e6;
  const double fm = 5e3;  // modulation rate
  dsp::Signal x(1 << 16);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    const double amp = 1.0 + 0.8 * std::cos(dsp::kTwoPi * fm * t);
    x[i] = dsp::Complex(amp, 0.0);
  }
  dsp::RealSignal y;
  FrontendScratch scratch;
  cfs.process_ws(x, std::nullopt, /*rng=*/nullptr, y, scratch);  // noiseless
  // The dominant non-DC frequency of the output tracks the modulation.
  EXPECT_NEAR(dsp::dominant_frequency(std::span<const double>(y), fs, 1e3), fm,
              1.5e3);
}

TEST(Cfs, SnrGainOverPlainDetector) {
  // The Fig. 10 experiment: a weak AM signal whose envelope sits under
  // the detector's flicker noise comes out cleaner through CFS.
  EnvelopeDetectorConfig ed;
  ed.sample_rate_hz = 4e6;
  CfsConfig cfg;
  cfg.clock.sample_rate_hz = 4e6;
  cfg.output_lpf_cutoff_hz = 100e3;
  const CyclicFrequencyShifter cfs(cfg, ed);
  const EnvelopeDetector plain(ed);

  dsp::Rng rng_a(6);
  dsp::Rng rng_b(6);
  const double fs = 4e6;
  const double fm = 8e3;
  dsp::Signal x(1 << 17);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    const double amp = 1.0 + 0.8 * std::cos(dsp::kTwoPi * fm * t);
    x[i] = dsp::Complex(amp, 0.0);
  }
  dsp::set_power_dbm(x, -68.0);  // weak enough that flicker dominates
  dsp::RealSignal y_plain, y_cfs;
  FrontendScratch scratch_a, scratch_b;
  plain.detect_ws(x, std::nullopt, &rng_a, y_plain, scratch_a);
  cfs.process_ws(x, std::nullopt, &rng_b, y_cfs, scratch_b);
  const double snr_plain =
      dsp::estimate_snr_db(std::span<const double>(y_plain), fs, 6e3, 10e3);
  const double snr_cfs =
      dsp::estimate_snr_db(std::span<const double>(y_cfs), fs, 6e3, 10e3);
  // Paper: ~11 dB gain; accept anything clearly positive and sizable.
  EXPECT_GT(snr_cfs - snr_plain, 6.0);
}

// The one-pass front end against the separate passes it replaced,
// written out here as plain scalar loops: the LNA with one draw per
// I/Q component, then the square law, then the flicker noise scaled by
// its normalizing gain, then y += dc + flicker + σ·white with
// per-sample draws, then the post-detection filters as whole-frame
// passes.

struct IsaGuard {
  ~IsaGuard() { dsp::simd::set_isa(dsp::simd::Isa::kAuto); }
};

/// Square law + impairments, pass by pass (null rng: no LNA draws and
/// square law only).
dsp::RealSignal composed_detect_raw(const EnvelopeDetectorConfig& cfg,
                                    const dsp::Signal& x,
                                    const double* mix_gain, LnaStage lna,
                                    dsp::Rng* rng) {
  const std::size_t n = x.size();
  const double k = cfg.conversion_gain;
  dsp::Signal amp(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng == nullptr) {
      amp[i] = dsp::Complex(lna.gain * x[i].real(), lna.gain * x[i].imag());
    } else {
      const double re = lna.gain * (x[i].real() + lna.sigma * rng->gaussian());
      const double im = lna.gain * (x[i].imag() + lna.sigma * rng->gaussian());
      amp[i] = dsp::Complex(re, im);
    }
  }
  dsp::RealSignal y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = amp[i].real();
    const double im = amp[i].imag();
    if (mix_gain != nullptr) {
      const double g2 = mix_gain[i] * mix_gain[i];
      y[i] = k * g2 * (re * re + im * im);
    } else {
      y[i] = k * (re * re + im * im);
    }
  }
  if (rng == nullptr) return y;
  // The detector's impairment levels (EnvelopeDetector's constructor).
  const double dc = k * dsp::dbm_to_watts(cfg.dc_offset_dbm_equiv);
  const double fl_amp = k * dsp::dbm_to_watts(cfg.flicker_noise_dbm_equiv);
  const double white_amp = k * dsp::dbm_to_watts(cfg.white_noise_dbm_equiv);
  const double sigma = std::sqrt(white_amp * white_amp);
  dsp::RealSignal fl;
  const double fl_gain =
      dsp::flicker_noise_unscaled(n, fl_amp * fl_amp, *rng, fl);
  for (double& v : fl) v = fl_gain * v;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += dc + fl[i] + sigma * rng->gaussian();
  }
  return y;
}

/// The CFS chain pass by pass: mixer gain into the square law, IF
/// bandpass, LO multiply, output low-pass.
dsp::RealSignal composed_cfs(const CfsConfig& cfg,
                             const EnvelopeDetectorConfig& ed,
                             const dsp::Signal& x, LnaStage lna,
                             dsp::Rng* rng) {
  const std::size_t n = x.size();
  const double fs = ed.sample_rate_hz;
  dsp::RealSignal clk = ClockGenerator(cfg.clock).clk_in(n);
  for (double& v : clk) v += 0.25;  // the input mixer's carrier leak
  dsp::RealSignal y = composed_detect_raw(ed, x, clk.data(), lna, rng);
  dsp::Biquad bp =
      dsp::Biquad::bandpass(cfg.clock.frequency_hz, fs, cfg.if_quality_factor);
  bp.scale_output(dsp::db_to_amp(cfg.if_gain_db));
  for (double& v : y) v = bp.step(v);
  dsp::Nco nco(cfg.clock.frequency_hz, fs, cfg.clock.delay_line_phase_rad);
  const dsp::RealSignal lo = nco.cosine(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] * lo[i];
  dsp::Biquad lpf = dsp::Biquad::lowpass(cfg.output_lpf_cutoff_hz, fs, 0.707);
  lpf.scale_output(2.0);
  for (double& v : y) v = lpf.step(v);
  return y;
}

bool same_bits(const dsp::RealSignal& a, const dsp::RealSignal& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(FusedFrontEnd, MatchesComposedPassesBitForBit) {
  IsaGuard guard;
  EnvelopeDetectorConfig ed;
  ed.sample_rate_hz = 4e6;
  ed.lpf_cutoff_hz = 100e3;
  CfsConfig cfg;
  cfg.clock.sample_rate_hz = 4e6;
  cfg.output_lpf_cutoff_hz = 100e3;
  const CyclicFrequencyShifter cfs(cfg, ed);
  const EnvelopeDetector det(ed);
  const LnaStage lna = Lna(LnaConfig{}).stage();
  for (std::size_t n : {1u, 3u, 4u, 5u, 255u, 4097u, 45312u}) {
    // Around -70 dBm, so the LNA, flicker and white terms all matter.
    dsp::Rng data(n);
    dsp::Signal x(n);
    for (dsp::Complex& v : x) {
      v = dsp::Complex(1e-5 * data.gaussian(), 1e-5 * data.gaussian());
    }
    for (dsp::simd::Isa isa : {dsp::simd::Isa::kScalar, dsp::simd::Isa::kAvx2}) {
      dsp::simd::set_isa(isa);
      // A null rng is the noiseless arm: no draws, no impairments.
      for (bool noisy : {true, false}) {
        const std::uint64_t seed = 7 * n + noisy;
        dsp::Rng want_rng(seed), got_rng(seed);
        dsp::Rng* want_r = noisy ? &want_rng : nullptr;
        dsp::Rng* got_r = noisy ? &got_rng : nullptr;
        FrontendScratch scratch;
        dsp::RealSignal got;

        // CFS arm.
        const dsp::RealSignal want_cfs = composed_cfs(cfg, ed, x, lna, want_r);
        cfs.process_ws(x, lna, got_r, got, scratch);
        ASSERT_TRUE(same_bits(want_cfs, got))
            << "cfs n=" << n << " isa=" << static_cast<int>(isa)
            << " noisy=" << noisy;
        ASSERT_EQ(want_rng.engine()(), got_rng.engine()()) << "cfs n=" << n;

        // Vanilla arm: the detector's one-pole smoother.
        dsp::RealSignal want_plain = composed_detect_raw(ed, x, nullptr, lna, want_r);
        dsp::OnePole smoother(ed.lpf_cutoff_hz, ed.sample_rate_hz);
        for (double& v : want_plain) v = smoother.step(v);
        det.detect_ws(x, lna, got_r, got, scratch);
        ASSERT_TRUE(same_bits(want_plain, got))
            << "vanilla n=" << n << " isa=" << static_cast<int>(isa)
            << " noisy=" << noisy;
        ASSERT_EQ(want_rng.engine()(), got_rng.engine()()) << "vanilla n=" << n;
      }
    }
  }
}

TEST(Cfs, RejectsMismatchedRates) {
  EnvelopeDetectorConfig ed;
  ed.sample_rate_hz = 4e6;
  CfsConfig cfg;
  cfg.clock.sample_rate_hz = 2e6;
  EXPECT_THROW(CyclicFrequencyShifter(cfg, ed), std::invalid_argument);
}

TEST(Cfs, RejectsLpfAboveIf) {
  EnvelopeDetectorConfig ed;
  ed.sample_rate_hz = 4e6;
  CfsConfig cfg;
  cfg.clock.sample_rate_hz = 4e6;
  cfg.clock.frequency_hz = 100e3;
  cfg.output_lpf_cutoff_hz = 200e3;
  EXPECT_THROW(CyclicFrequencyShifter(cfg, ed), std::invalid_argument);
}

}  // namespace
}  // namespace saiyan::frontend
