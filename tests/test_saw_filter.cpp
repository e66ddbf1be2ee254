// SAW filter model against the paper's Fig. 5 / Fig. 23 anchors.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/simd.hpp"
#include "dsp/utils.hpp"
#include "frontend/saw_filter.hpp"
#include "lora/chirp.hpp"

namespace saiyan::frontend {
namespace {

TEST(SawFilter, Figure5Anchors) {
  const SawFilter saw;
  // Caption of Fig. 5: insertion loss 10 dB at the passband edge;
  // 25 / 9.5 / 7.2 dB amplitude variation across 500/250/125 kHz.
  EXPECT_NEAR(saw.response_db(434.0e6), -10.0, 0.3);
  EXPECT_NEAR(saw.response_db(434.0e6) - saw.response_db(433.5e6), 25.0, 0.5);
  EXPECT_NEAR(saw.response_db(434.0e6) - saw.response_db(433.75e6), 9.5, 0.5);
  EXPECT_NEAR(saw.response_db(434.0e6) - saw.response_db(433.875e6), 7.2, 0.5);
}

TEST(SawFilter, AmplitudeGapMatchesBandwidths) {
  const SawFilter saw;
  EXPECT_NEAR(saw.amplitude_gap_db(500e3), 25.0, 0.5);
  EXPECT_NEAR(saw.amplitude_gap_db(250e3), 9.5, 0.5);
  EXPECT_NEAR(saw.amplitude_gap_db(125e3), 7.2, 0.5);
}

TEST(SawFilter, MonotoneInCriticalBand) {
  const SawFilter saw;
  double prev = saw.response_db(433.5e6);
  for (double f = 433.51e6; f <= 434.0e6; f += 10e3) {
    const double g = saw.response_db(f);
    EXPECT_GE(g, prev - 1e-9) << "non-monotone at " << f;
    prev = g;
  }
}

TEST(SawFilter, StopbandsAreDeep) {
  const SawFilter saw;
  EXPECT_LT(saw.response_db(428e6), -55.0);
  EXPECT_LT(saw.response_db(440e6), -55.0);
}

TEST(SawFilter, RecommendedCenterAlignsTopEdge) {
  EXPECT_NEAR(SawFilter::recommended_rf_center_hz(500e3), 433.75e6, 1.0);
  EXPECT_NEAR(SawFilter::recommended_rf_center_hz(125e3), 433.9375e6, 1.0);
}

TEST(SawFilter, TemperatureShiftsResponse) {
  const SawFilter cold(SawFilterConfig{-10.0});
  const SawFilter nominal(SawFilterConfig{25.0});
  // With a negative TCF, cold shifts the response up in frequency, so
  // the steep skirt moves up and the response at a fixed skirt
  // frequency drops.
  EXPECT_LT(cold.response_db(433.75e6), nominal.response_db(433.75e6));
  // At reference temperature the shift is zero.
  EXPECT_NEAR(nominal.response_db(433.9e6),
              SawFilter(SawFilterConfig{25.0}).response_db(433.9e6), 1e-12);
}

TEST(SawFilter, FilterAppliesFrequencyDependentGain) {
  // A tone at the passband edge must come through ~15 dB stronger
  // (amplitude difference between -10 dB and -35 dB relative response
  // at the two band edges is 25 dB).
  const SawFilter saw;
  const double fs = 4e6;
  const double rf_center = 433.75e6;
  const std::size_t n = 1 << 14;
  auto tone_out_power = [&](double offset_hz) {
    dsp::Signal x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double ph = dsp::kTwoPi * offset_hz * static_cast<double>(i) / fs;
      x[i] = dsp::Complex(std::cos(ph), std::sin(ph));
    }
    const dsp::Signal y = saw.filter(x, fs, rf_center);
    // Ignore edge transients.
    double p = 0.0;
    for (std::size_t i = n / 4; i < 3 * n / 4; ++i) p += std::norm(y[i]);
    return p;
  };
  const double top = tone_out_power(+250e3);    // at 434.0 MHz
  const double bottom = tone_out_power(-250e3); // at 433.5 MHz
  EXPECT_NEAR(10.0 * std::log10(top / bottom), 25.0, 1.0);
}

TEST(SawFilter, ChirpBecomesAmplitudeModulated) {
  // Feed one base up-chirp through the SAW model: the output amplitude
  // must peak near the symbol end (chip 0 peaks at t = Tsym), the
  // frequency-amplitude transformation of Fig. 6.
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  const SawFilter saw;
  const dsp::Signal chirp = lora::upchirp(p, 0);
  const dsp::Signal out =
      saw.filter(chirp, p.sample_rate_hz, SawFilter::recommended_rf_center_hz(p.bandwidth_hz));
  // Smooth |out| with a simple moving average and find the maximum.
  const std::size_t w = 64;
  double best = -1.0;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i + w < out.size(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < w; ++j) acc += std::abs(out[i + j]);
    if (acc > best) {
      best = acc;
      best_i = i + w / 2;
    }
  }
  const double frac = static_cast<double>(best_i) / static_cast<double>(out.size());
  EXPECT_GT(frac, 0.9);  // peak at the tail of the symbol
}

// The natural-order round trip the filter replaces: forward, a gain
// table indexed by bin, unnormalized inverse, trim.
dsp::Signal natural_round_trip(const SawFilter& saw, const dsp::Signal& x,
                               double fs, double rf_center) {
  const std::size_t n = dsp::next_fast_len(x.size());
  const auto plan = dsp::fft_plan(n);
  const double inv_n = 1.0 / static_cast<double>(n);
  dsp::RealSignal gains(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double f = dsp::bin_frequency(k, n, fs);
    gains[k] = dsp::db_to_amp(saw.response_db(rf_center + f)) * inv_n;
  }
  dsp::Signal y(n), scratch;
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i];
  plan->forward(y, scratch);
  dsp::simd::complex_scale_table(y.data(), gains.data(), n);
  plan->inverse_raw(y, scratch);
  y.resize(x.size());
  return y;
}

TEST(SawFilter, FilterIntoMatchesTheNaturalOrderRoundTripBitForBit) {
  // The scan block (8192), decode frame (45 312 -> 49 152) and SIC
  // rescan region (57 856 -> 65 536), plus odd lengths and lengths that
  // pad to a power of two or to 3·2^k. Repeated lengths exercise the
  // memoized gain table, changed ones its rebuild.
  const SawFilter saw(SawFilterConfig{40.0});
  const double fs = 4e6;
  const double rf_center = SawFilter::recommended_rf_center_hz(500e3);
  dsp::Signal out, scratch;
  for (std::size_t len : {1u, 2u, 3u, 5u, 7u, 30u, 1000u, 1023u, 1024u, 1025u,
                          8192u, 8192u, 12289u, 45312u, 57856u, 57856u}) {
    dsp::Rng rng(len);
    dsp::Signal x(len);
    for (dsp::Complex& v : x) v = dsp::Complex(rng.gaussian(), rng.gaussian());
    saw.filter_into(x, fs, rf_center, out, scratch);
    const dsp::Signal want = natural_round_trip(saw, x, fs, rf_center);
    ASSERT_EQ(out.size(), want.size());
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < len; ++i) {
      if (std::bit_cast<std::uint64_t>(out[i].real()) !=
              std::bit_cast<std::uint64_t>(want[i].real()) ||
          std::bit_cast<std::uint64_t>(out[i].imag()) !=
              std::bit_cast<std::uint64_t>(want[i].imag())) {
        ++mismatched;
      }
    }
    EXPECT_EQ(mismatched, 0u) << "len=" << len;
  }
}

TEST(SawFilter, EmptyInput) {
  const SawFilter saw;
  EXPECT_TRUE(saw.filter(dsp::Signal{}, 4e6, 433.75e6).empty());
}

}  // namespace
}  // namespace saiyan::frontend
