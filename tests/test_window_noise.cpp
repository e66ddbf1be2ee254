// Window functions and noise generators.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/noise.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/utils.hpp"
#include "dsp/window.hpp"

namespace saiyan::dsp {
namespace {

class WindowShape : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowShape, SymmetricAndBounded) {
  const RealSignal w = make_window(GetParam(), 65);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << "asymmetric at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowShape,
                         ::testing::Values(WindowType::kRectangular,
                                           WindowType::kHann, WindowType::kHamming,
                                           WindowType::kBlackman,
                                           WindowType::kKaiser));

TEST(Window, HannEndpointsAndCenter) {
  const RealSignal w = make_window(WindowType::kHann, 33);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 0.0, 1e-12);
  EXPECT_NEAR(w[16], 1.0, 1e-12);
}

TEST(Window, RejectsZeroLength) {
  EXPECT_THROW(make_window(WindowType::kHann, 0), std::invalid_argument);
}

TEST(Window, SingleSampleIsUnity) {
  const RealSignal w = make_window(WindowType::kBlackman, 1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 1.0);
}

TEST(Window, BesselI0KnownValues) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-12);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658, 1e-6);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871, 1e-4);
}

TEST(Noise, ComplexAwgnPower) {
  Rng rng(1);
  const double p = 2.5e-9;
  const Signal n = complex_awgn(200000, p, rng);
  EXPECT_NEAR(signal_power(n) / p, 1.0, 0.03);
}

TEST(Noise, AddAwgnIncreasesPowerAdditively) {
  Rng rng(2);
  Signal x(100000, Complex(1.0, 0.0));
  add_awgn(x, 0.5, rng);
  EXPECT_NEAR(signal_power(x), 1.5, 0.05);
}

TEST(Noise, RealWhitePower) {
  Rng rng(3);
  const RealSignal n = real_white_noise(200000, 4.0, rng);
  EXPECT_NEAR(signal_power(std::span<const double>(n)), 4.0, 0.1);
}

// n samples of flicker noise at `power_watts`: the raw stage sum times
// its normalizing gain.
RealSignal scaled_flicker(std::size_t n, double power_watts, Rng& rng) {
  RealSignal out;
  const double gain = flicker_noise_unscaled(n, power_watts, rng, out);
  for (double& v : out) v = gain * v;
  return out;
}

TEST(Noise, FlickerPowerNormalized) {
  Rng rng(4);
  const RealSignal n = scaled_flicker(200000, 1.0, rng);
  EXPECT_NEAR(signal_power(std::span<const double>(n)), 1.0, 0.05);
}

TEST(Noise, FlickerIsLowFrequencyDominated) {
  // The 1/f generator must put far more power below fs/100 than in a
  // same-width band around fs/4 — this is what lets the CFS circuit
  // escape it (paper §3.1).
  Rng rng(5);
  const double fs = 4e6;
  const RealSignal n = scaled_flicker(1 << 18, 1.0, rng);
  const Psd psd = welch_psd(std::span<const double>(n), fs, 4096);
  double low = 0.0;
  double mid = 0.0;
  for (std::size_t i = 0; i < psd.frequency_hz.size(); ++i) {
    const double f = psd.frequency_hz[i];
    const double p = dbm_to_watts(psd.power_dbm[i]);
    if (f > 0 && f < fs / 100.0) low += p;
    if (f > fs / 4.0 && f < fs / 4.0 + fs / 100.0) mid += p;
  }
  EXPECT_GT(low, 50.0 * mid);
}

TEST(Noise, ThermalFloorAnchors) {
  // kT = -174 dBm/Hz: 500 kHz + 6 dB NF = -111 dBm.
  EXPECT_NEAR(thermal_noise_floor_dbm(500e3, 6.0), -111.0, 0.05);
  EXPECT_NEAR(thermal_noise_floor_dbm(125e3, 0.0), -123.0, 0.05);
  EXPECT_THROW(thermal_noise_floor_dbm(0.0, 3.0), std::invalid_argument);
}

TEST(Noise, NegativePowerRejected) {
  Rng rng(6);
  EXPECT_THROW(complex_awgn(10, -1.0, rng), std::invalid_argument);
  EXPECT_THROW(real_white_noise(10, -1.0, rng), std::invalid_argument);
  EXPECT_THROW(scaled_flicker(10, -1.0, rng), std::invalid_argument);
}

TEST(Rng, DeterministicWithSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
  }
}

}  // namespace
}  // namespace saiyan::dsp
