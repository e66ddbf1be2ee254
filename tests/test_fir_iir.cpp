// FIR design / filtering and IIR biquad / one-pole behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/fir.hpp"
#include "dsp/rng.hpp"
#include "dsp/iir.hpp"
#include "dsp/nco.hpp"
#include "dsp/utils.hpp"

namespace saiyan::dsp {
namespace {

double tone_gain_through_fir(const RealSignal& taps, double f, double fs) {
  Nco nco(f, fs);
  const std::size_t n = 4096;
  RealSignal x = nco.cosine(n);
  const RealSignal y = fft_filter(std::span<const double>(x), taps);
  // Compare RMS in the steady-state middle.
  double px = 0.0;
  double py = 0.0;
  for (std::size_t i = n / 4; i < 3 * n / 4; ++i) {
    px += x[i] * x[i];
    py += y[i] * y[i];
  }
  return std::sqrt(py / px);
}

TEST(FirDesign, LowpassPassesPassbandRejectsStopband) {
  const double fs = 1e6;
  const RealSignal taps = design_lowpass(100e3, fs, 101);
  EXPECT_NEAR(tone_gain_through_fir(taps, 10e3, fs), 1.0, 0.05);
  EXPECT_LT(tone_gain_through_fir(taps, 300e3, fs), 0.02);
}

TEST(FirDesign, HighpassRejectsDcPassesHigh) {
  const double fs = 1e6;
  const RealSignal taps = design_highpass(100e3, fs, 101);
  EXPECT_LT(tone_gain_through_fir(taps, 10e3, fs), 0.05);
  EXPECT_NEAR(tone_gain_through_fir(taps, 400e3, fs), 1.0, 0.05);
}

TEST(FirDesign, BandpassSelectsBand) {
  const double fs = 4e6;
  const RealSignal taps = design_bandpass(400e3, 600e3, fs, 201);
  EXPECT_NEAR(tone_gain_through_fir(taps, 500e3, fs), 1.0, 0.08);
  EXPECT_LT(tone_gain_through_fir(taps, 100e3, fs), 0.05);
  EXPECT_LT(tone_gain_through_fir(taps, 1.5e6, fs), 0.05);
}

TEST(FirDesign, RejectsBadArguments) {
  EXPECT_THROW(design_lowpass(0.0, 1e6, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(600e3, 1e6, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(100e3, 1e6, 0), std::invalid_argument);
  EXPECT_THROW(design_highpass(100e3, 1e6, 30), std::invalid_argument);  // even taps
  EXPECT_THROW(design_bandpass(300e3, 200e3, 1e6, 31), std::invalid_argument);
}

TEST(FirFilterClass, StreamingMatchesBlockProcessing) {
  const RealSignal taps = design_lowpass(0.1, 1.0, 21);
  FirFilter a(taps);
  FirFilter b(taps);
  Rng rng(3);
  RealSignal x(256);
  for (double& v : x) v = rng.gaussian();
  const RealSignal block = a.process(std::span<const double>(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(b.step(x[i]), block[i], 1e-12);
  }
}

TEST(FirFilterClass, ResetClearsState) {
  const RealSignal taps = design_lowpass(0.1, 1.0, 21);
  FirFilter f(taps);
  f.step(1.0);
  f.reset();
  // After reset an impulse must reproduce the first tap exactly.
  EXPECT_NEAR(f.step(1.0), taps[0], 1e-15);
}

TEST(FirFilterClass, GroupDelay) {
  FirFilter f(design_lowpass(0.1, 1.0, 21));
  EXPECT_NEAR(f.group_delay(), 10.0, 1e-12);
}

TEST(FftFilter, CompensatesGroupDelay) {
  const double fs = 1e6;
  const RealSignal taps = design_lowpass(200e3, fs, 63);
  // A slow ramp should come through nearly unchanged and aligned.
  RealSignal x(512);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const RealSignal y = fft_filter(std::span<const double>(x), taps);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 100; i < 400; ++i) {
    EXPECT_NEAR(y[i], x[i], 1.0) << i;
  }
}

TEST(Biquad, LowpassMagnitudeResponse) {
  const Biquad lp = Biquad::lowpass(100e3, 1e6, 0.707);
  EXPECT_NEAR(lp.magnitude(1e3, 1e6), 1.0, 0.01);
  EXPECT_NEAR(lp.magnitude(100e3, 1e6), 0.707, 0.03);
  EXPECT_LT(lp.magnitude(400e3, 1e6), 0.1);
}

TEST(Biquad, BandpassPeaksAtCenter) {
  const Biquad bp = Biquad::bandpass(500e3, 4e6, 3.0);
  EXPECT_NEAR(bp.magnitude(500e3, 4e6), 1.0, 0.02);
  EXPECT_LT(bp.magnitude(50e3, 4e6), 0.12);
  EXPECT_LT(bp.magnitude(1.8e6, 4e6), 0.2);
}

TEST(Biquad, HighpassRejectsDc) {
  const Biquad hp = Biquad::highpass(100e3, 1e6, 0.707);
  EXPECT_LT(hp.magnitude(1e3, 1e6), 0.01);
  EXPECT_NEAR(hp.magnitude(450e3, 1e6), 1.0, 0.05);
}

TEST(Biquad, RejectsBadFrequencies) {
  EXPECT_THROW(Biquad::lowpass(0.0, 1e6, 0.7), std::invalid_argument);
  EXPECT_THROW(Biquad::lowpass(600e3, 1e6, 0.7), std::invalid_argument);
}

TEST(OnePole, SmoothsSteps) {
  OnePole lp(10e3, 1e6);
  double y = 0.0;
  for (int i = 0; i < 10000; ++i) y = lp.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);  // converges to DC value
}

TEST(OnePole, CutoffAttenuation) {
  const double fs = 1e6;
  const double fc = 50e3;
  OnePole lp(fc, fs);
  Nco nco(fc, fs);
  RealSignal x = nco.cosine(8192);
  RealSignal y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = lp.step(x[i]);
  double px = 0.0;
  double py = 0.0;
  for (std::size_t i = 2048; i < 8192; ++i) {
    px += x[i] * x[i];
    py += y[i] * y[i];
  }
  // One-pole at cutoff: -3 dB.
  EXPECT_NEAR(10.0 * std::log10(py / px), -3.0, 0.8);
}

TEST(OnePole, RejectsBadCutoff) {
  EXPECT_THROW(OnePole(0.0, 1e6), std::invalid_argument);
  EXPECT_THROW(OnePole(600e3, 1e6), std::invalid_argument);
}

}  // namespace
}  // namespace saiyan::dsp
