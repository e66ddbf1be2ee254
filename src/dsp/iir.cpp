#include "dsp/iir.hpp"

#include <cmath>
#include <stdexcept>

namespace saiyan::dsp {
namespace {

void check_f(double f0_hz, double fs_hz) {
  if (fs_hz <= 0.0 || f0_hz <= 0.0 || f0_hz >= fs_hz / 2.0) {
    throw std::invalid_argument("Biquad: f0 must be in (0, fs/2)");
  }
}

}  // namespace

Biquad::Biquad(double b0, double b1, double b2, double a0, double a1, double a2) {
  if (a0 == 0.0) throw std::invalid_argument("Biquad: a0 must be non-zero");
  b0_ = b0 / a0;
  b1_ = b1 / a0;
  b2_ = b2 / a0;
  a1_ = a1 / a0;
  a2_ = a2 / a0;
}

Biquad Biquad::lowpass(double f0_hz, double fs_hz, double q) {
  check_f(f0_hz, fs_hz);
  const double w0 = kTwoPi * f0_hz / fs_hz;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  return Biquad((1 - cw) / 2, 1 - cw, (1 - cw) / 2, 1 + alpha, -2 * cw, 1 - alpha);
}

Biquad Biquad::highpass(double f0_hz, double fs_hz, double q) {
  check_f(f0_hz, fs_hz);
  const double w0 = kTwoPi * f0_hz / fs_hz;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  return Biquad((1 + cw) / 2, -(1 + cw), (1 + cw) / 2, 1 + alpha, -2 * cw, 1 - alpha);
}

Biquad Biquad::bandpass(double f0_hz, double fs_hz, double q) {
  check_f(f0_hz, fs_hz);
  const double w0 = kTwoPi * f0_hz / fs_hz;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  return Biquad(alpha, 0.0, -alpha, 1 + alpha, -2 * cw, 1 - alpha);
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

void Biquad::scale_output(double g) {
  b0_ *= g;
  b1_ *= g;
  b2_ *= g;
}

double Biquad::magnitude(double f_hz, double fs_hz) const {
  const double w = kTwoPi * f_hz / fs_hz;
  const Complex z = Complex(std::cos(w), std::sin(w));
  const Complex z1 = 1.0 / z;
  const Complex z2 = z1 * z1;
  const Complex num = b0_ + b1_ * z1 + b2_ * z2;
  const Complex den = 1.0 + a1_ * z1 + a2_ * z2;
  return std::abs(num / den);
}

OnePole::OnePole(double cutoff_hz, double fs_hz) {
  if (fs_hz <= 0.0 || cutoff_hz <= 0.0 || cutoff_hz >= fs_hz / 2.0) {
    throw std::invalid_argument("OnePole: cutoff must be in (0, fs/2)");
  }
  const double rc = 1.0 / (kTwoPi * cutoff_hz);
  const double dt = 1.0 / fs_hz;
  alpha_ = dt / (rc + dt);
}

void OnePole::reset() { y_ = 0.0; }

}  // namespace saiyan::dsp
