#include "dsp/nco.hpp"

#include <cmath>
#include <stdexcept>

namespace saiyan::dsp {

Nco::Nco(double frequency_hz, double fs_hz, double initial_phase_rad)
    : freq_hz_(frequency_hz),
      phase_(initial_phase_rad),
      phase_inc_(kTwoPi * frequency_hz / fs_hz) {
  if (fs_hz <= 0.0) throw std::invalid_argument("Nco: fs must be > 0");
}

namespace {

// Batch oscillator: phase rotation by complex recurrence
// (4 multiplies/sample instead of a cos+sin libm call pair),
// re-anchored on the exact angle every kNcoChunk samples so rounding
// drift stays at the few-ulp level regardless of length.
constexpr std::size_t kNcoChunk = 256;

template <typename Emit>
void generate_rotation(std::size_t n, double phase0, double inc, Emit emit) {
  const double cw = std::cos(inc);
  const double sw = std::sin(inc);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t end = std::min(n, i + kNcoChunk);
    const double ph = phase0 + static_cast<double>(i) * inc;
    double c = std::cos(ph);
    double s = std::sin(ph);
    for (; i < end; ++i) {
      emit(i, c, s);
      const double c2 = c * cw - s * sw;
      s = s * cw + c * sw;
      c = c2;
    }
  }
}

}  // namespace

Complex Nco::next() {
  const Complex v(std::cos(phase_), std::sin(phase_));
  phase_ += phase_inc_;
  if (phase_ > kTwoPi) phase_ -= kTwoPi;
  if (phase_ < -kTwoPi) phase_ += kTwoPi;
  return v;
}

void Nco::advance(std::size_t n) {
  phase_ += static_cast<double>(n) * phase_inc_;
  phase_ = std::remainder(phase_, kTwoPi);
}

Signal Nco::tone(std::size_t n) {
  Signal out(n);
  generate_rotation(n, phase_, phase_inc_,
                    [&](std::size_t i, double c, double s) { out[i] = Complex(c, s); });
  advance(n);
  return out;
}

RealSignal Nco::cosine(std::size_t n) {
  RealSignal out(n);
  generate_rotation(n, phase_, phase_inc_,
                    [&](std::size_t i, double c, double) { out[i] = c; });
  advance(n);
  return out;
}

Signal mix_complex(std::span<const Complex> x, double f_hz, double fs_hz,
                   double phase_rad) {
  Signal out(x.size());
  generate_rotation(x.size(), phase_rad, kTwoPi * f_hz / fs_hz,
                    [&](std::size_t i, double c, double s) {
                      const double xr = x[i].real();
                      const double xi = x[i].imag();
                      out[i] = Complex(xr * c - xi * s, xr * s + xi * c);
                    });
  return out;
}

}  // namespace saiyan::dsp
