// Small IIR building blocks: RBJ biquads and a one-pole smoother.
//
// The analog front-end models (IF amplifier, envelope-detector
// smoothing) use these because their hardware counterparts are
// low-order analog filters.
#pragma once

#include <span>

#include "dsp/types.hpp"

namespace saiyan::dsp {

/// Direct-form-I biquad with RBJ cookbook designs.
class Biquad {
 public:
  /// b/a coefficients (a0 normalized to 1 internally).
  Biquad(double b0, double b1, double b2, double a0, double a1, double a2);

  static Biquad lowpass(double f0_hz, double fs_hz, double q);
  static Biquad highpass(double f0_hz, double fs_hz, double q);
  /// Constant-peak-gain bandpass centered at f0 with quality factor q.
  static Biquad bandpass(double f0_hz, double fs_hz, double q);

  /// One sample. Inline so a caller's per-sample loop keeps the filter
  /// state in registers (the fused front-end pass runs two of these
  /// back to back).
  double step(double x) {
    const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
    x2_ = x1_;
    x1_ = x;
    y2_ = y1_;
    y1_ = y;
    return y;
  }
  void reset();

  /// Fold a constant output gain into the feed-forward coefficients
  /// (g·H(z)): replaces a separate scaling pass over the signal.
  void scale_output(double g);

  /// Magnitude response at frequency f (Hz) for sample rate fs.
  double magnitude(double f_hz, double fs_hz) const;

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

/// One-pole RC low-pass: y[n] = y[n-1] + alpha (x[n] - y[n-1]).
class OnePole {
 public:
  /// Build from a -3 dB cutoff frequency.
  OnePole(double cutoff_hz, double fs_hz);

  double step(double x) {
    y_ += alpha_ * (x - y_);
    return y_;
  }
  void reset();
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double y_ = 0.0;
};

}  // namespace saiyan::dsp
