#include "frontend/envelope_detector.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/iir.hpp"
#include "dsp/noise.hpp"
#include "dsp/simd.hpp"
#include "dsp/utils.hpp"

namespace saiyan::frontend {

EnvelopeDetector::EnvelopeDetector(const EnvelopeDetectorConfig& cfg) : cfg_(cfg) {
  if (cfg.conversion_gain <= 0.0) {
    throw std::invalid_argument("EnvelopeDetector: conversion gain must be > 0");
  }
  if (cfg.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("EnvelopeDetector: sample rate must be > 0");
  }
  const double k = cfg.conversion_gain;
  // Impairments are specified as the detector-output level an input of
  // the given power would produce (output amplitude = k * P_in), so
  // the additive noise amplitude scales with k.
  dc_level_ = k * dsp::dbm_to_watts(cfg.dc_offset_dbm_equiv);
  const double flicker_amp = k * dsp::dbm_to_watts(cfg.flicker_noise_dbm_equiv);
  const double white_amp = k * dsp::dbm_to_watts(cfg.white_noise_dbm_equiv);
  flicker_watts_ = flicker_amp * flicker_amp;  // variance of the additive term
  // σ as the square root of the white power, not white_amp itself:
  // √(a²) may differ from a in the last bit, and the goldens were
  // produced with √(power).
  white_sigma_ = std::sqrt(white_amp * white_amp);
}

void EnvelopeDetector::square_law_into(std::span<const dsp::Complex> x,
                                       std::span<const double> mix_gain,
                                       std::optional<LnaStage> lna,
                                       dsp::Rng* rng,
                                       dsp::RealSignal& out) const {
  if (!mix_gain.empty() && mix_gain.size() != x.size()) {
    throw std::invalid_argument("EnvelopeDetector: gain length mismatch");
  }
  out.resize(x.size());
  // k |g·(St + Sn)|^2 — Eq. 4 self-mixing behind the LNA.
  const LnaStage stage = lna.value_or(LnaStage{});
  dsp::simd::lna_square_law(x.data(), mix_gain.empty() ? nullptr : mix_gain.data(),
                            x.size(), stage.gain, stage.sigma,
                            cfg_.conversion_gain, out.data(),
                            lna.has_value() ? rng : nullptr);
}

void EnvelopeDetector::detect_ws(std::span<const dsp::Complex> x,
                                 std::optional<LnaStage> lna, dsp::Rng* rng,
                                 dsp::RealSignal& out,
                                 FrontendScratch& scratch) const {
  dsp::OnePole lpf(cfg_.lpf_cutoff_hz, cfg_.sample_rate_hz);
  detect_into(x, {}, lna, rng, out, scratch,
              [lpf](double v, std::size_t) mutable { return lpf.step(v); });
}

}  // namespace saiyan::frontend
