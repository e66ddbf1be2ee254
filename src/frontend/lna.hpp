// Common-gate low-noise amplifier (CG-LNA, paper §4.1) placed between
// the SAW filter and the envelope detector.
#pragma once

#include <span>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace saiyan::frontend {

struct LnaConfig {
  double gain_db = 20.0;
  double noise_figure_db = 3.0;
  double bandwidth_hz = 4e6;  ///< noise bandwidth (simulation rate)
};

/// The amplifier as plain parameters for the fused LNA + square-law
/// kernel: y = gain·(x + noise), noise sigma per I/Q component.
struct LnaStage {
  double gain = 1.0;
  double sigma = 0.0;
};

/// Amplify with input-referred thermal noise: y = g (x + n), where n
/// has power kT·B·(F-1).
class Lna {
 public:
  explicit Lna(const LnaConfig& cfg);

  /// One fused draw-and-inject pass over the waveform.
  dsp::Signal amplify(std::span<const dsp::Complex> x, dsp::Rng& rng) const;

  /// Gain and per-I/Q-component input noise sigma.
  LnaStage stage() const;

 private:
  LnaConfig cfg_;
  double input_noise_watts_;
};

}  // namespace saiyan::frontend
