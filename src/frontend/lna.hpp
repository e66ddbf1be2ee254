// Common-gate low-noise amplifier (CG-LNA, paper §4.1) placed between
// the SAW filter and the envelope detector.
#pragma once

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

/// Amplification with input-referred thermal noise: y = g (x + n),
/// where n has power kT·B·(F-1). The receive chain applies it inside
/// the envelope detector's fused LNA + square-law pass
/// (EnvelopeDetector::detect_ws), so the class only derives the stage.
class Lna {
 public:
  explicit Lna(const LnaConfig& cfg);

  /// Gain and per-I/Q-component input noise sigma.
  LnaStage stage() const;

 private:
  LnaConfig cfg_;
  double input_noise_watts_;
};

}  // namespace saiyan::frontend
