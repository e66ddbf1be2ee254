#include "frontend/lna.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/utils.hpp"

namespace saiyan::frontend {

Lna::Lna(const LnaConfig& cfg) : cfg_(cfg) {
  if (cfg.bandwidth_hz <= 0.0) throw std::invalid_argument("Lna: bandwidth must be > 0");
  // kT = -174 dBm/Hz; input-referred excess noise (F - 1)·kT·B.
  const double kt_b_watts = dsp::dbm_to_watts(-174.0) * cfg.bandwidth_hz;
  const double f_lin = dsp::db_to_lin(cfg.noise_figure_db);
  input_noise_watts_ = kt_b_watts * std::max(0.0, f_lin - 1.0);
}

LnaStage Lna::stage() const {
  return {dsp::db_to_amp(cfg_.gain_db), std::sqrt(input_noise_watts_ / 2.0)};
}

}  // namespace saiyan::frontend
