#include "core/receiver_chain.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/batch_demod.hpp"
#include "dsp/utils.hpp"

namespace saiyan::core {

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kVanilla: return "vanilla";
    case Mode::kFrequencyShifting: return "freq-shifting";
    case Mode::kSuper: return "super";
  }
  return "?";
}

SaiyanConfig SaiyanConfig::make(const lora::PhyParams& phy, Mode mode) {
  SaiyanConfig cfg;
  cfg.phy = phy;
  cfg.phy.validate();
  cfg.mode = mode;
  cfg.lna.bandwidth_hz = phy.sample_rate_hz;
  cfg.envelope.sample_rate_hz = phy.sample_rate_hz;
  cfg.cfs.clock.sample_rate_hz = phy.sample_rate_hz;
  // Keep the post-detection bandwidth comfortably above the sampler
  // rate so peak positions are not smeared, but below the IF.
  const double sampler_rate = cfg.sampling_rate_multiplier * phy.nyquist_sampling_rate_hz();
  const double env_bw = std::min(std::max(2.0 * sampler_rate, 50e3),
                                 cfg.cfs.clock.frequency_hz * 0.45);
  cfg.envelope.lpf_cutoff_hz = env_bw;
  cfg.cfs.output_lpf_cutoff_hz = env_bw;
  return cfg;
}

ReceiverChain::ReceiverChain(const SaiyanConfig& cfg)
    : cfg_(cfg), saw_(cfg.saw), lna_(cfg.lna) {
  cfg_.phy.validate();
  if (cfg_.envelope.sample_rate_hz != cfg_.phy.sample_rate_hz) {
    throw std::invalid_argument("ReceiverChain: envelope detector fs != phy fs");
  }
}

void ReceiverChain::run_into(std::span<const dsp::Complex> rf, dsp::Rng* rng,
                             DemodWorkspace& ws) const {
  saw_.filter_into(rf, cfg_.phy.sample_rate_hz, cfg_.effective_rf_center_hz(),
                   ws.rf_filtered, ws.fft_scratch);
  // The CG-LNA folds into the square-law kernel (fused draw + amplify
  // + detect): the amplified waveform is never materialized.
  if (cfg_.mode == Mode::kVanilla) {
    frontend::EnvelopeDetector(cfg_.envelope)
        .detect_ws(ws.rf_filtered, lna_.stage(), rng, ws.env, ws.fe);
    return;
  }
  frontend::CyclicFrequencyShifter(cfg_.cfs, cfg_.envelope)
      .process_ws(ws.rf_filtered, lna_.stage(), rng, ws.env, ws.fe);
}

void ReceiverChain::envelope_into(std::span<const dsp::Complex> rf,
                                  dsp::Rng& rng, DemodWorkspace& ws) const {
  run_into(rf, &rng, ws);
}

dsp::RealSignal ReceiverChain::envelope(std::span<const dsp::Complex> rf,
                                        dsp::Rng& rng) const {
  DemodWorkspace ws;
  run_into(rf, &rng, ws);
  return std::move(ws.env);
}

dsp::RealSignal ReceiverChain::reference_envelope(std::span<const dsp::Complex> rf) const {
  DemodWorkspace ws;
  run_into(rf, nullptr, ws);
  return std::move(ws.env);
}

void ReceiverChain::reference_envelope_into(std::span<const dsp::Complex> rf,
                                            DemodWorkspace& ws) const {
  run_into(rf, nullptr, ws);
}

SaiyanConfig scan_config(const SaiyanConfig& cfg) {
  SaiyanConfig scan = cfg;
  scan.mode = Mode::kVanilla;
  return scan;
}

}  // namespace saiyan::core
