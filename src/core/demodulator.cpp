#include "core/demodulator.hpp"

#include <cmath>

#include "core/batch_demod.hpp"
#include "core/template_cache.hpp"
#include "dsp/utils.hpp"
#include "frontend/comparator.hpp"
#include "frontend/sampler.hpp"

namespace saiyan::core {

SaiyanDemodulator::SaiyanDemodulator(const SaiyanConfig& cfg)
    : chain_(cfg),
      preamble_(chain_),
      edge_decoder_(cfg.phy),
      corr_decoder_(chain_) {
  calibrate_edge_bias();
}

void SaiyanDemodulator::calibrate_edge_bias() {
  // Measure the systematic lag between the comparator's trailing edge
  // and the true chirp peak by decoding a clean reference packet —
  // the simulation analogue of the paper's offline threshold/timing
  // calibration (§4.1). The reference envelope is shared through the
  // template cache and the resulting bias is memoized per sampler
  // sub-configuration, so sweeps that construct a demodulator per
  // point pay for the calibration decode once.
  const SaiyanConfig& cfg = chain_.config();
  const std::shared_ptr<const ReceiverReference> ref = receiver_reference(chain_);
  const std::string key = sampler_cache_key(cfg);
  {
    std::lock_guard<std::mutex> lock(ref->bias_mu);
    auto it = ref->edge_bias.find(key);
    if (it != ref->edge_bias.end()) {
      edge_decoder_.set_bias(it->second);
      return;
    }
  }

  const dsp::RealSignal& env = ref->calib_envelope;
  const frontend::ThresholdPair th = auto_thresholds(env, cfg.threshold_gap_db);
  frontend::DoubleThresholdComparator comp(th.u_high, th.u_low);
  const dsp::BitVector bits_fs = comp.quantize(env);
  frontend::VoltageSampler sampler(cfg.phy, cfg.sampling_rate_multiplier);
  const frontend::SampledBits sampled = sampler.sample(bits_fs, cfg.phy.sample_rate_hz);
  const double t0 = static_cast<double>(ref->calib_payload_start_fs) /
                    cfg.phy.sample_rate_hz * sampled.sample_rate_hz;

  const double m = static_cast<double>(cfg.phy.symbol_alphabet());
  double err_sum = 0.0;
  std::size_t err_n = 0;
  for (std::size_t s = 0; s < ref->calib_payload.size(); ++s) {
    const double w_begin = t0 + static_cast<double>(s) * sampled.samples_per_symbol;
    const std::optional<double> est = edge_decoder_.estimate_fraction(
        sampled.bits, w_begin, sampled.samples_per_symbol);
    if (!est.has_value()) continue;
    double err = static_cast<double>(ref->calib_payload[s]) - *est;
    // Wrap into [-M/2, M/2).
    err = std::remainder(err, m);
    err_sum += err;
    ++err_n;
  }
  double bias = 0.0;
  if (err_n > 0) {
    bias = err_sum / static_cast<double>(err_n);
    edge_decoder_.set_bias(bias);
  }
  std::lock_guard<std::mutex> lock(ref->bias_mu);
  ref->edge_bias.emplace(key, bias);
}

void SaiyanDemodulator::decode_from_envelope_ws(
    DemodWorkspace& ws, std::optional<std::size_t> payload_start_fs,
    std::size_t n_payload, std::optional<frontend::ThresholdPair> hint) const {
  const SaiyanConfig& cfg = chain_.config();
  const dsp::RealSignal& env = ws.env;
  ws.preamble_found = false;
  ws.preamble_score = 0.0;
  ws.sampler_rate_hz = 0.0;
  ws.symbols.clear();

  if (cfg.mode == Mode::kSuper) {
    // Correlation path: timing and symbols both from the analog
    // envelope. No comparator runs, so no thresholds are estimated.
    ws.thresholds = hint.value_or(frontend::ThresholdPair{});
    std::size_t start = 0;
    if (payload_start_fs.has_value()) {
      start = *payload_start_fs;
      ws.preamble_found = true;
      ws.preamble_score = 1.0;
    } else {
      const std::optional<PreambleTiming> t =
          preamble_.detect_envelope_ws(env, ws.sync_a);
      if (!t.has_value()) return;
      ws.preamble_found = true;
      ws.preamble_score = t->score;
      start = t->payload_start;
    }
    corr_decoder_.decode_stream_into(env, start, n_payload, ws.symbols);
    ws.sampler_rate_hz = cfg.phy.sample_rate_hz;
    return;
  }

  // Comparator path: quantize at the simulation rate, tick at the
  // low-power sampler rate, then edge-decode.
  ws.thresholds =
      hint.has_value()
          ? *hint
          : auto_thresholds(env, cfg.threshold_gap_db, ws.threshold_scratch);
  frontend::DoubleThresholdComparator comp(ws.thresholds.u_high,
                                           ws.thresholds.u_low);
  comp.quantize_into(env, ws.bits_fs);
  frontend::VoltageSampler sampler(cfg.phy, cfg.sampling_rate_multiplier);
  sampler.sample_into(ws.bits_fs, cfg.phy.sample_rate_hz, ws.sampled);
  ws.sampler_rate_hz = ws.sampled.sample_rate_hz;

  double payload_start_ticks = 0.0;
  if (payload_start_fs.has_value()) {
    payload_start_ticks = static_cast<double>(*payload_start_fs) /
                          cfg.phy.sample_rate_hz * ws.sampled.sample_rate_hz;
    ws.preamble_found = true;
    ws.preamble_score = 1.0;
  } else {
    const std::optional<PreambleTiming> t = preamble_.detect_bits_ws(
        ws.sampled.bits, ws.sampled.sample_rate_hz, ws.sync_a, ws.sync_b);
    if (!t.has_value()) return;
    ws.preamble_found = true;
    ws.preamble_score = t->score;
    payload_start_ticks = static_cast<double>(t->payload_start);
  }
  edge_decoder_.decode_stream_into(ws.sampled.bits, payload_start_ticks,
                                   ws.sampled.samples_per_symbol, n_payload,
                                   ws.symbols);
}

void SaiyanDemodulator::demodulate_ws(
    DemodWorkspace& ws, std::span<const dsp::Complex> rf, std::size_t n_payload,
    dsp::Rng& rng, std::optional<frontend::ThresholdPair> threshold_hint) const {
  chain_.envelope_into(rf, rng, ws);
  decode_from_envelope_ws(ws, std::nullopt, n_payload, threshold_hint);
}

void SaiyanDemodulator::demodulate_aligned_ws(
    DemodWorkspace& ws, std::span<const dsp::Complex> rf,
    std::size_t payload_start_fs, std::size_t n_payload, dsp::Rng& rng,
    std::optional<frontend::ThresholdPair> threshold_hint) const {
  chain_.envelope_into(rf, rng, ws);
  decode_from_envelope_ws(ws, payload_start_fs, n_payload, threshold_hint);
}

DemodResult SaiyanDemodulator::demodulate(
    std::span<const dsp::Complex> rf, std::size_t n_payload, dsp::Rng& rng,
    std::optional<frontend::ThresholdPair> threshold_hint) const {
  DemodWorkspace ws;
  demodulate_ws(ws, rf, n_payload, rng, threshold_hint);
  DemodResult result;
  result.preamble_found = ws.preamble_found;
  result.preamble_score = ws.preamble_score;
  result.symbols = std::move(ws.symbols);
  result.sampler_rate_hz = ws.sampler_rate_hz;
  result.thresholds = ws.thresholds;
  return result;
}

bool SaiyanDemodulator::detect_packet(std::span<const dsp::Complex> rf,
                                      dsp::Rng& rng) const {
  DemodWorkspace ws;
  demodulate_ws(ws, rf, /*n_payload=*/0, rng);
  return ws.preamble_found;
}

}  // namespace saiyan::core
