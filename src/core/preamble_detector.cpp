#include "core/preamble_detector.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/resample.hpp"
#include "dsp/utils.hpp"
#include "frontend/comparator.hpp"
#include "frontend/sampler.hpp"

namespace saiyan::core {

PreambleDetector::PreambleDetector(const ReceiverChain& chain)
    : chain_(chain),
      ref_(receiver_reference(chain)),
      env_template_zm_(dsp::mean_removed(ref_->preamble_envelope)),
      env_prepared_(std::span<const double>(env_template_zm_)) {}

const PreambleDetector::BitsTemplate* PreambleDetector::bits_template_for(
    double rate_hz) const {
  auto it = bits_templates_.find(rate_hz);
  if (it != bits_templates_.end()) {
    return it->second.prepared ? &it->second : nullptr;
  }
  BitsTemplate& entry = bits_templates_[rate_hz];
  const SaiyanConfig& cfg = chain_.config();
  const dsp::RealSignal& env_template = ref_->preamble_envelope;
  // Quantize the reference envelope with its own auto thresholds and
  // resample to the sampler rate to form the expected bit pattern.
  const double peak = dsp::peak(std::span<const double>(env_template));
  if (peak <= 0.0) return nullptr;
  const frontend::ThresholdPair th =
      frontend::thresholds_from_peak(peak, cfg.threshold_gap_db, peak * 0.2);
  frontend::DoubleThresholdComparator comp(th.u_high, th.u_low);
  const dsp::BitVector tmpl_fs = comp.quantize(env_template);
  const dsp::RealSignal tmpl_analog(tmpl_fs.begin(), tmpl_fs.end());
  const dsp::RealSignal tmpl_bits_real =
      dsp::sample_hold(tmpl_analog, cfg.phy.sample_rate_hz, rate_hz);
  if (tmpl_bits_real.empty()) return nullptr;
  // Bipolar, mean-removed reference with its energy: the Pearson-style
  // matcher's fixed side, computed once per sampler rate.
  entry.ref.resize(tmpl_bits_real.size());
  for (std::size_t i = 0; i < entry.ref.size(); ++i) {
    entry.ref[i] = tmpl_bits_real[i] > 0.5 ? 1.0 : -1.0;
  }
  const double ref_mean = dsp::mean(entry.ref);
  for (double& v : entry.ref) v -= ref_mean;
  entry.energy = 0.0;
  for (double v : entry.ref) entry.energy += v * v;
  if (entry.energy <= 0.0) return nullptr;
  entry.prepared = std::make_unique<dsp::PreparedTemplate>(
      std::span<const double>(entry.ref));
  return &entry;
}

std::optional<PreambleTiming> PreambleDetector::detect_bits_ws(
    std::span<const std::uint8_t> bits, double rate_hz,
    dsp::RealSignal& sig_scratch, dsp::RealSignal& corr_scratch,
    double min_score) const {
  const BitsTemplate* tmpl = bits_template_for(rate_hz);
  if (tmpl == nullptr) return std::nullopt;
  if (bits.size() < tmpl->ref.size() || tmpl->ref.empty()) return std::nullopt;

  // Pearson-style matching: mean-removed template against mean-removed
  // windows, normalized by both energies — a constant (all-low or
  // all-high) stream scores 0 instead of spuriously matching.
  dsp::RealSignal& sig = sig_scratch;
  sig.resize(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) sig[i] = bits[i] ? 1.0 : -1.0;

  dsp::RealSignal& corr = corr_scratch;
  tmpl->prepared->correlate_signed_into(std::span<const double>(sig), corr);
  if (corr.empty()) return std::nullopt;
  // corr against a zero-mean template is insensitive to the window
  // mean; normalize by window variance computed with a sliding sum.
  const std::size_t w = tmpl->ref.size();
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    sum += sig[i];
    sum2 += sig[i] * sig[i];
  }
  PreambleTiming best;
  for (std::size_t lag = 0; lag < corr.size(); ++lag) {
    const double var = sum2 - sum * sum / static_cast<double>(w);
    const double denom = std::sqrt(std::max(var, 1e-9) * tmpl->energy);
    const double score = corr[lag] / denom;
    if (score > best.score) {
      best.score = score;
      best.payload_start = lag + w;
    }
    if (lag + w < sig.size()) {
      sum += sig[lag + w] - sig[lag];
      sum2 += sig[lag + w] * sig[lag + w] - sig[lag] * sig[lag];
    }
  }
  if (best.score < min_score) return std::nullopt;
  return best;
}

std::optional<PreambleTiming> PreambleDetector::detect_envelope_ws(
    std::span<const double> envelope, dsp::RealSignal& sig_scratch,
    double min_score) const {
  if (envelope.size() < ref_->preamble_envelope.size()) return std::nullopt;
  dsp::mean_removed_into(envelope, sig_scratch);
  const dsp::RealSignal& sig = sig_scratch;
  const dsp::CorrelationPeak pk =
      env_prepared_.find_peak(std::span<const double>(sig));
  PreambleTiming t;
  t.score = pk.normalized;
  t.payload_start = pk.lag + ref_->preamble_envelope.size();
  if (t.score < min_score) return std::nullopt;
  return t;
}

}  // namespace saiyan::core
