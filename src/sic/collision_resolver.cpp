#include "sic/collision_resolver.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/simd.hpp"

namespace saiyan::sic {

namespace {

// Confirmation threshold for a preamble re-detected on a cancelled
// residual. The residual is mostly a clean (weaker) frame, so this can
// sit at the batch detector's operating point rather than the
// streaming scanner's.
constexpr double kRedetectMinScore = 0.5;

}  // namespace

CollisionResolver::CollisionResolver(const core::SaiyanConfig& cfg,
                                     const SicConfig& sic,
                                     std::size_t payload_symbols)
    : cfg_(sic),
      remod_(cfg.phy, payload_symbols),
      chain_(core::scan_config(cfg)),
      detector_(chain_) {}

double CollisionResolver::cancel(std::span<dsp::Complex> region,
                                 std::size_t frame_off,
                                 std::span<const std::uint32_t> symbols) {
  remod_.frame_into(symbols, tx_);
  const std::ptrdiff_t radius = static_cast<std::ptrdiff_t>(kAlignRadius);
  const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(frame_off);
  // Detection is only sample-accurate to ~±2; pick the alignment the
  // amplitude-only fit explains best, then fit amplitude + DC offset
  // there and subtract. The probe runs over the preamble span only —
  // the template energy is shift-invariant, so ranking reduces to the
  // correlation magnitude — and the full frame is fitted exactly once.
  const std::size_t probe = remod_.payload_start();
  std::size_t best_pos = frame_off;
  double best_corr = -1.0;
  for (std::ptrdiff_t s = -radius; s <= radius; ++s) {
    const std::ptrdiff_t pos = off + s;
    if (pos < 0 || static_cast<std::size_t>(pos) + tx_.size() > region.size()) {
      continue;
    }
    const double corr = std::abs(dsp::simd::cdot(
        region.data() + pos, tx_.data(), probe));
    if (corr > best_corr) {
      best_corr = corr;
      best_pos = static_cast<std::size_t>(pos);
    }
  }
  if (best_pos + tx_.size() > region.size()) {
    throw std::invalid_argument("CollisionResolver::cancel: region too small");
  }
  const std::span<dsp::Complex> target =
      region.subspan(best_pos, tx_.size());
  const lora::RemodFit f =
      lora::Remodulator::fit(std::span<const dsp::Complex>(target), tx_);
  lora::Remodulator::subtract(target, tx_, f);
  return std::abs(f.amplitude);
}

std::optional<RescanHit> CollisionResolver::rescan(
    std::span<const dsp::Complex> region) {
  if (region.size() < preamble_samples()) return std::nullopt;
  chain_.reference_envelope_into(region, ws_);
  const std::optional<core::PreambleTiming> t = detector_.detect_envelope_ws(
      ws_.env, scratch_, kRedetectMinScore);
  if (!t.has_value()) return std::nullopt;
  RescanHit hit;
  hit.offset = t->payload_start - preamble_samples();
  hit.score = t->score;
  return hit;
}

}  // namespace saiyan::sic
