#include "stream/packet_scanner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace saiyan::stream {

namespace {

// The preamble's envelope autocorrelation has sidelobes at exact
// symbol spacing whose scores climb toward the true peak, so the
// refractory must be strictly longer than one symbol: each higher
// sidelobe then arrives before the previous one can confirm, and the
// candidate walks up to the true alignment. 1.25 symbols of the
// detector's own PHY holds for any preamble/sync configuration.
std::size_t refractory_samples(const core::PreambleDetector& detector) {
  const std::size_t spsym =
      detector.chain().config().phy.samples_per_symbol();
  return spsym + spsym / 4;
}

}  // namespace

PacketScanner::PacketScanner(const core::PreambleDetector& detector,
                             double min_score)
    : det_(detector),
      min_score_(min_score),
      tmpl_len_(detector.envelope_template_zero_mean().size()),
      tmpl_energy_(detector.envelope_correlator().energy()),
      refractory_(refractory_samples(detector)) {}

void PacketScanner::reset() {
  env_.clear();
  next_lag_ = 0;
  suppress_before_ = 0;
  have_candidate_ = false;
  candidate_ = {};
  prev_score_ = 0.0;
  next_score_pending_ = false;
}

void PacketScanner::desync(std::uint64_t resume_lag) {
  have_candidate_ = false;
  candidate_ = {};
  suppress_before_ = std::max(suppress_before_, resume_lag);
  prev_score_ = 0.0;
  next_score_pending_ = false;
}

std::size_t PacketScanner::push_block(std::span<const double> env_block,
                                      std::vector<PacketSpan>& out) {
  if (env_block.empty()) return 0;
  // The scan window is the new block plus (template-1) samples of
  // history; size the ring once the block size is known.
  const std::size_t needed = tmpl_len_ + env_block.size();
  if (env_.capacity() < needed) {
    const std::uint64_t kept = env_.end();
    if (kept != 0) {
      // Growing mid-stream would drop history; the demodulator feeds
      // fixed-size blocks so this only happens on the first block.
      throw std::logic_error("PacketScanner: block larger than first block");
    }
    env_.reserve(needed);
  }
  env_.append(env_block);

  const std::uint64_t env_count = env_.end();
  if (env_count < tmpl_len_) return 0;  // not enough for a single lag yet

  const std::size_t w = tmpl_len_;
  const std::span<const double> window =
      env_.view(next_lag_, static_cast<std::size_t>(env_count - next_lag_));
  det_.envelope_correlator().correlate_signed_into(window, corr_);
  if (corr_.empty()) return 0;

  // Pearson window statistics, recomputed at the batch head and slid
  // within the batch — identical arithmetic for any chunk partition
  // because batches are block-aligned.
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    sum += window[i];
    sum2 += window[i] * window[i];
  }

  std::size_t emitted = 0;
  for (std::size_t j = 0; j < corr_.size(); ++j) {
    const std::uint64_t lag = next_lag_ + j;
    if (have_candidate_ &&
        lag >= candidate_.packet_start + refractory_) {
      out.push_back(candidate_);
      suppress_before_ = candidate_.packet_start + w;
      have_candidate_ = false;
      ++emitted;
    }
    // The variance floor must be *relative* to the window energy: the
    // envelope lives at nanovolt scale, and an absolute floor would
    // silently dominate the denominator and make the score
    // amplitude-proportional instead of scale-invariant.
    const double var = sum2 - sum * sum / static_cast<double>(w);
    const double var_floor = sum2 * 1e-9 + 1e-300;
    const double score =
        corr_[j] / std::sqrt(std::max(var, var_floor) * tmpl_energy_);
    // Telemetry neighbor capture: the lag right after the candidate
    // peak fills score_next (the refractory is > one symbol, so this
    // always lands before the candidate can confirm). Never read by
    // the detection logic below.
    if (next_score_pending_ && have_candidate_ &&
        lag == candidate_.packet_start + 1) {
      candidate_.score_next = score;
      next_score_pending_ = false;
    }
    if (score >= min_score_ && lag >= suppress_before_ &&
        (!have_candidate_ || score > candidate_.score)) {
      candidate_.packet_start = lag;
      candidate_.payload_start = lag + w;
      candidate_.score = score;
      candidate_.score_prev = prev_score_;
      candidate_.score_next = 0.0;
      next_score_pending_ = true;
      have_candidate_ = true;
    }
    prev_score_ = score;
    if (j + w < window.size()) {
      sum += window[j + w] - window[j];
      sum2 += window[j + w] * window[j + w] - window[j] * window[j];
    }
  }
  next_lag_ += corr_.size();
  return emitted;
}

std::size_t PacketScanner::finish(std::vector<PacketSpan>& out) {
  if (!have_candidate_) return 0;
  out.push_back(candidate_);
  suppress_before_ = candidate_.packet_start + tmpl_len_;
  have_candidate_ = false;
  return 1;
}

}  // namespace saiyan::stream
