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

constexpr std::size_t kD = PacketScanner::kGateDecimation;

/// Box-car average of consecutive kD-sample groups of `in` into `out`
/// (in.size() == kD * out.size()).
void decimate(std::span<const double> in, std::span<double> out) {
  for (std::size_t k = 0; k < out.size(); ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < kD; ++i) acc += in[kD * k + i];
    out[k] = acc * (1.0 / static_cast<double>(kD));
  }
}

/// The gate's template: the zero-mean reference envelope decimated like
/// the stream, with the mean the averaging leaves removed again.
dsp::RealSignal decimated_template(const dsp::RealSignal& tmpl) {
  dsp::RealSignal out(tmpl.size() / kD);
  decimate(std::span<const double>(tmpl).first(kD * out.size()), out);
  double mean = 0.0;
  for (const double v : out) mean += v;
  mean /= static_cast<double>(out.size());
  for (double& v : out) v -= mean;
  return out;
}

/// Pearson score of a window from its signed correlation with a
/// zero-mean template and the window's sum and sum of squares. The
/// variance floor is *relative* to the window energy: the envelope
/// lives at nanovolt scale, and an absolute floor would silently
/// dominate the denominator and make the score amplitude-proportional
/// instead of scale-invariant.
double pearson(double corr, double sum, double sum2, std::size_t w,
               double tmpl_energy) {
  const double var = sum2 - sum * sum / static_cast<double>(w);
  const double var_floor = sum2 * 1e-9 + 1e-300;
  return corr / std::sqrt(std::max(var, var_floor) * tmpl_energy);
}

}  // namespace

PacketScanner::PacketScanner(const core::PreambleDetector& detector,
                             double min_score, std::size_t block_samples)
    : det_(detector),
      min_score_(min_score),
      tmpl_len_(detector.envelope_template_zero_mean().size()),
      tmpl_energy_(detector.envelope_correlator().energy()),
      refractory_(refractory_samples(detector)),
      gate_block_(block_samples) {
  if (block_samples == 0) return;
  env_.reserve(tmpl_len_ + block_samples);
  if (block_samples % kD != 0 || tmpl_len_ % kD != 0) return;
  gate_.emplace(decimated_template(detector.envelope_template_zero_mean()));
  // One decimated block of lags plus one neighbor on each side.
  gate_hist_.assign(block_samples / kD + gate_->size() + 1, 0.0);
  // Warm the correlator at the one window length it will see.
  gate_->correlate_signed_into(gate_hist_, gate_corr_);
}

void PacketScanner::reset() {
  env_.clear();
  next_lag_ = 0;
  suppress_before_ = 0;
  have_candidate_ = false;
  candidate_ = {};
  prev_score_ = 0.0;
  next_score_pending_ = false;
  gate_count_ = 0;
  gate_aligned_ = true;
  blocks_skipped_ = 0;
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
  gate_feed(env_block);

  const std::uint64_t env_count = env_.end();
  if (env_count < tmpl_len_) return 0;  // not enough for a single lag yet

  const std::uint64_t lag_end = env_count - tmpl_len_ + 1;
  if (!have_candidate_ && gate_clears(env_block.size(), next_lag_, lag_end)) {
    next_lag_ = lag_end;
    prev_score_ = 0.0;
    ++blocks_skipped_;
    return 0;
  }

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
    const double score = pearson(corr_[j], sum, sum2, w, tmpl_energy_);
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

void PacketScanner::gate_feed(std::span<const double> env_block) {
  if (!gate_ || !gate_aligned_) return;
  if (env_block.size() % kD != 0) {
    // The decimation grid no longer matches the absolute stream.
    gate_aligned_ = false;
    return;
  }
  const std::size_t cap = gate_hist_.size();
  std::size_t n = env_block.size() / kD;
  if (n >= cap) {
    env_block = env_block.last(kD * cap);
  } else {
    std::copy(gate_hist_.begin() + static_cast<std::ptrdiff_t>(n),
              gate_hist_.end(), gate_hist_.begin());
  }
  gate_count_ += n;
  n = std::min(n, cap);
  decimate(env_block, std::span<double>(gate_hist_).last(n));
}

bool PacketScanner::gate_clears(std::size_t block_len, std::uint64_t first,
                                std::uint64_t end) {
  const std::size_t cap = gate_hist_.size();
  if (!gate_ || !gate_aligned_ || block_len != gate_block_ ||
      gate_count_ < cap) {
    return false;
  }
  // Decimated lags [lo, hi] bracket every full-rate lag of the block
  // with one neighbor on each side; the history holds lags
  // [base, gate_count_ - template].
  const std::size_t w = gate_->size();
  const std::uint64_t base = gate_count_ - cap;
  const std::uint64_t lo = first / kD >= 1 ? first / kD - 1 : 0;
  const std::uint64_t hi = std::min((end - 1) / kD + 1, gate_count_ - w);
  if (lo < base) return false;

  gate_->correlate_signed_into(gate_hist_, gate_corr_);
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    sum += gate_hist_[i];
    sum2 += gate_hist_[i] * gate_hist_[i];
  }
  const double floor = min_score_ - kGateMargin;
  for (std::size_t j = 0; j < gate_corr_.size(); ++j) {
    if (base + j >= lo && base + j <= hi &&
        pearson(gate_corr_[j], sum, sum2, w, gate_->energy()) >= floor) {
      return false;
    }
    if (j + w < cap) {
      const double in = gate_hist_[j + w];
      const double out = gate_hist_[j];
      sum += in - out;
      sum2 += in * in - out * out;
    }
  }
  return true;
}

std::size_t PacketScanner::finish(std::vector<PacketSpan>& out) {
  if (!have_candidate_) return 0;
  out.push_back(candidate_);
  suppress_before_ = candidate_.packet_start + tmpl_len_;
  have_candidate_ = false;
  return 1;
}

}  // namespace saiyan::stream
