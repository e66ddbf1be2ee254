#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"

namespace saiyan::dsp {
namespace {

// Element-wise spectral product over raw doubles (std::complex
// operator* would call out to __muldc3 per element).
void spectral_product(Signal& x, const Signal& y) {
  double* a = reinterpret_cast<double*>(x.data());
  const double* b = reinterpret_cast<const double*>(y.data());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[2 * i];
    const double ai = a[2 * i + 1];
    const double br = b[2 * i];
    const double bi = b[2 * i + 1];
    a[2 * i] = ar * br - ai * bi;
    a[2 * i + 1] = ar * bi + ai * br;
  }
}

double window_energy(std::span<const Complex> x, std::size_t start, std::size_t len) {
  double acc = 0.0;
  for (std::size_t i = 0; i < len; ++i) acc += std::norm(x[start + i]);
  return acc;
}

double window_energy(std::span<const double> x, std::size_t start, std::size_t len) {
  double acc = 0.0;
  for (std::size_t i = 0; i < len; ++i) acc += x[start + i] * x[start + i];
  return acc;
}

}  // namespace

RealSignal cross_correlate(std::span<const Complex> x, std::span<const Complex> tmpl) {
  if (tmpl.empty()) throw std::invalid_argument("cross_correlate: empty template");
  if (x.size() < tmpl.size()) return {};
  PreparedTemplate prepared(tmpl);
  return prepared.correlate(x);
}

CorrelationPeak find_peak(std::span<const Complex> x, std::span<const Complex> tmpl) {
  PreparedTemplate prepared(tmpl);
  return prepared.find_peak(x);
}

PreparedTemplate::PreparedTemplate(std::span<const double> tmpl)
    : t_len_(tmpl.size()), real_(true) {
  if (tmpl.empty()) throw std::invalid_argument("PreparedTemplate: empty template");
  rev_real_.resize(t_len_);
  for (std::size_t i = 0; i < t_len_; ++i) {
    rev_real_[i] = tmpl[t_len_ - 1 - i];
    energy_ += tmpl[i] * tmpl[i];
  }
}

PreparedTemplate::PreparedTemplate(std::span<const Complex> tmpl)
    : t_len_(tmpl.size()), real_(false) {
  if (tmpl.empty()) throw std::invalid_argument("PreparedTemplate: empty template");
  rev_conj_.resize(t_len_);
  for (std::size_t i = 0; i < t_len_; ++i) {
    rev_conj_[i] = std::conj(tmpl[t_len_ - 1 - i]);
    energy_ += std::norm(tmpl[i]);
  }
}

const Signal& PreparedTemplate::spectrum_for(std::size_t n) const {
  if (cached_n_ == n) return spec_;
  const auto plan = fft_plan(n);
  if (real_) {
    // Bins 0..n/2 with the C2R inverse's 1/n folded in, so the
    // correlation runs the raw inverse.
    plan->forward_real_half(rev_real_, spec_, fft_scratch_);
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& v : spec_) v *= scale;
  } else {
    spec_.assign(n, Complex{});
    for (std::size_t i = 0; i < t_len_; ++i) spec_[i] = rev_conj_[i];
    plan->forward(spec_, fft_scratch_);
  }
  cached_n_ = n;
  return spec_;
}

bool PreparedTemplate::correlate_core(std::span<const double> x) const {
  if (!real_) {
    throw std::invalid_argument("PreparedTemplate: real input needs a real template");
  }
  if (x.size() < t_len_) return false;
  const std::size_t n = next_fast_len(x.size());
  const Signal& spec = spectrum_for(n);
  const auto plan = fft_plan(n);
  plan->forward_real_half(x, work_, fft_scratch_);
  spectral_product(work_, spec);
  plan->inverse_real_raw(work_, real_work_, fft_scratch_);
  return true;
}

bool PreparedTemplate::correlate_core(std::span<const Complex> x) const {
  if (real_) {
    throw std::invalid_argument(
        "PreparedTemplate: complex input needs a complex template");
  }
  if (x.size() < t_len_) return false;
  const std::size_t n = next_fast_len(x.size());
  const Signal& spec = spectrum_for(n);
  work_.assign(n, Complex{});
  for (std::size_t i = 0; i < x.size(); ++i) work_[i] = x[i];
  const auto plan = fft_plan(n);
  plan->forward(work_, fft_scratch_);
  spectral_product(work_, spec);
  plan->inverse(work_, fft_scratch_);
  return true;
}

RealSignal PreparedTemplate::correlate(std::span<const Complex> x) const {
  if (!correlate_core(x)) return {};
  const std::size_t n_valid = x.size() - t_len_ + 1;
  RealSignal out(n_valid);
  for (std::size_t i = 0; i < n_valid; ++i) out[i] = std::abs(work_[i + t_len_ - 1]);
  return out;
}

void PreparedTemplate::correlate_signed_into(std::span<const double> x,
                                             RealSignal& out) const {
  if (!correlate_core(x)) {
    out.clear();
    return;
  }
  const std::size_t n_valid = x.size() - t_len_ + 1;
  out.resize(n_valid);
  std::copy_n(real_work_.begin() + static_cast<std::ptrdiff_t>(t_len_ - 1), n_valid,
              out.begin());
}

namespace {

template <typename Work, typename Span>
CorrelationPeak peak_from_workspace(const Work& work, Span x, std::size_t t_len,
                                    double t_energy) {
  CorrelationPeak pk;
  const std::size_t n_valid = x.size() - t_len + 1;
  for (std::size_t i = 0; i < n_valid; ++i) {
    const double v = std::abs(work[i + t_len - 1]);
    if (v > pk.value) {
      pk.value = v;
      pk.lag = i;
    }
  }
  const double w_energy = window_energy(x, pk.lag, t_len);
  const double denom = std::sqrt(t_energy * w_energy);
  pk.normalized = (denom > 0.0) ? pk.value / denom : 0.0;
  return pk;
}

}  // namespace

CorrelationPeak PreparedTemplate::find_peak(std::span<const double> x) const {
  if (!correlate_core(x)) return {};
  return peak_from_workspace(real_work_, x, t_len_, energy_);
}

CorrelationPeak PreparedTemplate::find_peak(std::span<const Complex> x) const {
  if (!correlate_core(x)) return {};
  return peak_from_workspace(work_, x, t_len_, energy_);
}

}  // namespace saiyan::dsp
