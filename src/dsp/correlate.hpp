// Cross-correlation — the primitive behind Saiyan's correlation
// decoder (§3.2) and PLoRa's packet detector.
//
// PreparedTemplate transforms the template once and reuses its
// spectrum plus the FFT workspace across calls: the preamble search,
// the bits detector and the SIC resolver correlate one reference
// against every window they see. Real correlation is only reached that
// way. The complex free functions are one-shot wrappers around a
// throwaway PreparedTemplate for the complex-baseband models
// (lora::CoherentDemodulator, baselines::PLoRaDetector).
//
// Real templates and windows run the half-length real transforms of
// FftPlan (forward_real_half / inverse_real_raw): the spectra hold
// bins 0..n/2 only, so the product covers n/2+1 bins and both
// transforms are n/2-point complex ones. Complex ones run full-length
// complex transforms.
//
// Transform length: every call returns valid lags only, so it runs one
// circular transform of next_fast_len(x.size()) points, not the linear
// length x.size() + t_len - 1. Valid lag i is circular output index
// i + t_len - 1 < x.size(); a product could only wrap onto it from
// index i + t_len - 1 + n >= x.size() + t_len - 1, past the end of the
// linear result, so any n >= x.size() is exact.
#pragma once

#include <span>

#include "dsp/types.hpp"

namespace saiyan::dsp {

/// Result of a correlation peak search.
struct CorrelationPeak {
  std::size_t lag = 0;     ///< offset of the template into the signal
  double value = 0.0;      ///< |correlation| at the peak
  double normalized = 0.0; ///< peak normalized to [0,1] by local energy
};

/// FFT-based sliding cross-correlation of `x` against `tmpl`
/// (template conjugated). Output length is x.size() - tmpl.size() + 1
/// (valid lags only); empty if the template is longer than the signal.
RealSignal cross_correlate(std::span<const Complex> x, std::span<const Complex> tmpl);

/// Find the strongest normalized correlation peak of tmpl in x.
/// `normalized` is |corr| / (||x_window|| · ||tmpl||) — 1.0 for a
/// perfect scaled match.
CorrelationPeak find_peak(std::span<const Complex> x, std::span<const Complex> tmpl);

/// A correlation template prepared for repeated use: the conjugated,
/// time-reversed template spectrum is computed once per FFT length and
/// the transform workspace is reused across calls, so each correlation
/// costs one forward and one inverse transform and zero allocations in
/// the steady state.
///
/// A real template correlates real input and a complex template complex
/// input; the other pairing throws std::invalid_argument.
///
/// Not thread-safe (the spectrum/workspace caches are mutable); give
/// each worker thread its own instance.
class PreparedTemplate {
 public:
  explicit PreparedTemplate(std::span<const double> tmpl);
  explicit PreparedTemplate(std::span<const Complex> tmpl);

  std::size_t size() const { return t_len_; }
  double energy() const { return energy_; }

  /// |correlation| over valid lags; matches cross_correlate().
  RealSignal correlate(std::span<const Complex> x) const;

  /// Signed real correlation over valid lags into a caller-owned buffer
  /// (zero-allocation path), so anti-correlated windows score negative;
  /// `out` is left empty when x is shorter than the template.
  void correlate_signed_into(std::span<const double> x, RealSignal& out) const;

  /// Strongest normalized correlation peak, normalized as the free
  /// find_peak().
  CorrelationPeak find_peak(std::span<const double> x) const;
  CorrelationPeak find_peak(std::span<const Complex> x) const;

 private:
  /// Spectrum of the conj-reversed template at transform length n
  /// (cached for the most recent n): bins 0..n/2 scaled by 1/n for a
  /// real template, all n bins for a complex one. Each packet scanner
  /// owns its detector and correlates one window length once running,
  /// so one slot hits on every steady-state block.
  const Signal& spectrum_for(std::size_t n) const;

  /// Product of the transformed input and the template spectrum,
  /// inverse-transformed into real_work_ (real) or work_ (complex).
  /// Returns false when x is shorter than the template.
  bool correlate_core(std::span<const double> x) const;
  bool correlate_core(std::span<const Complex> x) const;

  RealSignal rev_real_;  ///< reversed template (real input)
  Signal rev_conj_;      ///< conj-reversed template (complex input)
  std::size_t t_len_ = 0;
  bool real_ = false;
  double energy_ = 0.0;

  mutable std::size_t cached_n_ = 0;
  mutable Signal spec_;  ///< template spectrum at cached_n_
  mutable Signal work_;  ///< input spectrum; complex correlation output
  mutable RealSignal real_work_;  ///< real correlation output
  mutable Signal fft_scratch_;    ///< radix-3 scratch of the transforms
};

}  // namespace saiyan::dsp
