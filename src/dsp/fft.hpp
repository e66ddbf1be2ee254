// Fast Fourier transform.
//
// Power-of-two lengths use an iterative radix-2 Cooley–Tukey kernel;
// 3·2^k lengths run a radix-3 split over three power-of-two
// sub-transforms (packet waveforms are ~45k samples, so planning
// 49152 directly beats padding 1.45x to 65536); arbitrary other
// lengths fall back to Bluestein's chirp-z algorithm so the rest of
// the library never needs to care about padding.
//
// Transforms are executed through `FftPlan` objects that precompute
// everything reusable for a given length — bit-reversal permutation,
// twiddle-factor tables (replacing the error-accumulating
// `w *= wlen` recurrence), and for Bluestein lengths the chirp
// vectors and the pre-transformed convolution kernel spectrum. Plans
// are immutable once built and shared through a thread-safe
// process-wide cache, so repeated transforms of the same length (the
// Monte-Carlo hot path) pay only the butterfly work.
//
// Real signals of even length n take a half-length path in both
// directions: the forward transform packs z[j] = x[2j] + i·x[2j+1],
// runs one n/2-point complex transform and untangles bins 0..n/2; the
// inverse pre-tangles those n/2+1 bins into one n/2-point spectrum
// and unpacks its inverse into n real samples. The n/2 plan and the
// untangle twiddles are built on a plan's first real transform, so
// lengths that only ever run complex transforms never pay for them.
//
// A scrambled round trip serves filters that scale each bin and
// transform back (the SAW model, frontend/saw_filter.hpp):
// forward_scrambled leaves the bins where the butterflies produce them
// (position p holds bin scrambled_bin(p)) and inverse_raw_scrambled
// starts from that order, so neither transform runs the bit-reversal
// permutation, which costs a third or more of a power-of-two transform.
// The forward runs the same butterflies on the same operands in the
// bit-reversal-conjugated layout and the inverse skips only its
// permutation, so every output bit equals the natural round trip's with
// the per-bin table permuted the same way. 3·2^k lengths scramble within
// each third and replace the inverse's de-interleave and swap loops with
// one gather; Bluestein lengths keep natural order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace saiyan::dsp {

class FftPlan;

namespace detail {
/// The plan's transform of x (size() values) with the radix-2
/// butterflies forced onto the portable scalar passes or the AVX2+FMA
/// passes, for the scrambled/natural bit-equality tests: each ISA's
/// scrambled round trip must match its own natural one bit for bit.
/// inverse = false with scrambled = true is forward_scrambled;
/// inverse = true is the unnormalized inverse (inverse_raw or
/// inverse_raw_scrambled). transform_avx2 returns false on hosts
/// without AVX2+FMA. Declared ahead of FftPlan, whose private kernels
/// they run as friends.
void transform_scalar(const FftPlan& plan, Signal& x, Signal& scratch,
                      bool inverse, bool scrambled);
bool transform_avx2(const FftPlan& plan, Signal& x, Signal& scratch,
                    bool inverse, bool scrambled);
}  // namespace detail

/// Precomputed transform of one fixed length. Immutable after
/// construction; safe to share across threads.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT; x.size() must equal size().
  void forward(Signal& x) const;

  /// In-place inverse DFT, normalized by 1/N; x.size() must equal size().
  void inverse(Signal& x) const;

  /// Like forward()/inverse(), but radix-3 lengths use the caller's
  /// scratch buffer for the de-interleave pass instead of allocating
  /// one per transform (the zero-allocation batch-decode path). For
  /// power-of-two and Bluestein lengths the scratch is unused.
  void forward(Signal& x, Signal& scratch) const;
  void inverse(Signal& x, Signal& scratch) const;

  /// Inverse DFT without the 1/N normalization pass — for callers that
  /// fold the scale into another per-bin table (the SAW filter bakes
  /// it into its gain table, saving one full sweep per packet).
  void inverse_raw(Signal& x, Signal& scratch) const;

  /// In-place forward DFT that leaves position p holding bin
  /// scrambled_bin(p) — for callers that scale every bin by a table
  /// stored in the same order and then call inverse_raw_scrambled.
  /// Each bin's value is bit-identical to forward()'s.
  void forward_scrambled(Signal& x, Signal& scratch) const;

  /// inverse_raw of a spectrum laid out as forward_scrambled leaves it;
  /// the output is in natural order and bit-identical to inverse_raw of
  /// the same bins in natural order.
  void inverse_raw_scrambled(Signal& x, Signal& scratch) const;

  /// Bin held at position p (< size()) of a forward_scrambled spectrum:
  /// the bit reversal of p for powers of two, p's third plus the bit
  /// reversal of its offset within the third for 3·2^k, p otherwise.
  std::size_t scrambled_bin(std::size_t p) const;

  /// Real-to-complex forward DFT of a real sequence zero-padded to
  /// size(): writes bins 0..N/2 into `out` (N/2+1 values; the rest are
  /// their conjugate mirror). `scratch` is the half-length transform's
  /// radix-3 scratch.
  void forward_real_half(std::span<const double> x, Signal& out,
                         Signal& scratch) const;

  /// Complex-to-real inverse DFT without the 1/N normalization: N·x
  /// from bins 0..N/2 of a Hermitian spectrum (further bins are
  /// ignored; the imaginary parts of bins 0 and N/2 are taken as 0).
  /// For callers that fold the scale into the spectrum they multiply
  /// by (PreparedTemplate). `spec` is the work buffer and is
  /// overwritten.
  void inverse_real_raw(Signal& spec, RealSignal& out, Signal& scratch) const;

 private:
  /// State of the half-length real path, built on first use.
  struct RealPath {
    std::shared_ptr<const FftPlan> half;  ///< n/2-point plan
    std::vector<Complex> tw;              ///< exp(-2πik/n), k <= n/4
  };
  const RealPath& real_path() const;

  /// State of the scrambled 3·2^k round trip, built on first use.
  struct ScrambledRadix3 {
    std::vector<Complex> tw;  ///< tw3_ at k = bitrev(p), stored at p
    std::vector<std::uint32_t> gather;  ///< input position per sub-sequence slot
  };
  const ScrambledRadix3& scrambled_radix3() const;

  /// Dispatch to the length's kernel over x[0..n). `scrambled` selects
  /// the permutation-free round trip (a forward that leaves the bins in
  /// scrambled_bin order, an inverse that starts from it); `avx2` the
  /// AVX2+FMA radix-2 butterflies, which callers pass as the CPUID
  /// answer and the detail:: entry points force.
  void transform(Complex* x, Signal& scratch, bool inverse, bool scrambled,
                 bool avx2) const;
  /// The power-of-two kernel: the bit-reversal permutation (natural
  /// order only), then the DIT passes over the bit-reversed input
  /// (natural output). The scrambled forward runs the passes in the
  /// bit-reversal-conjugated layout instead (natural input,
  /// bit-reversed output).
  void transform_pow2(Complex* x, bool inverse, bool scrambled,
                      bool avx2) const;
  void pow2_passes(double* x, bool inverse, bool avx2) const;
  void pow2_passes_scrambled(double* x, bool avx2) const;
  void transform_radix3(Complex* x, Signal& scratch, bool inverse,
                        bool scrambled, bool avx2) const;
  void bluestein(Complex* x, bool inverse) const;

  friend void detail::transform_scalar(const FftPlan&, Signal&, Signal&,
                                       bool, bool);
  friend bool detail::transform_avx2(const FftPlan&, Signal&, Signal&, bool,
                                     bool);

  std::size_t n_;
  bool pow2_;
  bool radix3_ = false;  ///< n = 3 · 2^k (handled by the split kernel)

  // Radix-2 path.
  std::vector<std::uint32_t> bitrev_;
  std::vector<Complex> stage_twa_;    ///< inner-stage twiddles, access order
  std::vector<Complex> stage_twb_;    ///< outer-stage twiddles, access order

  // Radix-3 path (n = 3 · 2^k).
  std::shared_ptr<const FftPlan> third_;  ///< n/3 power-of-two sub-plan
  std::vector<Complex> tw3_;  ///< [2k] = w^k, [2k+1] = w^2k (w = e^{-2πi/n})

  // Bluestein path (non-power-of-two lengths).
  std::size_t m_ = 0;                    ///< convolution length (pow2)
  std::shared_ptr<const FftPlan> conv_;  ///< m-point plan
  Signal chirp_fwd_, chirp_inv_;         ///< exp(∓iπk²/n)
  Signal bspec_fwd_, bspec_inv_;         ///< FFT of the chirp kernel

  // Real path (even n), built by real_path().
  mutable std::once_flag real_once_;
  mutable RealPath real_;

  // Scrambled radix-3 round trip, built by scrambled_radix3().
  mutable std::once_flag scrambled_once_;
  mutable ScrambledRadix3 scrambled_;
};

/// Shared plan for length n from the process-wide cache (thread-safe).
std::shared_ptr<const FftPlan> fft_plan(std::size_t n);

/// In-place forward DFT of x (any length >= 1).
void fft_inplace(Signal& x);

/// In-place inverse DFT of x (any length >= 1), normalized by 1/N.
void ifft_inplace(Signal& x);

/// Smallest power of two >= n (n = 0 maps to 1). Throws
/// std::overflow_error when the result does not fit in std::size_t.
std::size_t next_pow2(std::size_t n);

/// True when n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Smallest FFT-friendly length >= n: min of the next power of two and
/// the next 3·2^k (both planned directly, no Bluestein). Zero-padding
/// targets should use this instead of next_pow2 — a ~45k-sample packet
/// pads to 49152 instead of 65536.
std::size_t next_fast_len(std::size_t n);

/// Frequency (Hz) of FFT bin `k` for an N-point transform at sample
/// rate `fs`, mapped into [-fs/2, fs/2).
double bin_frequency(std::size_t k, std::size_t n, double fs);

namespace detail {

/// Radix-3 split passes of the 3·2^k plan, exposed for the
/// scalar/AVX2 bit-equality tests. The de-interleave gathers the three
/// decimated sequences x[3j+r] into s[r*m + j]; the combine produces
/// the full spectrum from the three m-point sub-spectra and the
/// w^k / w^2k twiddle table (tw[2k], tw[2k+1]). Unlike the radix-2
/// butterflies (which use FMA and may round machine-dependently), both
/// AVX2 variants keep the scalar association with no FMA contraction,
/// so they are bit-identical to the scalar references at every m and
/// tail length. The AVX2 entry points return false on hosts without
/// AVX2+FMA (callers fall back to the scalar reference).
void radix3_deinterleave_scalar(const Complex* x, Complex* s, std::size_t m);
bool radix3_deinterleave_avx2(const Complex* x, Complex* s, std::size_t m);
void radix3_combine_scalar(Complex* out, const Complex* s, const Complex* tw,
                           std::size_t m, bool inverse);
bool radix3_combine_avx2(Complex* out, const Complex* s, const Complex* tw,
                         std::size_t m, bool inverse);

/// pow2_passes' twiddle-free first pass over x[0..n) in its natural
/// (bit-reversed input) layout, n a power of two >= 2: one radix-2 pass
/// over adjacent pairs for an odd number of stages, else the 4-point
/// butterflies over four adjacent values. Every inverse transform runs
/// it. Adds, subtracts and sign flips only, so the AVX2 variant is
/// bit-identical to the scalar one; it returns false on hosts without
/// AVX2+FMA.
void pow2_first_pass_scalar(Complex* x, std::size_t n, bool inverse);
bool pow2_first_pass_avx2(Complex* x, std::size_t n, bool inverse);

/// Real-path passes around the n/2-point transform (h = n/2), exposed
/// for the same scalar/AVX2 bit-equality tests. Both work in place on
/// z[0..h] with the twiddles tw[k] = exp(-2πik/n), k <= h/2, and treat
/// bins k and h-k as a pair. The untangle turns the spectrum Z[0..h) of
/// the packed sequence into bins X[0..h] of the real signal (writing
/// z[h]); the pre-tangle maps X[0..h] back to 2·Z[0..h) (the factor 2
/// makes the unnormalized n/2-point inverse yield n·x). The AVX2
/// variants keep the scalar association with no FMA contraction and
/// return false on hosts without AVX2+FMA.
void real_untangle_scalar(Complex* z, const Complex* tw, std::size_t h);
bool real_untangle_avx2(Complex* z, const Complex* tw, std::size_t h);
void real_pretangle_scalar(Complex* z, const Complex* tw, std::size_t h);
bool real_pretangle_avx2(Complex* z, const Complex* tw, std::size_t h);

}  // namespace detail

}  // namespace saiyan::dsp
