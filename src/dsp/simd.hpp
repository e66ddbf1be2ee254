// Runtime-dispatched SIMD kernels for the per-sample hot passes.
//
// The FFT butterflies (dsp/fft.cpp) set the pattern: AVX2+FMA variants
// compiled behind function-level `target` attributes and selected with
// `__builtin_cpu_supports`, so the default build stays portable. This
// module applies it to the remaining per-sample passes the profile is
// dominated by once the transforms are fast — square-law envelope
// detection, noise injection, mixing and the power reductions.
//
// Every kernel here is **bit-identical** between the scalar reference
// and the AVX2 variant:
//   * element-wise kernels use plain mul/add intrinsics in the exact
//     association of the scalar expression (no FMA contraction);
//   * reductions define the reference as a fixed 4-accumulator blocked
//     sum (lane j accumulates elements i*4+j, lanes combined as
//     ((l0+l1)+l2)+l3, scalar tail appended last) which is precisely
//     what the vector version computes;
//   * the gaussian kernels draw through one block-draw loop that is
//     the scalar ziggurat of repeated `Rng::gaussian()` calls, with the
//     engine held in registers; it has no ISA variant, and the
//     element-wise work after the draw is the same code at every
//     dispatch target.
// So nothing in *these* kernels makes a Monte-Carlo result depend on
// the dispatch target. (The FFT butterflies keep their own, older
// convention: their AVX2+FMA path rounds differently from the portable
// one and is selected by CPUID alone — see dsp/fft.cpp — so exact
// cross-machine reproducibility still requires matching FFT ISAs.)
#pragma once

#include <cstddef>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace saiyan::dsp::simd {

/// Dispatch target. kAuto resolves to the best ISA the CPU supports.
enum class Isa {
  kAuto,
  kScalar,
  kAvx2,
};

/// True when the CPU supports AVX2+FMA (cached CPUID probe).
bool cpu_has_avx2_fma();

/// Force the dispatch target (tests use this to compare scalar vs.
/// native output). kAuto restores runtime detection. Requesting kAvx2
/// on a CPU without AVX2+FMA falls back to scalar.
void set_isa(Isa isa);

/// The ISA the kernels currently dispatch to (kScalar or kAvx2).
Isa active_isa();

/// out[i] = g * x[i] (real arrays; complex data can be passed as 2n
/// doubles).
void scale(const double* x, std::size_t n, double g, double* out);

/// x[i] *= g[i] — complex waveform scaled by a real per-bin table (the
/// SAW filter's frequency-domain gain pass).
void complex_scale_table(Complex* x, const double* g, std::size_t n);

/// Blocked sum (fixed 4-accumulator association) — the basis of mean().
double sum(const double* x, std::size_t n);

/// Blocked sum of squares (see header comment for the fixed
/// association). The basis of signal_power()/rms().
double sum_squares(const double* x, std::size_t n);

/// Sum of |x[i]|^2 — same blocked reduction over the interleaved
/// re/im doubles.
double sum_squares(const Complex* x, std::size_t n);

/// Fill out[0..n) with standard-normal draws, consuming `rng` exactly
/// as n successive rng.gaussian() calls do (same words, same values).
/// The engine stays in registers for the whole fill.
void fill_gaussian(Rng& rng, double* out, std::size_t n);

/// Draws per stack block of for_each_gaussian_block (even, so a block
/// of I/Q pairs always covers whole samples).
inline constexpr std::size_t kGaussianBlock = 256;

/// The shared block draw: fills a fixed stack block with up to
/// kGaussianBlock gaussians at a time and hands each to
/// `body(g, first, m)`, where g[0..m) are draws first..first+m-1 of n.
/// The engine is consumed exactly as by n successive rng.gaussian()
/// calls, so a kernel built on it keeps the per-sample stream without
/// ever materializing more than one block of noise.
template <typename Body>
void for_each_gaussian_block(Rng& rng, std::size_t n, Body&& body) {
  double g[kGaussianBlock];
  for (std::size_t first = 0; first < n; first += kGaussianBlock) {
    const std::size_t m =
        n - first < kGaussianBlock ? n - first : kGaussianBlock;
    fill_gaussian(rng, g, m);
    body(static_cast<const double*>(g), first, m);
  }
}

// Fused draw + inject kernels: the gaussians are drawn a stack block
// at a time (same stream order as per-sample draws) and never
// materialized in a frame-sized scratch buffer. These are the
// per-packet noise stages of the channel and the LNA.

/// out[i] = a * x[i] + sigma * gaussian_i — the AWGN channel pass
/// (complex data as 2n doubles: draws alternate re/im).
void scale_add_gaussian(const double* x, std::size_t n, double a, double sigma,
                        double* out, Rng& rng);

/// Fused LNA + square-law envelope (Eq. 4), the detector's first pass.
/// Each complex sample is amplified with input-referred noise and
/// squared without materializing the amplified waveform:
///   re' = g·(re + sigma·gaussian_re),  im' = g·(im + sigma·gaussian_im)
///   y[i] = k·gain[i]²·(re'² + im'²)     (k·(re'² + im'²) if gain is null)
/// evaluated left to right in exactly that association. The draws come
/// two per sample, re before im, sample by sample: the stream of 2n
/// successive rng.gaussian() calls. `gain` is the real per-sample mixer
/// gain (the CFS input mixer). A null `rng` is the noiseless arm: no
/// draws and re' = g·re, im' = g·im; that arm has an AVX2 variant,
/// bit-identical to the scalar one.
void lna_square_law(const Complex* x, const double* gain, std::size_t n,
                    double g, double sigma, double k, double* y, Rng* rng);

/// Blocked dot product (same fixed 4-accumulator association as
/// sum/sum_squares) — the correlation decoder's template score.
double dot(const double* x, const double* y, std::size_t n);

/// Blocked complex correlation Σ x[i]·conj(y[i]) — the SIC least-squares
/// amplitude estimate (sic::CollisionResolver). Per complex lane the
/// real part accumulates xr·yr + xi·yi and the imaginary part
/// xi·yr − xr·yi, with the same fixed 4-accumulator association as
/// dot(): lane j of a 4-complex block owns complex i·4+j, lanes are
/// combined as ((l0+l1)+l2)+l3, and the tail is appended last.
Complex cdot(const Complex* x, const Complex* y, std::size_t n);

/// y[i] -= a·x[i] + b — the SIC cancellation pass: subtract a
/// reconstructed transmit waveform scaled by its least-squares complex
/// amplitude (plus the fitted DC offset) from the residual in place.
/// Per sample: re -= (ar·xr − ai·xi) + br, im -= (ar·xi + ai·xr) + bi,
/// in exactly that association (no FMA contraction) so scalar and AVX2
/// residuals are bit-identical.
void complex_scaled_subtract(const Complex* x, std::size_t n, Complex a,
                             Complex b, Complex* y);

}  // namespace saiyan::dsp::simd
