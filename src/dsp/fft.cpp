#include "dsp/fft.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

#include "dsp/simd.hpp"

namespace saiyan::dsp {

std::size_t next_pow2(std::size_t n) {
  if (n <= 1) return 1;
  if (n > std::numeric_limits<std::size_t>::max() / 2 + 1) {
    throw std::overflow_error("next_pow2: result does not fit in size_t");
  }
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_fast_len(std::size_t n) {
  const std::size_t p2 = next_pow2(n);
  // Smallest 3·2^k >= n: next_pow2(ceil(n/3)) >= n/3, so 3x it covers n.
  const std::size_t p3 = 3 * next_pow2(n <= 3 ? 1 : (n + 2) / 3);
  return std::min(p2, p3);
}

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
  if (n == 0) throw std::invalid_argument("FftPlan: length must be >= 1");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    // The bit-reversal table stores 32-bit indices; reject rather than
    // silently truncate (such a transform would need >64 GiB anyway).
    throw std::invalid_argument("FftPlan: length exceeds 2^32");
  }
  if (pow2_) {
    bitrev_.resize(n);
    bitrev_[0] = 0;
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[i] = static_cast<std::uint32_t>(j);
    }
    // exp(-2πik/n), k < n/2, laid out per pass in traversal order so
    // the transform reads the tables strictly sequentially instead of
    // striding through this one.
    std::vector<Complex> twiddle(n / 2);
    for (std::size_t k = 0; k < twiddle.size(); ++k) {
      const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      twiddle[k] = Complex(std::cos(ang), std::sin(ang));
    }
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;
    std::size_t m = (log2n & 1) ? 2 : 1;
    while (m < n) {
      const std::size_t len = 4 * m;
      const std::size_t s = n / len;
      if (m > 1) {  // the m == 1 pass is twiddle-free (all w = 1)
        for (std::size_t k = 0; k < m; ++k) {
          stage_twa_.push_back(twiddle[2 * s * k]);
          stage_twb_.push_back(twiddle[s * k]);
        }
      }
      m = len;
    }
    return;
  }

  if (n % 3 == 0 && is_pow2(n / 3)) {
    // Radix-3 split: X[k], X[k+m], X[k+2m] from three m = n/3
    // power-of-two sub-transforms over the decimated sequences
    // x[3j], x[3j+1], x[3j+2], combined with the twiddles w^k, w^2k.
    radix3_ = true;
    const std::size_t m = n / 3;
    third_ = fft_plan(m);
    tw3_.resize(2 * m);
    for (std::size_t k = 0; k < m; ++k) {
      const double a1 = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      const double a2 =
          -kTwoPi * static_cast<double>(2 * k % n) / static_cast<double>(n);
      tw3_[2 * k] = Complex(std::cos(a1), std::sin(a1));
      tw3_[2 * k + 1] = Complex(std::cos(a2), std::sin(a2));
    }
    return;
  }

  // Bluestein: an N-point DFT as a circular convolution of length
  // m >= 2N-1. The chirp and the transformed kernel depend only on N,
  // so both are computed once here and reused for every transform.
  m_ = next_pow2(2 * n - 1);
  conv_ = fft_plan(m_);
  chirp_fwd_.resize(n);
  chirp_inv_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // exp(sign·iπk²/n); k² is reduced mod 2n to keep the argument small.
    const std::size_t k2 = (static_cast<unsigned long long>(k) * k) % (2 * n);
    const double ang = kPi * static_cast<double>(k2) / static_cast<double>(n);
    chirp_fwd_[k] = Complex(std::cos(ang), -std::sin(ang));
    chirp_inv_[k] = std::conj(chirp_fwd_[k]);
  }
  auto kernel_spectrum = [&](const Signal& chirp) {
    Signal b(m_, Complex{});
    for (std::size_t k = 0; k < n; ++k) b[k] = std::conj(chirp[k]);
    for (std::size_t k = 1; k < n; ++k) b[m_ - k] = b[k];
    conv_->forward(b);
    return b;
  };
  bspec_fwd_ = kernel_spectrum(chirp_fwd_);
  bspec_inv_ = kernel_spectrum(chirp_inv_);
}

namespace {

// Scalar radix-3 combine over k in [k0, m) — the reference kernel the
// AVX2 variant must match bit for bit, and the tail path it falls back
// to for the odd final k. w3 = exp(∓2πi/3) = -1/2 ∓ i·√3/2; the ±h
// terms realize the w3/w3² cross-multiplications without complex
// products.
void radix3_combine_scalar_range(Complex* outc, const Complex* s,
                                 const Complex* tw, std::size_t m,
                                 std::size_t k0, bool inverse) {
  double* out = reinterpret_cast<double*>(outc);
  const double* sd = reinterpret_cast<const double*>(s);
  const double csign = inverse ? -1.0 : 1.0;  // twiddle conjugation
  const double h = (inverse ? 1.0 : -1.0) * 0.86602540378443864676;  // ±√3/2
  for (std::size_t k = k0; k < m; ++k) {
    const double w1r = tw[2 * k].real();
    const double w1i = csign * tw[2 * k].imag();
    const double w2r = tw[2 * k + 1].real();
    const double w2i = csign * tw[2 * k + 1].imag();
    const double ar = sd[2 * k], ai = sd[2 * k + 1];
    const double b0r = sd[2 * (m + k)], b0i = sd[2 * (m + k) + 1];
    const double c0r = sd[2 * (2 * m + k)], c0i = sd[2 * (2 * m + k) + 1];
    const double br = b0r * w1r - b0i * w1i;
    const double bi = b0r * w1i + b0i * w1r;
    const double cr = c0r * w2r - c0i * w2i;
    const double ci = c0r * w2i + c0i * w2r;
    const double t1r = br + cr, t1i = bi + ci;    // B + C
    const double t2r = ar - 0.5 * t1r;            // A - (B+C)/2
    const double t2i = ai - 0.5 * t1i;
    const double dvr = -h * (bi - ci);            // i·h·(B - C)
    const double dvi = h * (br - cr);
    out[2 * k] = ar + t1r;
    out[2 * k + 1] = ai + t1i;
    out[2 * (k + m)] = t2r + dvr;
    out[2 * (k + m) + 1] = t2i + dvi;
    out[2 * (k + 2 * m)] = t2r - dvr;
    out[2 * (k + 2 * m) + 1] = t2i - dvi;
  }
}

// Real-path bin pairs (see detail::real_untangle_*), on interleaved
// doubles. Each pair reads bins k and h-k and writes both; q is
// written before p so the self-paired middle bin (k = h/2) keeps p's
// value. These scalar iterations are the reference the AVX2 passes
// must match bit for bit, and the tails they fall back to.
//
// Untangle: with E = (Z[k] + conj Z[h-k])/2 and O = -i·(Z[k] - conj
// Z[h-k])/2 the even/odd-sample spectra, A = E and B = w^k·O give
// X[k] = A + B and X[h-k] = conj(A - B).
inline void untangle_pair(double* z, const Complex* tw, std::size_t h,
                          std::size_t k) {
  double* p = z + 2 * k;
  double* q = z + 2 * (h - k);
  const double cr = q[0], ci = -q[1];  // conj(Z[h-k])
  const double ar = 0.5 * (p[0] + cr), ai = 0.5 * (p[1] + ci);
  const double dr = 0.5 * (p[0] - cr), di = 0.5 * (p[1] - ci);
  const double o_r = di, o_i = -dr;  // O = -i·d
  const double wr = tw[k].real(), wi = tw[k].imag();
  const double br = o_r * wr - o_i * wi;
  const double bi = o_i * wr + o_r * wi;
  q[0] = ar - br;
  q[1] = -(ai - bi);
  p[0] = ar + br;
  p[1] = ai + bi;
}

// Pre-tangle, the untangle run backwards without its halvings:
// E' = X[k] + conj X[h-k] = 2E, O' = conj(w^k)·(X[k] - conj X[h-k]) =
// 2O, and 2·Z[k] = E' + i·O', 2·Z[h-k] = conj(E' - i·O').
inline void pretangle_pair(double* z, const Complex* tw, std::size_t h,
                           std::size_t k) {
  double* p = z + 2 * k;
  double* q = z + 2 * (h - k);
  const double cr = q[0], ci = -q[1];  // conj(X[h-k])
  const double er = p[0] + cr, ei = p[1] + ci;
  const double dr = p[0] - cr, di = p[1] - ci;
  const double wr = tw[k].real(), wi = -tw[k].imag();  // conj(w^k)
  const double o_r = dr * wr - di * wi;
  const double o_i = di * wr + dr * wi;
  const double qr = -o_i, qi = o_r;  // i·O'
  q[0] = er - qr;
  q[1] = -(ei - qi);
  p[0] = er + qr;
  p[1] = ei + qi;
}

// Bins 0 and h, both real: X[0] = E[0] + O[0], X[h] = E[0] - O[0]
// with E[0] = Re Z[0], O[0] = Im Z[0]; the pre-tangle inverts it
// (ignoring the imaginary parts of X[0] and X[h]).
inline void untangle_edges(double* z, std::size_t h) {
  const double r = z[0], i = z[1];
  z[0] = r + i;
  z[1] = 0.0;
  z[2 * h] = r - i;
  z[2 * h + 1] = 0.0;
}

inline void pretangle_edges(double* z, std::size_t h) {
  const double x0 = z[0], xh = z[2 * h];
  z[0] = x0 + xh;
  z[1] = x0 - xh;
}

// One radix-2² butterfly (two radix-2 stages) on x0..x3 at p0..p3 in
// portable scalar code.
inline void butterfly4_scalar(double* p0, double* p1, double* p2, double* p3,
                              double war, double wai, double wbr, double wbi,
                              double isign) {
  // Inner radix-2 stage on both halves: a = x0 ± wA·x1, x2 ± wA·x3.
  const double t1r = p1[0] * war - p1[1] * wai;
  const double t1i = p1[0] * wai + p1[1] * war;
  const double a0r = p0[0] + t1r, a0i = p0[1] + t1i;
  const double a1r = p0[0] - t1r, a1i = p0[1] - t1i;
  const double t3r = p3[0] * war - p3[1] * wai;
  const double t3i = p3[0] * wai + p3[1] * war;
  const double a2r = p2[0] + t3r, a2i = p2[1] + t3i;
  const double a3r = p2[0] - t3r, a3i = p2[1] - t3i;
  // Outer stage: pairs (0,2) with wB and (1,3) with wB·w_4.
  const double u2r = a2r * wbr - a2i * wbi;
  const double u2i = a2r * wbi + a2i * wbr;
  p0[0] = a0r + u2r;
  p0[1] = a0i + u2i;
  p2[0] = a0r - u2r;
  p2[1] = a0i - u2i;
  const double v3r = a3r * wbr - a3i * wbi;
  const double v3i = a3r * wbi + a3i * wbr;
  const double u3r = -isign * v3i;  // (∓i)·v3
  const double u3i = isign * v3r;
  p1[0] = a1r + u3r;
  p1[1] = a1i + u3i;
  p3[0] = a1r - u3r;
  p3[1] = a1i - u3i;
}

// One fused pass in natural layout: butterfly k of each sub-block
// combines elements k, k+q, k+2q, k+3q; twiddle tables are pre-laid-out
// in access order.
void fused_pass_scalar(double* x, std::size_t n, std::size_t q,
                       const Complex* twa, const Complex* twb, double isign,
                       double csign) {
  const std::size_t len = 4 * q;
  for (std::size_t i = 0; i < n; i += len) {
    double* base = x + 2 * i;
    for (std::size_t k = 0; k < q; ++k) {
      double* p0 = base + 2 * k;
      butterfly4_scalar(p0, p0 + 2 * q, p0 + 4 * q, p0 + 6 * q, twa[k].real(),
                        csign * twa[k].imag(), twb[k].real(),
                        csign * twb[k].imag(), isign);
    }
  }
}

// The same pass in the bit-reversal-conjugated layout (forward only):
// butterfly k of every sub-block shares twiddle pair k, and those
// butterflies form one contiguous run of r = n/4q elements at
// bitrev[k], with x1 at offset 2r, x2 at r and x3 at 3r.
void fused_pass_scrambled_scalar(double* x, std::size_t n, std::size_t q,
                                 const std::uint32_t* bitrev,
                                 const Complex* twa, const Complex* twb) {
  const std::size_t run = n / (4 * q);
  for (std::size_t k = 0; k < q; ++k) {
    const double war = twa[k].real(), wai = twa[k].imag();
    const double wbr = twb[k].real(), wbi = twb[k].imag();
    double* base = x + 2 * bitrev[k];
    for (std::size_t j = 0; j < run; ++j) {
      double* p0 = base + 2 * j;
      butterfly4_scalar(p0, p0 + 4 * run, p0 + 2 * run, p0 + 6 * run, war, wai,
                        wbr, wbi, -1.0);
    }
  }
}

// True when log2(n) is odd: the power-of-two passes then start with a
// plain radix-2 pass instead of a radix-2² one.
bool odd_stage_count(std::size_t n) {
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  return (log2n & 1) != 0;
}

// pow2_passes' twiddle-free first pass in the natural (bit-reversed
// input) layout: for an odd number of stages one radix-2 pass over
// adjacent pairs, else the 4-point butterflies over four adjacent
// elements, with w_4 = -i (forward) / +i (inverse).
void first_pass_scalar(double* x, std::size_t n, bool radix2, bool inverse) {
  if (radix2) {
    for (std::size_t i = 0; i < n; i += 2) {
      double* a = x + 2 * i;
      const double br = a[2];
      const double bi = a[3];
      const double ar = a[0];
      const double ai = a[1];
      a[0] = ar + br;
      a[1] = ai + bi;
      a[2] = ar - br;
      a[3] = ai - bi;
    }
    return;
  }
  const double isign = inverse ? 1.0 : -1.0;
  for (std::size_t i = 0; i < n; i += 4) {
    double* p = x + 2 * i;
    const double a0r = p[0] + p[2], a0i = p[1] + p[3];
    const double a1r = p[0] - p[2], a1i = p[1] - p[3];
    const double a2r = p[4] + p[6], a2i = p[5] + p[7];
    const double a3r = p[4] - p[6], a3i = p[5] - p[7];
    p[0] = a0r + a2r;
    p[1] = a0i + a2i;
    p[4] = a0r - a2r;
    p[5] = a0i - a2i;
    const double u3r = -isign * a3i;
    const double u3i = isign * a3r;
    p[2] = a1r + u3r;
    p[3] = a1i + u3i;
    p[6] = a1r - u3r;
    p[7] = a1i - u3i;
  }
}

// The scrambled forward's twiddle-free first pass: for an odd number of
// stages one radix-2 pass pairing i with i + n/2, else the 4-point
// butterflies with x0..x3 at offsets 0, n/2, n/4, 3n/4.
void first_pass_scrambled_scalar(double* x, std::size_t n, bool radix2) {
  if (radix2) {
    const std::size_t h = n / 2;
    for (std::size_t i = 0; i < h; ++i) {
      double* a = x + 2 * i;
      double* b = x + 2 * (i + h);
      const double br = b[0];
      const double bi = b[1];
      const double ar = a[0];
      const double ai = a[1];
      a[0] = ar + br;
      a[1] = ai + bi;
      b[0] = ar - br;
      b[1] = ai - bi;
    }
    return;
  }
  const std::size_t r = n / 4;
  for (std::size_t i = 0; i < r; ++i) {
    double* p0 = x + 2 * i;
    double* p1 = p0 + 4 * r;
    double* p2 = p0 + 2 * r;
    double* p3 = p0 + 6 * r;
    const double a0r = p0[0] + p1[0], a0i = p0[1] + p1[1];
    const double a1r = p0[0] - p1[0], a1i = p0[1] - p1[1];
    const double a2r = p2[0] + p3[0], a2i = p2[1] + p3[1];
    const double a3r = p2[0] - p3[0], a3i = p2[1] - p3[1];
    p0[0] = a0r + a2r;
    p0[1] = a0i + a2i;
    p2[0] = a0r - a2r;
    p2[1] = a0i - a2i;
    const double u3r = a3i;  // -i·a3
    const double u3i = -a3r;
    p1[0] = a1r + u3r;
    p1[1] = a1i + u3i;
    p3[0] = a1r - u3r;
    p3[1] = a1i - u3i;
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define SAIYAN_FFT_AVX2 1

// first_pass_scalar in AVX2. Adds, subtracts and sign flips only (the
// ±1 multiplies of the scalar pass are exact, so an xor of the sign bit
// reproduces them), so no FMA question arises and the output is
// bit-identical to the scalar pass. Radix-2 runs two pairs per
// iteration (n >= 4); the 4-point butterfly one per iteration.
__attribute__((target("avx2"))) void first_pass_avx2(double* x, std::size_t n,
                                                     bool radix2,
                                                     bool inverse) {
  if (radix2) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      double* p = x + 2 * i;
      const __m256d v0 = _mm256_loadu_pd(p);      // a0 b0
      const __m256d v1 = _mm256_loadu_pd(p + 4);  // a1 b1
      const __m256d a = _mm256_permute2f128_pd(v0, v1, 0x20);  // a0 a1
      const __m256d b = _mm256_permute2f128_pd(v0, v1, 0x31);  // b0 b1
      const __m256d s = _mm256_add_pd(a, b);
      const __m256d d = _mm256_sub_pd(a, b);
      _mm256_storeu_pd(p, _mm256_permute2f128_pd(s, d, 0x20));
      _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(s, d, 0x31));
    }
    if (i < n) first_pass_scalar(x + 2 * i, n - i, true, inverse);
    return;
  }
  // u3 = (∓i)·a3 = (−isign·a3i, isign·a3r): swap re/im, then flip the
  // re lane's sign (forward) or the im lane's (inverse) — the high
  // half only, where a3 sits.
  const __m256d i_mask = inverse ? _mm256_setr_pd(0.0, 0.0, -0.0, 0.0)
                                 : _mm256_setr_pd(0.0, 0.0, 0.0, -0.0);
  for (std::size_t i = 0; i < n; i += 4) {
    double* p = x + 2 * i;
    const __m256d v0 = _mm256_loadu_pd(p);      // x0 x1
    const __m256d v1 = _mm256_loadu_pd(p + 4);  // x2 x3
    const __m256d lo = _mm256_permute2f128_pd(v0, v1, 0x20);  // x0 x2
    const __m256d hi = _mm256_permute2f128_pd(v0, v1, 0x31);  // x1 x3
    const __m256d s = _mm256_add_pd(lo, hi);  // a0 a2
    const __m256d d = _mm256_sub_pd(lo, hi);  // a1 a3
    const __m256d u = _mm256_xor_pd(_mm256_permute_pd(d, 0x5), i_mask);
    const __m256d e = _mm256_permute2f128_pd(s, d, 0x20);  // a0 a1
    const __m256d f = _mm256_permute2f128_pd(s, u, 0x31);  // a2 u3
    _mm256_storeu_pd(p, _mm256_add_pd(e, f));      // x0' x1'
    _mm256_storeu_pd(p + 4, _mm256_sub_pd(e, f));  // x2' x3'
  }
}

// Interleaved complex multiply, two lanes at once: the
// movedup/permute + fmaddsub idiom.
__attribute__((target("avx2,fma"), always_inline)) inline __m256d cmul_avx2(
    __m256d a, __m256d w) {
  const __m256d wre = _mm256_movedup_pd(w);
  const __m256d wim = _mm256_permute_pd(w, 0xF);
  const __m256d aswap = _mm256_permute_pd(a, 0x5);
  return _mm256_fmaddsub_pd(a, wre, _mm256_mul_pd(aswap, wim));
}

// One radix-2² butterfly on two lanes at once (the arithmetic of
// butterfly4_scalar with FMA complex multiplies). Multiply-by-(∓i) is
// a re/im swap then one lane's sign flip (i_mask).
__attribute__((target("avx2,fma"), always_inline)) inline void butterfly4_avx2(
    double* p0, double* p1, double* p2, double* p3, __m256d wa, __m256d wb,
    __m256d i_mask) {
  const __m256d x0 = _mm256_loadu_pd(p0);
  const __m256d x1 = _mm256_loadu_pd(p1);
  const __m256d x2 = _mm256_loadu_pd(p2);
  const __m256d x3 = _mm256_loadu_pd(p3);
  const __m256d t1 = cmul_avx2(x1, wa);
  const __m256d a0 = _mm256_add_pd(x0, t1);
  const __m256d a1 = _mm256_sub_pd(x0, t1);
  const __m256d t3 = cmul_avx2(x3, wa);
  const __m256d a2 = _mm256_add_pd(x2, t3);
  const __m256d a3 = _mm256_sub_pd(x2, t3);
  const __m256d u2 = cmul_avx2(a2, wb);
  _mm256_storeu_pd(p0, _mm256_add_pd(a0, u2));
  _mm256_storeu_pd(p2, _mm256_sub_pd(a0, u2));
  const __m256d v3 = cmul_avx2(a3, wb);
  const __m256d u3 = _mm256_xor_pd(_mm256_permute_pd(v3, 0x5), i_mask);
  _mm256_storeu_pd(p1, _mm256_add_pd(a1, u3));
  _mm256_storeu_pd(p3, _mm256_sub_pd(a1, u3));
}

// AVX2+FMA variant of the fused pass: two butterflies (four complex
// lanes) per iteration. Compiled with a function-level target
// attribute and selected at runtime, so the default build stays
// portable.
__attribute__((target("avx2,fma"))) void fused_pass_avx2(
    double* x, std::size_t n, std::size_t q, const Complex* twa,
    const Complex* twb, bool inverse) {
  const std::size_t len = 4 * q;
  // Conjugate twiddles for the inverse transform (negate imag lanes).
  const __m256d conj_mask =
      inverse ? _mm256_setr_pd(0.0, -0.0, 0.0, -0.0) : _mm256_setzero_pd();
  const __m256d i_mask = inverse ? _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0)
                                 : _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  for (std::size_t i = 0; i < n; i += len) {
    double* base = x + 2 * i;
    for (std::size_t k = 0; k < q; k += 2) {
      const __m256d wa = _mm256_xor_pd(
          _mm256_loadu_pd(reinterpret_cast<const double*>(twa + k)), conj_mask);
      const __m256d wb = _mm256_xor_pd(
          _mm256_loadu_pd(reinterpret_cast<const double*>(twb + k)), conj_mask);
      double* p0 = base + 2 * k;
      butterfly4_avx2(p0, p0 + 2 * q, p0 + 4 * q, p0 + 6 * q, wa, wb, i_mask);
    }
  }
}

// first_pass_scrambled_scalar two butterflies at a time (n >= 8). Adds,
// subtracts and sign flips only, so no FMA question arises.
__attribute__((target("avx2"))) void first_pass_scrambled_avx2(
    double* x, std::size_t n, bool radix2) {
  if (radix2) {
    const std::size_t h = n / 2;
    for (std::size_t i = 0; i < h; i += 2) {
      double* a = x + 2 * i;
      double* b = x + 2 * (i + h);
      const __m256d av = _mm256_loadu_pd(a);
      const __m256d bv = _mm256_loadu_pd(b);
      _mm256_storeu_pd(a, _mm256_add_pd(av, bv));
      _mm256_storeu_pd(b, _mm256_sub_pd(av, bv));
    }
    return;
  }
  const std::size_t r = n / 4;
  const __m256d i_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  for (std::size_t i = 0; i < r; i += 2) {
    double* p0 = x + 2 * i;
    double* p1 = p0 + 4 * r;
    double* p2 = p0 + 2 * r;
    double* p3 = p0 + 6 * r;
    const __m256d x0 = _mm256_loadu_pd(p0);
    const __m256d x1 = _mm256_loadu_pd(p1);
    const __m256d x2 = _mm256_loadu_pd(p2);
    const __m256d x3 = _mm256_loadu_pd(p3);
    const __m256d a0 = _mm256_add_pd(x0, x1);
    const __m256d a1 = _mm256_sub_pd(x0, x1);
    const __m256d a2 = _mm256_add_pd(x2, x3);
    const __m256d a3 = _mm256_sub_pd(x2, x3);
    _mm256_storeu_pd(p0, _mm256_add_pd(a0, a2));
    _mm256_storeu_pd(p2, _mm256_sub_pd(a0, a2));
    const __m256d u3 = _mm256_xor_pd(_mm256_permute_pd(a3, 0x5), i_mask);
    _mm256_storeu_pd(p1, _mm256_add_pd(a1, u3));
    _mm256_storeu_pd(p3, _mm256_sub_pd(a1, u3));
  }
}

// cmul_avx2 on one complex value: the same per-lane FMA arithmetic.
__attribute__((target("avx2,fma"), always_inline)) inline __m128d cmul_avx2_1(
    __m128d a, __m128d w) {
  const __m128d wre = _mm_movedup_pd(w);
  const __m128d wim = _mm_permute_pd(w, 0x3);
  const __m128d aswap = _mm_permute_pd(a, 0x1);
  return _mm_fmaddsub_pd(a, wre, _mm_mul_pd(aswap, wim));
}

// fused_pass_scrambled_scalar with the AVX2+FMA arithmetic of
// fused_pass_avx2: the run's twiddle pair is broadcast and each
// iteration takes two butterflies of the run. The last pass has runs of
// one butterfly, which take 128-bit vectors with the same per-lane
// arithmetic.
__attribute__((target("avx2,fma"))) void fused_pass_scrambled_avx2(
    double* x, std::size_t n, std::size_t q, const std::uint32_t* bitrev,
    const Complex* twa, const Complex* twb) {
  const std::size_t run = n / (4 * q);
  if (run >= 2) {
    const __m256d i_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
    for (std::size_t k = 0; k < q; ++k) {
      const __m256d wa =
          _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(twa + k));
      const __m256d wb =
          _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(twb + k));
      double* base = x + 2 * bitrev[k];
      for (std::size_t j = 0; j < run; j += 2) {
        double* p0 = base + 2 * j;
        butterfly4_avx2(p0, p0 + 4 * run, p0 + 2 * run, p0 + 6 * run, wa, wb,
                        i_mask);
      }
    }
    return;
  }
  // Runs of one butterfly: x0, x2, x1, x3 are adjacent. A 256-bit
  // variant with lane shuffles measured slower than this one.
  const __m128d i_mask = _mm_setr_pd(0.0, -0.0);
  for (std::size_t k = 0; k < q; ++k) {
    const __m128d wa = _mm_loadu_pd(reinterpret_cast<const double*>(twa + k));
    const __m128d wb = _mm_loadu_pd(reinterpret_cast<const double*>(twb + k));
    double* p0 = x + 2 * bitrev[k];
    const __m128d x0 = _mm_loadu_pd(p0);
    const __m128d x2 = _mm_loadu_pd(p0 + 2);
    const __m128d x1 = _mm_loadu_pd(p0 + 4);
    const __m128d x3 = _mm_loadu_pd(p0 + 6);
    const __m128d t1 = cmul_avx2_1(x1, wa);
    const __m128d a0 = _mm_add_pd(x0, t1);
    const __m128d a1 = _mm_sub_pd(x0, t1);
    const __m128d t3 = cmul_avx2_1(x3, wa);
    const __m128d a2 = _mm_add_pd(x2, t3);
    const __m128d a3 = _mm_sub_pd(x2, t3);
    const __m128d u2 = cmul_avx2_1(a2, wb);
    _mm_storeu_pd(p0, _mm_add_pd(a0, u2));
    _mm_storeu_pd(p0 + 2, _mm_sub_pd(a0, u2));
    const __m128d v3 = cmul_avx2_1(a3, wb);
    const __m128d u3 = _mm_xor_pd(_mm_permute_pd(v3, 0x1), i_mask);
    _mm_storeu_pd(p0 + 4, _mm_add_pd(a1, u3));
    _mm_storeu_pd(p0 + 6, _mm_sub_pd(a1, u3));
  }
}

// Radix-3 split passes, two k per iteration. De-interleave gathers the
// three decimated sequences with cross-lane permutes; the combine
// keeps the scalar association (mul + addsub instead of fmaddsub), so
// both passes are bit-identical to their scalar references — the
// property the streaming/batch equivalence tests pin at every tail
// length.
__attribute__((target("avx2,fma"))) void radix3_deinterleave_avx2_impl(
    const double* x, double* s, std::size_t m) {
  std::size_t j = 0;
  for (; j + 2 <= m; j += 2) {
    // Six consecutive complex values = three vectors:
    // v0 = [A0 B0], v1 = [C0 A1], v2 = [B1 C1].
    const __m256d v0 = _mm256_loadu_pd(x + 6 * j);
    const __m256d v1 = _mm256_loadu_pd(x + 6 * j + 4);
    const __m256d v2 = _mm256_loadu_pd(x + 6 * j + 8);
    _mm256_storeu_pd(s + 2 * j, _mm256_permute2f128_pd(v0, v1, 0x30));
    _mm256_storeu_pd(s + 2 * (m + j), _mm256_permute2f128_pd(v0, v2, 0x21));
    _mm256_storeu_pd(s + 2 * (2 * m + j), _mm256_permute2f128_pd(v1, v2, 0x30));
  }
  for (; j < m; ++j) {
    s[2 * j] = x[6 * j];
    s[2 * j + 1] = x[6 * j + 1];
    s[2 * (m + j)] = x[6 * j + 2];
    s[2 * (m + j) + 1] = x[6 * j + 3];
    s[2 * (2 * m + j)] = x[6 * j + 4];
    s[2 * (2 * m + j) + 1] = x[6 * j + 5];
  }
}

// Complex multiply with the exact scalar association: separate mul
// passes and one addsub, no FMA. Lane-wise this performs the same IEEE
// operations as (ar·wr − ai·wi, ar·wi + ai·wr), so it is bit-identical
// to the scalar combine. Compiled with target("avx2") — deliberately
// *without* "fma", like the dsp/simd.hpp kernels — because GCC
// contracts even intrinsic mul/add pairs into FMA when the fma target
// is enabled, which would break the bit-equality.
__attribute__((target("avx2"), always_inline)) inline __m256d
cmul_exact_avx2(__m256d a, __m256d w) {
  const __m256d wre = _mm256_movedup_pd(w);
  const __m256d wim = _mm256_permute_pd(w, 0xF);
  const __m256d aswap = _mm256_permute_pd(a, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(a, wre), _mm256_mul_pd(aswap, wim));
}

__attribute__((target("avx2"))) void radix3_combine_avx2_impl(
    double* out, const double* sd, const Complex* tw, std::size_t m,
    bool inverse) {
  const __m256d conj_mask =
      inverse ? _mm256_setr_pd(0.0, -0.0, 0.0, -0.0) : _mm256_setzero_pd();
  // i·h·v = h·(−v.im, v.re): swap lanes, negate the re lane, scale.
  const __m256d re_neg = _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0);
  const double h = (inverse ? 1.0 : -1.0) * 0.86602540378443864676;
  const __m256d hv = _mm256_set1_pd(h);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t k = 0;
  for (; k + 2 <= m; k += 2) {
    const __m256d ta = _mm256_loadu_pd(reinterpret_cast<const double*>(tw + 2 * k));
    const __m256d tb = _mm256_loadu_pd(reinterpret_cast<const double*>(tw + 2 * k + 2));
    const __m256d w1 =
        _mm256_xor_pd(_mm256_permute2f128_pd(ta, tb, 0x20), conj_mask);
    const __m256d w2 =
        _mm256_xor_pd(_mm256_permute2f128_pd(ta, tb, 0x31), conj_mask);
    const __m256d av = _mm256_loadu_pd(sd + 2 * k);
    const __m256d bv = cmul_exact_avx2(_mm256_loadu_pd(sd + 2 * (m + k)), w1);
    const __m256d cv = cmul_exact_avx2(_mm256_loadu_pd(sd + 2 * (2 * m + k)), w2);
    const __m256d t1 = _mm256_add_pd(bv, cv);
    const __m256d t2 = _mm256_sub_pd(av, _mm256_mul_pd(half, t1));  // A - t1/2
    const __m256d diff = _mm256_sub_pd(bv, cv);
    const __m256d rot = _mm256_xor_pd(_mm256_permute_pd(diff, 0x5), re_neg);
    const __m256d d = _mm256_mul_pd(hv, rot);
    _mm256_storeu_pd(out + 2 * k, _mm256_add_pd(av, t1));
    _mm256_storeu_pd(out + 2 * (k + m), _mm256_add_pd(t2, d));
    _mm256_storeu_pd(out + 2 * (k + 2 * m), _mm256_sub_pd(t2, d));
  }
  if (k < m) {
    // Odd tail: finish with the scalar reference iterations.
    radix3_combine_scalar_range(reinterpret_cast<Complex*>(out),
                                reinterpret_cast<const Complex*>(sd), tw, m, k,
                                inverse);
  }
}

// Real-path passes, two bin pairs (k, h-k), (k+1, h-k-1) per
// iteration: the upper bins are loaded as one vector and lane-swapped
// so both lanes line up with their partners. Same association as
// untangle_pair / pretangle_pair, no FMA.
__attribute__((target("avx2"))) void real_untangle_avx2_impl(
    double* z, const Complex* tw, std::size_t h) {
  const __m256d conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t k = 1;
  for (; 2 * (k + 1) < h; k += 2) {
    double* p = z + 2 * k;            // Z[k], Z[k+1]
    double* q = z + 2 * (h - k - 1);  // Z[h-k-1], Z[h-k]
    const __m256d lo = _mm256_loadu_pd(p);
    const __m256d hq = _mm256_loadu_pd(q);
    const __m256d c = _mm256_xor_pd(_mm256_permute2f128_pd(hq, hq, 0x01), conj_mask);
    const __m256d a = _mm256_mul_pd(half, _mm256_add_pd(lo, c));
    const __m256d d = _mm256_mul_pd(half, _mm256_sub_pd(lo, c));
    const __m256d o = _mm256_xor_pd(_mm256_permute_pd(d, 0x5), conj_mask);
    const __m256d b = cmul_exact_avx2(
        o, _mm256_loadu_pd(reinterpret_cast<const double*>(tw + k)));
    const __m256d xh = _mm256_xor_pd(_mm256_sub_pd(a, b), conj_mask);
    _mm256_storeu_pd(q, _mm256_permute2f128_pd(xh, xh, 0x01));
    _mm256_storeu_pd(p, _mm256_add_pd(a, b));
  }
  for (; 2 * k <= h; ++k) untangle_pair(z, tw, h, k);
  untangle_edges(z, h);
}

__attribute__((target("avx2"))) void real_pretangle_avx2_impl(
    double* z, const Complex* tw, std::size_t h) {
  const __m256d conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  const __m256d re_neg = _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0);
  std::size_t k = 1;
  for (; 2 * (k + 1) < h; k += 2) {
    double* p = z + 2 * k;
    double* q = z + 2 * (h - k - 1);
    const __m256d lo = _mm256_loadu_pd(p);
    const __m256d hq = _mm256_loadu_pd(q);
    const __m256d c = _mm256_xor_pd(_mm256_permute2f128_pd(hq, hq, 0x01), conj_mask);
    const __m256d e = _mm256_add_pd(lo, c);
    const __m256d d = _mm256_sub_pd(lo, c);
    const __m256d w = _mm256_xor_pd(
        _mm256_loadu_pd(reinterpret_cast<const double*>(tw + k)), conj_mask);
    const __m256d o = cmul_exact_avx2(d, w);
    const __m256d iq = _mm256_xor_pd(_mm256_permute_pd(o, 0x5), re_neg);
    const __m256d zh = _mm256_xor_pd(_mm256_sub_pd(e, iq), conj_mask);
    _mm256_storeu_pd(q, _mm256_permute2f128_pd(zh, zh, 0x01));
    _mm256_storeu_pd(p, _mm256_add_pd(e, iq));
  }
  for (; 2 * k <= h; ++k) pretangle_pair(z, tw, h, k);
  pretangle_edges(z, h);
}
#endif  // SAIYAN_FFT_AVX2

// FFT dispatch is by CPUID alone (simd::set_isa does not reach it): the
// radix-2 butterflies use FMA and are allowed to round differently from
// the portable path, unlike the dsp/simd.hpp kernels.
bool have_avx2_fma() { return simd::cpu_has_avx2_fma(); }

}  // namespace

namespace detail {

void radix3_deinterleave_scalar(const Complex* x, Complex* s, std::size_t m) {
  for (std::size_t j = 0; j < m; ++j) {
    s[j] = x[3 * j];
    s[m + j] = x[3 * j + 1];
    s[2 * m + j] = x[3 * j + 2];
  }
}

bool radix3_deinterleave_avx2(const Complex* x, Complex* s, std::size_t m) {
#ifdef SAIYAN_FFT_AVX2
  if (!have_avx2_fma()) return false;
  radix3_deinterleave_avx2_impl(reinterpret_cast<const double*>(x),
                                reinterpret_cast<double*>(s), m);
  return true;
#else
  (void)x;
  (void)s;
  (void)m;
  return false;
#endif
}

void radix3_combine_scalar(Complex* out, const Complex* s, const Complex* tw,
                           std::size_t m, bool inverse) {
  radix3_combine_scalar_range(out, s, tw, m, 0, inverse);
}

bool radix3_combine_avx2(Complex* out, const Complex* s, const Complex* tw,
                         std::size_t m, bool inverse) {
#ifdef SAIYAN_FFT_AVX2
  if (!have_avx2_fma()) return false;
  radix3_combine_avx2_impl(reinterpret_cast<double*>(out),
                           reinterpret_cast<const double*>(s), tw, m, inverse);
  return true;
#else
  (void)out;
  (void)s;
  (void)tw;
  (void)m;
  (void)inverse;
  return false;
#endif
}

void pow2_first_pass_scalar(Complex* x, std::size_t n, bool inverse) {
  first_pass_scalar(reinterpret_cast<double*>(x), n, odd_stage_count(n),
                    inverse);
}

bool pow2_first_pass_avx2(Complex* x, std::size_t n, bool inverse) {
#ifdef SAIYAN_FFT_AVX2
  if (!have_avx2_fma()) return false;
  first_pass_avx2(reinterpret_cast<double*>(x), n, odd_stage_count(n),
                  inverse);
  return true;
#else
  (void)x;
  (void)n;
  (void)inverse;
  return false;
#endif
}

void real_untangle_scalar(Complex* z, const Complex* tw, std::size_t h) {
  double* d = reinterpret_cast<double*>(z);
  for (std::size_t k = 1; 2 * k <= h; ++k) untangle_pair(d, tw, h, k);
  untangle_edges(d, h);
}

bool real_untangle_avx2(Complex* z, const Complex* tw, std::size_t h) {
#ifdef SAIYAN_FFT_AVX2
  if (!have_avx2_fma()) return false;
  real_untangle_avx2_impl(reinterpret_cast<double*>(z), tw, h);
  return true;
#else
  (void)z;
  (void)tw;
  (void)h;
  return false;
#endif
}

void real_pretangle_scalar(Complex* z, const Complex* tw, std::size_t h) {
  double* d = reinterpret_cast<double*>(z);
  for (std::size_t k = 1; 2 * k <= h; ++k) pretangle_pair(d, tw, h, k);
  pretangle_edges(d, h);
}

bool real_pretangle_avx2(Complex* z, const Complex* tw, std::size_t h) {
#ifdef SAIYAN_FFT_AVX2
  if (!have_avx2_fma()) return false;
  real_pretangle_avx2_impl(reinterpret_cast<double*>(z), tw, h);
  return true;
#else
  (void)z;
  (void)tw;
  (void)h;
  return false;
#endif
}

}  // namespace detail

// Butterflies over raw doubles with two radix-2 stages fused per
// memory pass (radix-2² access pattern). std::complex multiplication
// lowers to a libgcc helper call (__muldc3) under default flags;
// operating on the re/im parts directly keeps the loop branch-lean and
// lets the compiler vectorize it. Fusing stage pairs halves the number
// of passes over the working set, which is what the large transforms
// are bound by. The input is in bit-reversed order.
void FftPlan::pow2_passes(double* x, bool inverse, bool avx2) const {
  const std::size_t n = n_;
  if (n < 2) return;
  // Odd number of stages: one plain radix-2 pass (w = 1 throughout);
  // even: a first fused pass whose twiddles are all 1 — pure 4-point
  // butterflies.
  const bool radix2 = odd_stage_count(n);
#ifdef SAIYAN_FFT_AVX2
  if (avx2) {
    first_pass_avx2(x, n, radix2, inverse);
  } else {
    first_pass_scalar(x, n, radix2, inverse);
  }
#else
  first_pass_scalar(x, n, radix2, inverse);
#endif
  // Sub-transform size already completed; grows 4x per fused pass. The
  // inverse transform reuses the forward tables with conjugated
  // twiddles (imag parts negated on the fly).
  std::size_t m = radix2 ? 2 : 4;
  const double isign = inverse ? 1.0 : -1.0;
  const double csign = inverse ? -1.0 : 1.0;
  const Complex* twa = stage_twa_.data();
  const Complex* twb = stage_twb_.data();
  for (; m < n; m *= 4) {
    const std::size_t q = m;  // quarter of the new sub-size, >= 2 here
#ifdef SAIYAN_FFT_AVX2
    if (avx2) {
      fused_pass_avx2(x, n, q, twa, twb, inverse);
    } else {
      fused_pass_scalar(x, n, q, twa, twb, isign, csign);
    }
#else
    (void)avx2;
    fused_pass_scalar(x, n, q, twa, twb, isign, csign);
#endif
    twa += q;
    twb += q;
  }
}

// The forward passes of pow2_passes run on the bit-reversal conjugate
// of its layout: the value pow2_passes keeps at i is kept at bitrev(i).
// A natural-order input is then already "bit-reversed", each butterfly
// computes what it computes there, and bin k ends at bitrev(k). A pass's
// butterflies that share a twiddle pair sit in one contiguous run, so
// the twiddles are loaded once per run instead of once per butterfly.
void FftPlan::pow2_passes_scrambled(double* x, bool avx2) const {
  const std::size_t n = n_;
  if (n < 2) return;
  const bool radix2 = odd_stage_count(n);
#ifdef SAIYAN_FFT_AVX2
  if (avx2 && n >= 8) {
    first_pass_scrambled_avx2(x, n, radix2);
  } else {
    first_pass_scrambled_scalar(x, n, radix2);
  }
#else
  first_pass_scrambled_scalar(x, n, radix2);
#endif
  std::size_t m = radix2 ? 2 : 4;
  const Complex* twa = stage_twa_.data();
  const Complex* twb = stage_twb_.data();
  for (; m < n; m *= 4) {
    const std::size_t q = m;
#ifdef SAIYAN_FFT_AVX2
    if (avx2) {
      fused_pass_scrambled_avx2(x, n, q, bitrev_.data(), twa, twb);
    } else {
      fused_pass_scrambled_scalar(x, n, q, bitrev_.data(), twa, twb);
    }
#else
    (void)avx2;
    fused_pass_scrambled_scalar(x, n, q, bitrev_.data(), twa, twb);
#endif
    twa += q;
    twb += q;
  }
}

// Radix-3 DIT split for n = 3·2^k. Scratch holds the three decimated
// sequences contiguously; each runs the iterative power-of-two kernel
// and the results are combined with the precomputed w^k / w^2k
// twiddles (conjugated on the fly for the inverse). Both split passes
// dispatch to AVX2 variants that are bit-identical to the scalar
// references (detail::radix3_*), so the radix-3 spectrum — unlike the
// FMA radix-2 butterflies — is ISA-invariant.
//
// Scrambled, the forward runs the sub-transforms scrambled and combines
// position p of each third (bin k = bitrev(p)) with the twiddles stored
// at p, so its reads and writes stay contiguous and bin t·m + k lands at
// t·m + p. The inverse gathers each sub-transform's bit-reversed input
// straight from that layout, replacing the de-interleave and the three
// swap loops.
void FftPlan::transform_radix3(Complex* x, Signal& scratch, bool inverse,
                               bool scrambled, bool avx2) const {
  const std::size_t m = n_ / 3;
  scratch.resize(n_);
  Complex* s = scratch.data();
  const Complex* tw = tw3_.data();
  if (scrambled && inverse) {
    const std::uint32_t* gather = scrambled_radix3().gather.data();
    for (std::size_t j = 0; j < n_; ++j) s[j] = x[gather[j]];
  } else {
    if (!(avx2 && detail::radix3_deinterleave_avx2(x, s, m))) {
      detail::radix3_deinterleave_scalar(x, s, m);
    }
  }
  for (std::size_t r = 0; r < 3; ++r) {
    third_->transform_pow2(s + r * m, inverse, scrambled, avx2);
  }
  if (scrambled && !inverse) tw = scrambled_radix3().tw.data();
  if (!(avx2 && detail::radix3_combine_avx2(x, s, tw, m, inverse))) {
    detail::radix3_combine_scalar(x, s, tw, m, inverse);
  }
}

const FftPlan::ScrambledRadix3& FftPlan::scrambled_radix3() const {
  std::call_once(scrambled_once_, [this] {
    const std::size_t m = n_ / 3;
    const std::vector<std::uint32_t>& rev = third_->bitrev_;
    scrambled_.tw.resize(2 * m);
    for (std::size_t p = 0; p < m; ++p) {
      scrambled_.tw[2 * p] = tw3_[2 * rev[p]];
      scrambled_.tw[2 * p + 1] = tw3_[2 * rev[p] + 1];
    }
    // Slot i of sub-sequence r takes bin 3·bitrev(i) + r; the scrambled
    // forward stored bin t·m + k at t·m + bitrev(k).
    scrambled_.gather.resize(n_);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t bin = 3 * rev[i] + r;
        scrambled_.gather[r * m + i] =
            static_cast<std::uint32_t>(bin / m * m + rev[bin % m]);
      }
    }
  });
  return scrambled_;
}

void FftPlan::transform_pow2(Complex* xc, bool inverse, bool scrambled,
                             bool avx2) const {
  double* x = reinterpret_cast<double*>(xc);
  if (scrambled && !inverse) {
    pow2_passes_scrambled(x, avx2);
    return;
  }
  if (!scrambled) {
    for (std::size_t i = 1; i < n_; ++i) {
      const std::size_t j = bitrev_[i];
      if (i < j) {
        std::swap(x[2 * i], x[2 * j]);
        std::swap(x[2 * i + 1], x[2 * j + 1]);
      }
    }
  }
  pow2_passes(x, inverse, avx2);
}

void FftPlan::bluestein(Complex* x, bool inverse) const {
  const std::size_t n = n_;
  const Signal& chirp = inverse ? chirp_inv_ : chirp_fwd_;
  const Signal& bspec = inverse ? bspec_inv_ : bspec_fwd_;
  Signal a(m_, Complex{});
  for (std::size_t k = 0; k < n; ++k) {
    const double xr = x[k].real();
    const double xi = x[k].imag();
    const double cr = chirp[k].real();
    const double ci = chirp[k].imag();
    a[k] = Complex(xr * cr - xi * ci, xr * ci + xi * cr);
  }
  conv_->forward(a);
  for (std::size_t k = 0; k < m_; ++k) {
    const double ar = a[k].real();
    const double ai = a[k].imag();
    const double br = bspec[k].real();
    const double bi = bspec[k].imag();
    a[k] = Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
  conv_->inverse(a);
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[k].real();
    const double ai = a[k].imag();
    const double cr = chirp[k].real();
    const double ci = chirp[k].imag();
    x[k] = Complex(ar * cr - ai * ci, ar * ci + ai * cr);
  }
}

void FftPlan::transform(Complex* x, Signal& scratch, bool inverse,
                        bool scrambled, bool avx2) const {
  if (pow2_) {
    transform_pow2(x, inverse, scrambled, avx2);
  } else if (radix3_) {
    transform_radix3(x, scratch, inverse, scrambled, avx2);
  } else {
    bluestein(x, inverse);
  }
}

void FftPlan::forward(Signal& x, Signal& scratch) const {
  if (x.size() != n_) throw std::invalid_argument("FftPlan::forward: size mismatch");
  transform(x.data(), scratch, false, false, have_avx2_fma());
}

void FftPlan::inverse_raw(Signal& x, Signal& scratch) const {
  if (x.size() != n_) throw std::invalid_argument("FftPlan::inverse: size mismatch");
  transform(x.data(), scratch, true, false, have_avx2_fma());
}

void FftPlan::inverse(Signal& x, Signal& scratch) const {
  inverse_raw(x, scratch);
  const double scale = 1.0 / static_cast<double>(n_);
  for (Complex& v : x) v *= scale;
}

void FftPlan::forward_scrambled(Signal& x, Signal& scratch) const {
  if (x.size() != n_) throw std::invalid_argument("FftPlan::forward: size mismatch");
  transform(x.data(), scratch, false, true, have_avx2_fma());
}

void FftPlan::inverse_raw_scrambled(Signal& x, Signal& scratch) const {
  if (x.size() != n_) throw std::invalid_argument("FftPlan::inverse: size mismatch");
  transform(x.data(), scratch, true, true, have_avx2_fma());
}

std::size_t FftPlan::scrambled_bin(std::size_t p) const {
  if (pow2_) return bitrev_[p];
  if (radix3_) {
    const std::size_t m = n_ / 3;
    return p / m * m + third_->bitrev_[p % m];
  }
  return p;
}

namespace detail {

void transform_scalar(const FftPlan& plan, Signal& x, Signal& scratch,
                      bool inverse, bool scrambled) {
  plan.transform(x.data(), scratch, inverse, scrambled, false);
}

bool transform_avx2(const FftPlan& plan, Signal& x, Signal& scratch,
                    bool inverse, bool scrambled) {
  if (!have_avx2_fma()) return false;
  plan.transform(x.data(), scratch, inverse, scrambled, true);
  return true;
}

}  // namespace detail

namespace {

// Fallback scratch for the no-scratch overloads: per-thread so the
// radix-3 de-interleave does not allocate (and page-fault) per
// transform. Callers on the zero-allocation path pass their own.
Signal& thread_scratch() {
  thread_local Signal scratch;
  return scratch;
}

}  // namespace

void FftPlan::forward(Signal& x) const { forward(x, thread_scratch()); }

void FftPlan::inverse(Signal& x) const { inverse(x, thread_scratch()); }

const FftPlan::RealPath& FftPlan::real_path() const {
  std::call_once(real_once_, [this] {
    real_.half = fft_plan(n_ / 2);
    real_.tw.resize(n_ / 4 + 1);
    for (std::size_t k = 0; k < real_.tw.size(); ++k) {
      const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n_);
      real_.tw[k] = Complex(std::cos(ang), std::sin(ang));
    }
  });
  return real_;
}

void FftPlan::forward_real_half(std::span<const double> x, Signal& out,
                                Signal& scratch) const {
  if (x.size() > n_) {
    throw std::invalid_argument("FftPlan::forward_real_half: input longer than plan");
  }
  const std::size_t h = n_ / 2;
  if (n_ % 2 != 0) {
    // Odd length: no half-length path; a full complex transform.
    out.assign(n_, Complex{});
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = Complex(x[i], 0.0);
    forward(out, scratch);
    out.resize(h + 1);
    return;
  }
  // z[j] = x[2j] + i·x[2j+1] is x's own memory layout read as complex
  // values, so packing is a copy plus the zero padding.
  out.resize(h + 1);
  double* z = reinterpret_cast<double*>(out.data());
  std::copy(x.begin(), x.end(), z);
  std::fill(z + x.size(), z + n_, 0.0);
  const RealPath& rp = real_path();
  rp.half->transform(out.data(), scratch, false, false, have_avx2_fma());
  if (!detail::real_untangle_avx2(out.data(), rp.tw.data(), h)) {
    detail::real_untangle_scalar(out.data(), rp.tw.data(), h);
  }
}

void FftPlan::inverse_real_raw(Signal& spec, RealSignal& out, Signal& scratch) const {
  const std::size_t h = n_ / 2;
  if (spec.size() < h + 1) {
    throw std::invalid_argument("FftPlan::inverse_real_raw: needs bins 0..N/2");
  }
  if (n_ % 2 != 0) {
    // Odd length: no half-length path; mirror the full spectrum.
    spec.resize(n_);
    for (std::size_t k = h + 1; k < n_; ++k) spec[k] = std::conj(spec[n_ - k]);
    spec[0] = Complex(spec[0].real(), 0.0);
    inverse_raw(spec, scratch);
    out.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) out[i] = spec[i].real();
    return;
  }
  const RealPath& rp = real_path();
  if (!detail::real_pretangle_avx2(spec.data(), rp.tw.data(), h)) {
    detail::real_pretangle_scalar(spec.data(), rp.tw.data(), h);
  }
  rp.half->transform(spec.data(), scratch, true, false, have_avx2_fma());
  // z[j] = n·(x[2j] + i·x[2j+1]): unpacking is the same copy backwards.
  const double* z = reinterpret_cast<const double*>(spec.data());
  out.assign(z, z + n_);
}

std::shared_ptr<const FftPlan> fft_plan(std::size_t n) {
  static std::shared_mutex mu;
  static std::map<std::size_t, std::shared_ptr<const FftPlan>> cache;
  {
    // Steady-state path: a shared (read) lock only, so SweepEngine
    // workers looking up the same few plans never serialize on the
    // cache — the exclusive lock is paid once per distinct length.
    std::shared_lock<std::shared_mutex> lock(mu);
    auto it = cache.find(n);
    if (it != cache.end()) return it->second;
  }
  // Built outside any lock: plan construction recurses into fft_plan
  // for the half-size / radix-3 / Bluestein sub-plans. Losing the
  // insertion race just discards the duplicate plan.
  auto plan = std::make_shared<const FftPlan>(n);
  std::unique_lock<std::shared_mutex> lock(mu);
  auto [it, inserted] = cache.emplace(n, std::move(plan));
  return it->second;
}

void fft_inplace(Signal& x) {
  if (x.empty()) throw std::invalid_argument("fft: empty input");
  fft_plan(x.size())->forward(x);
}

void ifft_inplace(Signal& x) {
  if (x.empty()) throw std::invalid_argument("ifft: empty input");
  fft_plan(x.size())->inverse(x);
}

double bin_frequency(std::size_t k, std::size_t n, double fs) {
  if (n == 0) throw std::invalid_argument("bin_frequency: n must be > 0");
  const double f = static_cast<double>(k) * fs / static_cast<double>(n);
  return (k < (n + 1) / 2) ? f : f - fs;
}

}  // namespace saiyan::dsp
