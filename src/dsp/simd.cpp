#include "dsp/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SAIYAN_SIMD_AVX2 1
#endif

namespace saiyan::dsp::simd {

namespace {

std::atomic<Isa> g_isa{Isa::kAuto};

}  // namespace

bool cpu_has_avx2_fma() {
#ifdef SAIYAN_SIMD_AVX2
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

void set_isa(Isa isa) { g_isa.store(isa, std::memory_order_relaxed); }

Isa active_isa() {
  const Isa v = g_isa.load(std::memory_order_relaxed);
  if (v == Isa::kScalar) return Isa::kScalar;
  return cpu_has_avx2_fma() ? Isa::kAvx2 : Isa::kScalar;
}

namespace {

bool use_avx2() { return active_isa() == Isa::kAvx2; }

// ------------------------------------------------------------- scalar
// Reference implementations. Element-wise kernels are written in the
// exact association the AVX2 variants reproduce lane-wise; reductions
// use the fixed 4-accumulator blocking described in the header.

void square_law_scalar(const Complex* x, std::size_t n, double k, double* y) {
  const double* d = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = d[2 * i];
    const double im = d[2 * i + 1];
    y[i] = k * (re * re + im * im);
  }
}

void square_law_mixed_scalar(const Complex* x, const double* gain,
                             std::size_t n, double k, double* y) {
  const double* d = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = d[2 * i];
    const double im = d[2 * i + 1];
    const double g2 = gain[i] * gain[i];
    y[i] = k * g2 * (re * re + im * im);
  }
}

// The fused LNA + square-law reference. A null rng is the draw-free
// arm: re = g·x, the same arithmetic as scale() then square_law().
void lna_square_law_scalar(const Complex* x, const double* gain,
                           std::size_t n, double g, double sigma, double k,
                           double* y, Rng* rng) {
  const double* d = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    double re = d[2 * i];
    double im = d[2 * i + 1];
    if (rng != nullptr) {
      re += sigma * rng->gaussian();
      im += sigma * rng->gaussian();
    }
    re *= g;
    im *= g;
    if (gain != nullptr) {
      const double g2 = gain[i] * gain[i];
      y[i] = k * g2 * (re * re + im * im);
    } else {
      y[i] = k * (re * re + im * im);
    }
  }
}

void scale_scalar(const double* x, std::size_t n, double g, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = g * x[i];
}

void multiply_scalar(const double* x, const double* y, std::size_t n,
                     double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
}

void complex_scale_table_scalar(Complex* x, const double* g, std::size_t n) {
  double* d = reinterpret_cast<double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    d[2 * i] *= g[i];
    d[2 * i + 1] *= g[i];
  }
}

double sum_scalar(const double* x, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += x[i];
    a1 += x[i + 1];
    a2 += x[i + 2];
    a3 += x[i + 3];
  }
  double s = ((a0 + a1) + a2) + a3;
  for (; i < n; ++i) s += x[i];
  return s;
}

Complex cdot_scalar(const Complex* xc, const Complex* yc, std::size_t n) {
  const double* x = reinterpret_cast<const double*>(xc);
  const double* y = reinterpret_cast<const double*>(yc);
  double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    r0 += x[2 * i] * y[2 * i] + x[2 * i + 1] * y[2 * i + 1];
    r1 += x[2 * i + 2] * y[2 * i + 2] + x[2 * i + 3] * y[2 * i + 3];
    r2 += x[2 * i + 4] * y[2 * i + 4] + x[2 * i + 5] * y[2 * i + 5];
    r3 += x[2 * i + 6] * y[2 * i + 6] + x[2 * i + 7] * y[2 * i + 7];
    m0 += x[2 * i + 1] * y[2 * i] - x[2 * i] * y[2 * i + 1];
    m1 += x[2 * i + 3] * y[2 * i + 2] - x[2 * i + 2] * y[2 * i + 3];
    m2 += x[2 * i + 5] * y[2 * i + 4] - x[2 * i + 4] * y[2 * i + 5];
    m3 += x[2 * i + 7] * y[2 * i + 6] - x[2 * i + 6] * y[2 * i + 7];
  }
  double re = ((r0 + r1) + r2) + r3;
  double im = ((m0 + m1) + m2) + m3;
  for (; i < n; ++i) {
    re += x[2 * i] * y[2 * i] + x[2 * i + 1] * y[2 * i + 1];
    im += x[2 * i + 1] * y[2 * i] - x[2 * i] * y[2 * i + 1];
  }
  return {re, im};
}

void complex_scaled_subtract_scalar(const Complex* xc, std::size_t n,
                                    Complex a, Complex b, Complex* yc) {
  const double* x = reinterpret_cast<const double*>(xc);
  double* y = reinterpret_cast<double*>(yc);
  const double ar = a.real(), ai = a.imag();
  const double br = b.real(), bi = b.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = x[2 * i];
    const double xi = x[2 * i + 1];
    const double pr = ar * xr - ai * xi;
    const double pi = ar * xi + ai * xr;
    y[2 * i] = y[2 * i] - (pr + br);
    y[2 * i + 1] = y[2 * i + 1] - (pi + bi);
  }
}

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  double s = ((a0 + a1) + a2) + a3;
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

double sum_squares_scalar(const double* x, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += x[i] * x[i];
    a1 += x[i + 1] * x[i + 1];
    a2 += x[i + 2] * x[i + 2];
    a3 += x[i + 3] * x[i + 3];
  }
  double s = ((a0 + a1) + a2) + a3;
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

#ifdef SAIYAN_SIMD_AVX2

// --------------------------------------------------------------- avx2
// Each variant uses plain mul/add intrinsics (never fmadd) in the
// scalar expression's association, so the results are bit-identical to
// the reference — FMA stays reserved for the FFT butterflies where the
// plan's twiddle layout already defines the rounding.

__attribute__((target("avx2"))) void square_law_avx2(const Complex* x,
                                                     std::size_t n, double k,
                                                     double* y) {
  const double* d = reinterpret_cast<const double*>(x);
  const __m256d kv = _mm256_set1_pd(k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(d + 2 * i);      // re0 im0 re1 im1
    const __m256d b = _mm256_loadu_pd(d + 2 * i + 4);  // re2 im2 re3 im3
    const __m256d sa = _mm256_mul_pd(a, a);
    const __m256d sb = _mm256_mul_pd(b, b);
    // hadd yields [s0 s2 s1 s3]; permute restores element order.
    const __m256d h = _mm256_hadd_pd(sa, sb);
    const __m256d s = _mm256_permute4x64_pd(h, 0xD8);
    _mm256_storeu_pd(y + i, _mm256_mul_pd(kv, s));
  }
  for (; i < n; ++i) {
    const double re = d[2 * i];
    const double im = d[2 * i + 1];
    y[i] = k * (re * re + im * im);
  }
}

__attribute__((target("avx2"))) void square_law_mixed_avx2(
    const Complex* x, const double* gain, std::size_t n, double k, double* y) {
  const double* d = reinterpret_cast<const double*>(x);
  const __m256d kv = _mm256_set1_pd(k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(d + 2 * i);
    const __m256d b = _mm256_loadu_pd(d + 2 * i + 4);
    const __m256d sa = _mm256_mul_pd(a, a);
    const __m256d sb = _mm256_mul_pd(b, b);
    const __m256d h = _mm256_hadd_pd(sa, sb);
    const __m256d s = _mm256_permute4x64_pd(h, 0xD8);
    const __m256d g = _mm256_loadu_pd(gain + i);
    const __m256d g2 = _mm256_mul_pd(g, g);
    const __m256d kg2 = _mm256_mul_pd(kv, g2);
    _mm256_storeu_pd(y + i, _mm256_mul_pd(kg2, s));
  }
  for (; i < n; ++i) {
    const double re = d[2 * i];
    const double im = d[2 * i + 1];
    const double g2 = gain[i] * gain[i];
    y[i] = k * g2 * (re * re + im * im);
  }
}

__attribute__((target("avx2"))) void scale_avx2(const double* x, std::size_t n,
                                                double g, double* out) {
  const __m256d gv = _mm256_set1_pd(g);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(gv, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = g * x[i];
}

__attribute__((target("avx2"))) void multiply_avx2(const double* x,
                                                   const double* y,
                                                   std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i];
}

__attribute__((target("avx2"))) void complex_scale_table_avx2(Complex* x,
                                                              const double* g,
                                                              std::size_t n) {
  double* d = reinterpret_cast<double*>(x);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d gp = _mm256_castpd128_pd256(_mm_loadu_pd(g + i));
    const __m256d gv = _mm256_permute4x64_pd(gp, 0x50);  // g0 g0 g1 g1
    const __m256d v = _mm256_loadu_pd(d + 2 * i);
    _mm256_storeu_pd(d + 2 * i, _mm256_mul_pd(v, gv));
  }
  for (; i < n; ++i) {
    d[2 * i] *= g[i];
    d[2 * i + 1] *= g[i];
  }
}

__attribute__((target("avx2"))) double sum_avx2(const double* x,
                                                std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) s += x[i];
  return s;
}

__attribute__((target("avx2"))) double dot_avx2(const double* x,
                                                const double* y,
                                                std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

__attribute__((target("avx2"))) Complex cdot_avx2(const Complex* xc,
                                                  const Complex* yc,
                                                  std::size_t n) {
  const double* x = reinterpret_cast<const double*>(xc);
  const double* y = reinterpret_cast<const double*>(yc);
  __m256d acc_re = _mm256_setzero_pd();
  __m256d acc_im = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(x + 2 * i);      // x0r x0i x1r x1i
    const __m256d b = _mm256_loadu_pd(y + 2 * i);
    const __m256d c = _mm256_loadu_pd(x + 2 * i + 4);  // x2r x2i x3r x3i
    const __m256d d = _mm256_loadu_pd(y + 2 * i + 4);
    // Real part: xr·yr + xi·yi per complex; hadd pairs then restore
    // element order (the square_law trick).
    const __m256d pa = _mm256_mul_pd(a, b);
    const __m256d pc = _mm256_mul_pd(c, d);
    const __m256d re4 =
        _mm256_permute4x64_pd(_mm256_hadd_pd(pa, pc), 0xD8);
    // Imag part: xi·yr − xr·yi = hsub of (swapped x)·y pairs.
    const __m256d qa = _mm256_mul_pd(_mm256_permute_pd(a, 0b0101), b);
    const __m256d qc = _mm256_mul_pd(_mm256_permute_pd(c, 0b0101), d);
    const __m256d im4 =
        _mm256_permute4x64_pd(_mm256_hsub_pd(qa, qc), 0xD8);
    acc_re = _mm256_add_pd(acc_re, re4);
    acc_im = _mm256_add_pd(acc_im, im4);
  }
  alignas(32) double lr[4];
  alignas(32) double li[4];
  _mm256_store_pd(lr, acc_re);
  _mm256_store_pd(li, acc_im);
  double re = ((lr[0] + lr[1]) + lr[2]) + lr[3];
  double im = ((li[0] + li[1]) + li[2]) + li[3];
  for (; i < n; ++i) {
    re += x[2 * i] * y[2 * i] + x[2 * i + 1] * y[2 * i + 1];
    im += x[2 * i + 1] * y[2 * i] - x[2 * i] * y[2 * i + 1];
  }
  return {re, im};
}

__attribute__((target("avx2"))) void complex_scaled_subtract_avx2(
    const Complex* xc, std::size_t n, Complex a, Complex b, Complex* yc) {
  const double* x = reinterpret_cast<const double*>(xc);
  double* y = reinterpret_cast<double*>(yc);
  const __m256d ar4 = _mm256_set1_pd(a.real());
  const __m256d ai4 = _mm256_set1_pd(a.imag());
  const __m256d b4 = _mm256_setr_pd(b.real(), b.imag(), b.real(), b.imag());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d v = _mm256_loadu_pd(x + 2 * i);  // x0r x0i x1r x1i
    const __m256d t1 = _mm256_mul_pd(v, ar4);
    const __m256d t2 = _mm256_mul_pd(_mm256_permute_pd(v, 0b0101), ai4);
    // addsub: even lanes t1−t2 = ar·xr − ai·xi, odd lanes t1+t2 =
    // ar·xi + ai·xr — the scalar association exactly.
    const __m256d p = _mm256_addsub_pd(t1, t2);
    const __m256d s = _mm256_add_pd(p, b4);
    _mm256_storeu_pd(y + 2 * i, _mm256_sub_pd(_mm256_loadu_pd(y + 2 * i), s));
  }
  for (; i < n; ++i) {
    const double xr = x[2 * i];
    const double xi = x[2 * i + 1];
    const double pr = a.real() * xr - a.imag() * xi;
    const double pi = a.real() * xi + a.imag() * xr;
    y[2 * i] = y[2 * i] - (pr + b.real());
    y[2 * i + 1] = y[2 * i + 1] - (pi + b.imag());
  }
}

__attribute__((target("avx2"))) double sum_squares_avx2(const double* x,
                                                        std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

#endif  // SAIYAN_SIMD_AVX2

// -------------------------------------------------------- gaussian fill
// Batch ziggurat. The scalar path is literally n repeated
// Rng::gaussian() calls. The AVX2 path draws engine words in blocks of
// four, vectorizes the layer lookup + accept test, and on any
// rejection replays the remaining buffered words through the scalar
// ziggurat (a FIFO over the engine), so the consumed word sequence —
// and therefore every produced value — is identical to the scalar
// path.

using detail::gaussian_from;  // the shared scalar ziggurat (dsp/rng.hpp)

#ifdef SAIYAN_SIMD_AVX2

/// Exact conversion of four sub-2^53 words to doubles (split into a
/// 2^32-weighted high part and a 2^52-biased low part; every step is
/// exact for this range, so the result is bit-identical to cvtsi2sd).
__attribute__((target("avx2"), always_inline)) inline __m256d u53_to_pd(
    __m256i x) {
  const __m256i hi = _mm256_or_si256(
      _mm256_srli_epi64(x, 32),
      _mm256_castpd_si256(_mm256_set1_pd(19342813113834066795298816.)));  // 2^84
  const __m256i lo = _mm256_blend_epi32(
      x, _mm256_castpd_si256(_mm256_set1_pd(0x1p52)), 0xAA);
  const __m256d f = _mm256_sub_pd(
      _mm256_castsi256_pd(hi),
      _mm256_set1_pd(19342813118337666422669312.));  // 2^84 + 2^52
  return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

/// Accept test for four buffered engine words. `*values` receives the
/// four candidate gaussians (only the leading `accepted` lanes are
/// valid); returns the length of the leading accepted run (4 = the
/// whole block accepted). Table lookups are scalar loads (the
/// ziggurat tables live in L1; vpgatherqq loses to them on most
/// cores); the convert, multiply and sign flip are vector ops.
__attribute__((target("avx2"), always_inline)) inline int gaussian4_avx2(
    const detail::ZigguratTables& t, const std::uint64_t* u, __m256d* values) {
  const int i0 = static_cast<int>(u[0] & 127u);
  const int i1 = static_cast<int>(u[1] & 127u);
  const int i2 = static_cast<int>(u[2] & 127u);
  const int i3 = static_cast<int>(u[3] & 127u);
  const __m256i uv =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u));
  const __m256i kv = _mm256_set_epi64x(
      static_cast<long long>(t.k[i3]), static_cast<long long>(t.k[i2]),
      static_cast<long long>(t.k[i1]), static_cast<long long>(t.k[i0]));
  const __m256d wv = _mm256_set_pd(t.w[i3], t.w[i2], t.w[i1], t.w[i0]);
  const __m256i u53 = _mm256_srli_epi64(uv, 11);
  // Both sides are < 2^53, so the signed compare is exact.
  const __m256i lt = _mm256_cmpgt_epi64(kv, u53);
  const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(lt));
  const int accepted =
      mask == 0xF ? 4 : __builtin_ctz(static_cast<unsigned>(~mask & 0x1F));
  const __m256d x = _mm256_mul_pd(u53_to_pd(u53), wv);
  // The sign bit rides word bit 7: shift it to bit 63 and xor.
  const __m256i sgn = _mm256_and_si256(
      _mm256_slli_epi64(uv, 56), _mm256_set1_epi64x(
                                     static_cast<long long>(0x8000000000000000ULL)));
  *values = _mm256_xor_pd(x, _mm256_castsi256_pd(sgn));
  return accepted;
}

// The fused draw + inject kernels share this shape: engine words are
// drawn in blocks of four, the vector accept test handles the ~94%
// all-accept case with a vector update, and any rejected candidate
// (plus buffered words after it) replays through the scalar ziggurat
// via the word FIFO — so the draw stream is exactly the scalar one.

__attribute__((target("avx2"))) void fill_gaussian_avx2(Rng& rng, double* out,
                                                        std::size_t n) {
  const detail::ZigguratTables& t = detail::ZigguratTables::instance();
  std::uint64_t buf[4];
  std::size_t pos = 0, len = 0;
  const auto next = [&]() { return pos < len ? buf[pos++] : rng.engine()(); };
  std::size_t i = 0;
  while (i < n) {
    if (pos == len && n - i >= 4) {
      for (int l = 0; l < 4; ++l) buf[l] = rng.engine()();
      len = 4;
      __m256d g4;
      const int accepted = gaussian4_avx2(t, buf, &g4);
      if (accepted == 4) {
        _mm256_storeu_pd(out + i, g4);
        i += 4;
        pos = len = 0;
        continue;
      }
      alignas(32) double tmp[4];
      _mm256_store_pd(tmp, g4);
      for (int l = 0; l < accepted; ++l) out[i++] = tmp[l];
      pos = static_cast<std::size_t>(accepted);
    }
    out[i++] = gaussian_from(t, next);
  }
}

__attribute__((target("avx2"))) void scale_add_gaussian_avx2(
    const double* x, std::size_t n, double a, double sigma, double* out,
    Rng& rng) {
  const detail::ZigguratTables& t = detail::ZigguratTables::instance();
  const __m256d av = _mm256_set1_pd(a);
  const __m256d sv = _mm256_set1_pd(sigma);
  std::uint64_t buf[4];
  std::size_t pos = 0, len = 0;
  const auto next = [&]() { return pos < len ? buf[pos++] : rng.engine()(); };
  std::size_t i = 0;
  while (i < n) {
    if (pos == len && n - i >= 4) {
      for (int l = 0; l < 4; ++l) buf[l] = rng.engine()();
      len = 4;
      __m256d g4;
      const int accepted = gaussian4_avx2(t, buf, &g4);
      if (accepted == 4) {
        const __m256d u = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
        _mm256_storeu_pd(out + i, _mm256_add_pd(u, _mm256_mul_pd(sv, g4)));
        i += 4;
        pos = len = 0;
        continue;
      }
      alignas(32) double tmp[4];
      _mm256_store_pd(tmp, g4);
      for (int l = 0; l < accepted; ++l) {
        out[i] = a * x[i] + sigma * tmp[l];
        ++i;
      }
      pos = static_cast<std::size_t>(accepted);
    }
    const double g = gaussian_from(t, next);
    out[i] = a * x[i] + sigma * g;
    ++i;
  }
}

__attribute__((target("avx2"))) void gain_add_gaussian_avx2(
    const double* x, std::size_t n, double g, double sigma, double* out,
    Rng& rng) {
  const detail::ZigguratTables& t = detail::ZigguratTables::instance();
  const __m256d gv = _mm256_set1_pd(g);
  const __m256d sv = _mm256_set1_pd(sigma);
  std::uint64_t buf[4];
  std::size_t pos = 0, len = 0;
  const auto next = [&]() { return pos < len ? buf[pos++] : rng.engine()(); };
  std::size_t i = 0;
  while (i < n) {
    if (pos == len && n - i >= 4) {
      for (int l = 0; l < 4; ++l) buf[l] = rng.engine()();
      len = 4;
      __m256d g4;
      const int accepted = gaussian4_avx2(t, buf, &g4);
      if (accepted == 4) {
        const __m256d u = _mm256_add_pd(_mm256_loadu_pd(x + i),
                                        _mm256_mul_pd(sv, g4));
        _mm256_storeu_pd(out + i, _mm256_mul_pd(gv, u));
        i += 4;
        pos = len = 0;
        continue;
      }
      alignas(32) double tmp[4];
      _mm256_store_pd(tmp, g4);
      for (int l = 0; l < accepted; ++l) {
        out[i] = g * (x[i] + sigma * tmp[l]);
        ++i;
      }
      pos = static_cast<std::size_t>(accepted);
    }
    const double gs = gaussian_from(t, next);
    out[i] = g * (x[i] + sigma * gs);
    ++i;
  }
}

__attribute__((target("avx2"))) void lna_square_law_avx2(
    const Complex* xc, const double* gain, std::size_t n, double g,
    double sigma, double k, double* y, Rng* rng_or_null) {
  const double* x = reinterpret_cast<const double*>(xc);
  if (rng_or_null == nullptr) {
    // Draw-free arm: four samples per step in square_law_avx2's layout,
    // each amplified by g first (scale_avx2's g·x).
    const __m256d gv = _mm256_set1_pd(g);
    const __m256d kv = _mm256_set1_pd(k);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d a = _mm256_mul_pd(gv, _mm256_loadu_pd(x + 2 * i));
      const __m256d b = _mm256_mul_pd(gv, _mm256_loadu_pd(x + 2 * i + 4));
      const __m256d h =
          _mm256_hadd_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b));
      const __m256d s = _mm256_permute4x64_pd(h, 0xD8);
      __m256d kg2 = kv;
      if (gain != nullptr) {
        const __m256d gm = _mm256_loadu_pd(gain + i);
        kg2 = _mm256_mul_pd(kv, _mm256_mul_pd(gm, gm));
      }
      _mm256_storeu_pd(y + i, _mm256_mul_pd(kg2, s));
    }
    lna_square_law_scalar(xc + i, gain != nullptr ? gain + i : nullptr, n - i,
                          g, sigma, k, y + i, nullptr);
    return;
  }
  Rng& rng = *rng_or_null;
  const detail::ZigguratTables& t = detail::ZigguratTables::instance();
  const __m256d gv = _mm256_set1_pd(g);
  const __m256d sv = _mm256_set1_pd(sigma);
  const __m128d kv = _mm_set1_pd(k);
  std::uint64_t buf[4];
  std::size_t pos = 0, len = 0;
  const auto next = [&]() { return pos < len ? buf[pos++] : rng.engine()(); };
  std::size_t i = 0;  // sample (complex) index
  while (i < n) {
    if (pos == len && n - i >= 2) {
      for (int l = 0; l < 4; ++l) buf[l] = rng.engine()();
      len = 4;
      __m256d g4;
      const int accepted = gaussian4_avx2(t, buf, &g4);
      if (accepted == 4) {
        const __m256d u = _mm256_add_pd(_mm256_loadu_pd(x + 2 * i),
                                        _mm256_mul_pd(sv, g4));
        const __m256d amp = _mm256_mul_pd(gv, u);
        const __m256d sq = _mm256_mul_pd(amp, amp);
        const __m256d h = _mm256_hadd_pd(sq, sq);  // [s0 s0 s1 s1]
        const __m128d s = _mm_unpacklo_pd(_mm256_castpd256_pd128(h),
                                          _mm256_extractf128_pd(h, 1));
        __m128d out;
        if (gain != nullptr) {
          const __m128d gm = _mm_loadu_pd(gain + i);
          const __m128d g2 = _mm_mul_pd(gm, gm);
          out = _mm_mul_pd(_mm_mul_pd(kv, g2), s);
        } else {
          out = _mm_mul_pd(kv, s);
        }
        _mm_storeu_pd(y + i, out);
        i += 2;
        pos = len = 0;
        continue;
      }
      // A rejected candidate: replay the whole block through the
      // scalar ziggurat (identical values — draws are pure functions
      // of the engine words).
      pos = 0;
    }
    const double nr = sigma * gaussian_from(t, next);
    const double ni = sigma * gaussian_from(t, next);
    const double re = g * (x[2 * i] + nr);
    const double im = g * (x[2 * i + 1] + ni);
    if (gain != nullptr) {
      const double g2 = gain[i] * gain[i];
      y[i] = k * g2 * (re * re + im * im);
    } else {
      y[i] = k * (re * re + im * im);
    }
    ++i;
  }
}

__attribute__((target("avx2"))) void add_dc_flicker_gaussian_avx2(
    double* y, const double* flicker, std::size_t n, double dc, double sigma,
    Rng& rng) {
  const detail::ZigguratTables& t = detail::ZigguratTables::instance();
  const __m256d dcv = _mm256_set1_pd(dc);
  const __m256d sv = _mm256_set1_pd(sigma);
  std::uint64_t buf[4];
  std::size_t pos = 0, len = 0;
  const auto next = [&]() { return pos < len ? buf[pos++] : rng.engine()(); };
  std::size_t i = 0;
  while (i < n) {
    if (pos == len && n - i >= 4) {
      for (int l = 0; l < 4; ++l) buf[l] = rng.engine()();
      len = 4;
      __m256d g4;
      const int accepted = gaussian4_avx2(t, buf, &g4);
      if (accepted == 4) {
        const __m256d f = _mm256_add_pd(dcv, _mm256_loadu_pd(flicker + i));
        const __m256d rhs = _mm256_add_pd(f, _mm256_mul_pd(sv, g4));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), rhs));
        i += 4;
        pos = len = 0;
        continue;
      }
      alignas(32) double tmp[4];
      _mm256_store_pd(tmp, g4);
      for (int l = 0; l < accepted; ++l) {
        y[i] += dc + flicker[i] + sigma * tmp[l];
        ++i;
      }
      pos = static_cast<std::size_t>(accepted);
    }
    const double g = gaussian_from(t, next);
    y[i] += dc + flicker[i] + sigma * g;
    ++i;
  }
}

#endif  // SAIYAN_SIMD_AVX2

}  // namespace

void square_law(const Complex* x, std::size_t n, double k, double* y) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return square_law_avx2(x, n, k, y);
#endif
  square_law_scalar(x, n, k, y);
}

void square_law_mixed(const Complex* x, const double* gain, std::size_t n,
                      double k, double* y) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return square_law_mixed_avx2(x, gain, n, k, y);
#endif
  square_law_mixed_scalar(x, gain, n, k, y);
}

void scale(const double* x, std::size_t n, double g, double* out) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return scale_avx2(x, n, g, out);
#endif
  scale_scalar(x, n, g, out);
}

void multiply(const double* x, const double* y, std::size_t n, double* out) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return multiply_avx2(x, y, n, out);
#endif
  multiply_scalar(x, y, n, out);
}

void complex_scale_table(Complex* x, const double* g, std::size_t n) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return complex_scale_table_avx2(x, g, n);
#endif
  complex_scale_table_scalar(x, g, n);
}

double sum(const double* x, std::size_t n) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return sum_avx2(x, n);
#endif
  return sum_scalar(x, n);
}

double sum_squares(const double* x, std::size_t n) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return sum_squares_avx2(x, n);
#endif
  return sum_squares_scalar(x, n);
}

double sum_squares(const Complex* x, std::size_t n) {
  return sum_squares(reinterpret_cast<const double*>(x), 2 * n);
}

void fill_gaussian(Rng& rng, double* out, std::size_t n) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return fill_gaussian_avx2(rng, out, n);
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = rng.gaussian();
}

void scale_add_gaussian(const double* x, std::size_t n, double a, double sigma,
                        double* out, Rng& rng) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return scale_add_gaussian_avx2(x, n, a, sigma, out, rng);
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = a * x[i] + sigma * rng.gaussian();
}

void gain_add_gaussian(const double* x, std::size_t n, double g, double sigma,
                       double* out, Rng& rng) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return gain_add_gaussian_avx2(x, n, g, sigma, out, rng);
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const double gs = sigma * rng.gaussian();
    out[i] = g * (x[i] + gs);
  }
}

void add_dc_flicker_gaussian(double* y, const double* flicker, std::size_t n,
                             double dc, double sigma, Rng& rng) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return add_dc_flicker_gaussian_avx2(y, flicker, n, dc, sigma, rng);
#endif
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += dc + flicker[i] + sigma * rng.gaussian();
  }
}

void lna_square_law(const Complex* x, const double* gain, std::size_t n,
                    double g, double sigma, double k, double* y, Rng* rng) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return lna_square_law_avx2(x, gain, n, g, sigma, k, y, rng);
#endif
  lna_square_law_scalar(x, gain, n, g, sigma, k, y, rng);
}

double dot(const double* x, const double* y, std::size_t n) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return dot_avx2(x, y, n);
#endif
  return dot_scalar(x, y, n);
}

Complex cdot(const Complex* x, const Complex* y, std::size_t n) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return cdot_avx2(x, y, n);
#endif
  return cdot_scalar(x, y, n);
}

void complex_scaled_subtract(const Complex* x, std::size_t n, Complex a,
                             Complex b, Complex* y) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return complex_scaled_subtract_avx2(x, n, a, b, y);
#endif
  complex_scaled_subtract_scalar(x, n, a, b, y);
}

}  // namespace saiyan::dsp::simd
