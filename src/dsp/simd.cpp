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

// The draw-free LNA + square-law reference (the noiseless arm):
// re = g·x, then k·gain²·(re² + im²).
void lna_square_law_scalar(const Complex* x, const double* gain,
                           std::size_t n, double g, double k, double* y) {
  const double* d = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = g * d[2 * i];
    const double im = g * d[2 * i + 1];
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

// Draw-free arm: four samples per step (two loads of re/im pairs),
// each amplified by g first (scale_avx2's g·x).
__attribute__((target("avx2"))) void lna_square_law_avx2(
    const Complex* xc, const double* gain, std::size_t n, double g, double k,
    double* y) {
  const double* x = reinterpret_cast<const double*>(xc);
  const __m256d gv = _mm256_set1_pd(g);
  const __m256d kv = _mm256_set1_pd(k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_mul_pd(gv, _mm256_loadu_pd(x + 2 * i));
    const __m256d b = _mm256_mul_pd(gv, _mm256_loadu_pd(x + 2 * i + 4));
    // hadd yields [s0 s2 s1 s3]; permute restores element order.
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
                        g, k, y + i);
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
    // element order (as lna_square_law_avx2 does).
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

}  // namespace

void scale(const double* x, std::size_t n, double g, double* out) {
#ifdef SAIYAN_SIMD_AVX2
  if (use_avx2()) return scale_avx2(x, n, g, out);
#endif
  scale_scalar(x, n, g, out);
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

// The draw loop behind every gaussian consumer in this file (and
// behind simd::for_each_gaussian_block): n repeated draws of the shared
// scalar ziggurat with the engine copied into locals for the whole fill
// and written back at the end, so the xoshiro state lives in registers
// instead of round-tripping through the Rng. It consumes exactly the
// words n repeated Rng::gaussian() calls consume. There is no AVX2
// variant: with the ziggurat's sign applied as a bit flip instead of a
// branch, this loop draws as fast as the former vectorized accept test
// did (docs/PERFORMANCE.md, "Fused noisy front end").
void fill_gaussian(Rng& rng, double* out, std::size_t n) {
  const detail::ZigguratTables& t = detail::ZigguratTables::instance();
  Xoshiro256pp eng = rng.engine();
  for (std::size_t i = 0; i < n; ++i) out[i] = detail::gaussian_from(t, eng);
  rng.engine() = eng;
}

// The fused draw + inject kernels: the shared block draw, then one
// element-wise pass over the block in the scalar expression's
// association. Neither depends on the dispatch target (no FMA
// contraction in the portable build).

void scale_add_gaussian(const double* x, std::size_t n, double a, double sigma,
                        double* out, Rng& rng) {
  for_each_gaussian_block(
      rng, n, [&](const double* g, std::size_t i0, std::size_t m) {
        for (std::size_t j = 0; j < m; ++j) {
          out[i0 + j] = a * x[i0 + j] + sigma * g[j];
        }
      });
}

void lna_square_law(const Complex* x, const double* gain, std::size_t n,
                    double g, double sigma, double k, double* y, Rng* rng) {
  if (rng == nullptr) {
#ifdef SAIYAN_SIMD_AVX2
    if (use_avx2()) return lna_square_law_avx2(x, gain, n, g, k, y);
#endif
    return lna_square_law_scalar(x, gain, n, g, k, y);
  }
  // Two draws per sample (re, im); kGaussianBlock is even, so every
  // block covers whole samples.
  const double* d = reinterpret_cast<const double*>(x);
  for_each_gaussian_block(
      *rng, 2 * n, [&](const double* gd, std::size_t first, std::size_t m) {
        const std::size_t i0 = first / 2;
        for (std::size_t j = 0; j < m / 2; ++j) {
          const std::size_t i = i0 + j;
          const double re = g * (d[2 * i] + sigma * gd[2 * j]);
          const double im = g * (d[2 * i + 1] + sigma * gd[2 * j + 1]);
          if (gain != nullptr) {
            const double g2 = gain[i] * gain[i];
            y[i] = k * g2 * (re * re + im * im);
          } else {
            y[i] = k * (re * re + im * im);
          }
        }
      });
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
