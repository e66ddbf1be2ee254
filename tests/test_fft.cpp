// FFT correctness: round trips, Parseval, tone localization, Bluestein
// arbitrary lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace saiyan::dsp {
namespace {

TEST(FftBasics, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(FftBasics, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1000));
}

TEST(FftBasics, RejectsEmpty) {
  Signal x;
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
  EXPECT_THROW(ifft_inplace(x), std::invalid_argument);
}

TEST(FftBasics, BinFrequencyMapping) {
  EXPECT_NEAR(bin_frequency(0, 8, 800.0), 0.0, 1e-12);
  EXPECT_NEAR(bin_frequency(1, 8, 800.0), 100.0, 1e-12);
  EXPECT_NEAR(bin_frequency(7, 8, 800.0), -100.0, 1e-12);
  EXPECT_NEAR(bin_frequency(4, 8, 800.0), -400.0, 1e-12);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftOfFftIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(n);
  Signal x(n);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  Signal y = x;
  fft_inplace(y);
  ifft_inplace(y);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-8) << "index " << i;
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n + 17);
  Signal x(n);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  double time_energy = 0.0;
  for (const Complex& v : x) time_energy += std::norm(v);
  Signal X = x;
  fft_inplace(X);
  double freq_energy = 0.0;
  for (const Complex& v : X) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-6 * std::max(1.0, time_energy));
}

// Mix of power-of-two and Bluestein (odd / prime / composite) sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 8, 64, 1024, 3, 5, 12, 100, 351,
                                           997));

TEST(FftTone, LocalizesComplexExponential) {
  const std::size_t n = 256;
  const std::size_t k0 = 19;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = kTwoPi * static_cast<double>(k0 * i) / static_cast<double>(n);
    x[i] = Complex(std::cos(ph), std::sin(ph));
  }
  Signal X = x;
  fft_inplace(X);
  std::size_t best = 0;
  double best_mag = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (std::abs(X[k]) > best_mag) {
      best_mag = std::abs(X[k]);
      best = k;
    }
  }
  EXPECT_EQ(best, k0);
  EXPECT_NEAR(best_mag, static_cast<double>(n), 1e-6);
}

TEST(FftLinearity, FftOfSumIsSumOfFfts) {
  Rng rng(5);
  Signal a(128), b(128), s(128);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = Complex(rng.gaussian(), rng.gaussian());
    b[i] = Complex(rng.gaussian(), rng.gaussian());
    s[i] = a[i] + b[i];
  }
  Signal fa = a;
  fft_inplace(fa);
  Signal fb = b;
  fft_inplace(fb);
  Signal fs = s;
  fft_inplace(fs);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(std::abs(fs[i] - (fa[i] + fb[i])), 0.0, 1e-8);
  }
}

// Brute-force DFT bin for regression checks.
Complex naive_dft_bin(const Signal& x, std::size_t k) {
  Complex acc{};
  const double w = -kTwoPi * static_cast<double>(k) / static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ph = w * static_cast<double>(i);
    acc += x[i] * Complex(std::cos(ph), std::sin(ph));
  }
  return acc;
}

TEST(FftBasics, NextPow2OverflowGuard) {
  const std::size_t top = std::numeric_limits<std::size_t>::max() / 2 + 1;
  EXPECT_EQ(next_pow2(top), top);  // 2^63 itself is representable
  EXPECT_THROW(next_pow2(top + 1), std::overflow_error);
  EXPECT_THROW(next_pow2(std::numeric_limits<std::size_t>::max()),
               std::overflow_error);
}

// The seed implementation generated stage twiddles with the recurrence
// w *= wlen, which accumulates rounding error over long stages; the
// plan's precomputed tables must track a brute-force DFT tightly even
// at n = 65536 (sampled bins — the full O(n^2) check is done at 1536).
TEST(FftPrecision, MatchesNaiveDftAt1536) {
  const std::size_t n = 1536;  // 3·2^9: exercises the radix-3 split path
  Rng rng(42);
  Signal x(n);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  Signal X = x;
  fft_inplace(X);
  double rms = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    rms += std::norm(X[k] - naive_dft_bin(x, k));
  }
  rms = std::sqrt(rms / static_cast<double>(n));
  EXPECT_LT(rms, 1e-8 * std::sqrt(static_cast<double>(n)));
}

TEST(FftPrecision, MatchesNaiveDftAt65536SampledBins) {
  const std::size_t n = 65536;
  Rng rng(43);
  Signal x(n);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  Signal X = x;
  fft_inplace(X);
  // A spread of bins including DC, Nyquist and awkward odd indices.
  const std::size_t bins[] = {0, 1, 2, 3, 777, 4097, 21211, 32768, 50001, 65535};
  for (std::size_t k : bins) {
    const Complex want = naive_dft_bin(x, k);
    EXPECT_NEAR(std::abs(X[k] - want), 0.0, 2e-7) << "bin " << k;
  }
}

TEST(FftPlanCache, SharedPlanMatchesFreshPlan) {
  // The cached plan must produce exactly what an uncached (freshly
  // constructed) plan produces, and repeated lookups must return the
  // same shared instance.
  for (std::size_t n : {64u, 100u, 1024u}) {
    Rng rng(n);
    Signal x(n);
    for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    Signal via_cache = x;
    fft_plan(n)->forward(via_cache);
    Signal via_fresh = x;
    const FftPlan fresh(n);
    fresh.forward(via_fresh);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(via_cache[i], via_fresh[i]) << "n=" << n << " bin " << i;
    }
    EXPECT_EQ(fft_plan(n).get(), fft_plan(n).get());
  }
}

// The full N-bin spectrum of a real signal: forward_real_half, then
// bins N/2+1..N-1 as the conjugate mirror of bins 1..(N-1)/2.
Signal forward_real_full(const FftPlan& plan, std::span<const double> x,
                         Signal& scratch) {
  Signal out;
  plan.forward_real_half(x, out, scratch);
  const std::size_t n = plan.size();
  out.resize(n);
  for (std::size_t k = n / 2 + 1; k < n; ++k) out[k] = std::conj(out[n - k]);
  return out;
}

TEST(FftRealInput, PackedRealTransformMatchesComplex) {
  for (std::size_t n : {4u, 64u, 1024u}) {
    Rng rng(n + 5);
    RealSignal x(n - 3);  // shorter than the plan: zero-padded
    for (double& v : x) v = rng.gaussian();
    Signal scratch;
    const Signal via_real =
        forward_real_full(*fft_plan(n), std::span<const double>(x), scratch);
    Signal via_complex(n, Complex{});
    for (std::size_t i = 0; i < x.size(); ++i) via_complex[i] = Complex(x[i], 0.0);
    fft_plan(n)->forward(via_complex);
    ASSERT_EQ(via_real.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(via_real[k] - via_complex[k]), 0.0, 1e-10)
          << "n=" << n << " bin " << k;
    }
  }
}

TEST(FftBasics, NextFastLen) {
  EXPECT_EQ(next_fast_len(0), 1u);
  EXPECT_EQ(next_fast_len(1), 1u);
  EXPECT_EQ(next_fast_len(2), 2u);
  EXPECT_EQ(next_fast_len(3), 3u);    // 3·2^0, planned directly
  EXPECT_EQ(next_fast_len(4), 4u);
  EXPECT_EQ(next_fast_len(5), 6u);    // 3·2^1 beats 8
  EXPECT_EQ(next_fast_len(1025), 1536u);
  EXPECT_EQ(next_fast_len(1537), 2048u);
  // The packet-waveform case from the ROADMAP: ~45k samples pad to
  // 49152 = 3·2^14 instead of 65536.
  EXPECT_EQ(next_fast_len(45000), 49152u);
  EXPECT_EQ(next_fast_len(49152), 49152u);
  EXPECT_EQ(next_fast_len(49153), 65536u);
}

// Full O(n²) check of the radix-3 split at small sizes, including the
// degenerate m = 1 sub-transform (n = 3).
TEST(FftRadix3, MatchesNaiveDftAtSmallSizes) {
  for (std::size_t n : {3u, 6u, 12u, 48u, 96u}) {
    Rng rng(n + 17);
    Signal x(n);
    for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    Signal X = x;
    fft_inplace(X);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(X[k] - naive_dft_bin(x, k)), 0.0, 1e-9)
          << "n=" << n << " bin " << k;
    }
  }
}

TEST(FftRadix3, RoundTripAtPacketLength) {
  // The SAW filter's packet transform length (49152 = 3·2^14).
  const std::size_t n = 49152;
  Rng rng(3);
  Signal x(n);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  Signal y = x;
  Signal scratch;
  const auto plan = fft_plan(n);
  plan->forward(y, scratch);
  plan->inverse(y, scratch);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_err = std::max(max_err, std::abs(y[i] - x[i]));
  }
  EXPECT_LT(max_err, 1e-9);
}

TEST(FftRadix3, ExternalAndInternalScratchAgree) {
  const std::size_t n = 1536;
  Rng rng(8);
  Signal x(n);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  Signal a = x;
  fft_plan(n)->forward(a);  // internal scratch
  Signal b = x;
  Signal scratch;
  fft_plan(n)->forward(b, scratch);  // caller-owned scratch
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a[i], b[i]) << "bin " << i;
  }
}

TEST(FftRadix3, SimdDeinterleaveBitIdenticalToScalarAtAllTailLengths) {
  // m odd/even exercises both tails of the two-at-a-time AVX2 loop;
  // tiny m exercises the all-tail case.
  for (std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 31u, 33u, 64u}) {
    Rng rng(m + 5);
    Signal x(3 * m);
    for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    Signal scalar(3 * m), avx2(3 * m);
    detail::radix3_deinterleave_scalar(x.data(), scalar.data(), m);
    if (!detail::radix3_deinterleave_avx2(x.data(), avx2.data(), m)) {
      GTEST_SKIP() << "no AVX2+FMA host";
    }
    for (std::size_t i = 0; i < 3 * m; ++i) {
      EXPECT_EQ(scalar[i].real(), avx2[i].real()) << "m=" << m << " i=" << i;
      EXPECT_EQ(scalar[i].imag(), avx2[i].imag()) << "m=" << m << " i=" << i;
    }
  }
}

TEST(FftRadix3, SimdCombineBitIdenticalToScalarAtAllTailLengths) {
  // The AVX2 combine deliberately avoids FMA contraction so its
  // spectra are bit-identical to the portable build — the streaming
  // and batch decode equivalences depend on this.
  for (std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 31u, 33u, 64u}) {
    Rng rng(m + 11);
    Signal sub(3 * m);
    for (Complex& v : sub) v = Complex(rng.gaussian(), rng.gaussian());
    std::vector<Complex> tw(2 * m);
    const std::size_t n = 3 * m;
    for (std::size_t k = 0; k < m; ++k) {
      const double a1 = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      const double a2 =
          -kTwoPi * static_cast<double>(2 * k % n) / static_cast<double>(n);
      tw[2 * k] = Complex(std::cos(a1), std::sin(a1));
      tw[2 * k + 1] = Complex(std::cos(a2), std::sin(a2));
    }
    for (bool inverse : {false, true}) {
      Signal scalar(3 * m), avx2(3 * m);
      detail::radix3_combine_scalar(scalar.data(), sub.data(), tw.data(), m,
                                    inverse);
      if (!detail::radix3_combine_avx2(avx2.data(), sub.data(), tw.data(), m,
                                       inverse)) {
        GTEST_SKIP() << "no AVX2+FMA host";
      }
      for (std::size_t i = 0; i < 3 * m; ++i) {
        EXPECT_EQ(scalar[i].real(), avx2[i].real())
            << "m=" << m << " inv=" << inverse << " i=" << i;
        EXPECT_EQ(scalar[i].imag(), avx2[i].imag())
            << "m=" << m << " inv=" << inverse << " i=" << i;
      }
    }
  }
}

// Real-path lengths: tiny even lengths (n/2 of 1, 2, 3), 2^k, and 3·2^k
// (whose n/2-point transform is itself a radix-3 split), up to the
// scanner's 24576 and the SIC rescan's 65536.
const std::size_t kRealLengths[] = {2, 4, 6, 12, 64, 96, 384, 1536, 2048,
                                    24576, 65536};

// Signal lengths per plan length: odd, exactly n, and shorter than n/2.
std::vector<std::size_t> real_input_lengths(std::size_t n) {
  std::vector<std::size_t> lens = {n, n - 1};
  if (n >= 8) lens.push_back(n / 2 - 3);
  return lens;
}

RealSignal gaussian_real(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  RealSignal x(len);
  for (double& v : x) v = rng.gaussian();
  return x;
}

TEST(FftRealInput, ForwardRealMatchesComplexTransformAtHalfPathLengths) {
  for (std::size_t n : kRealLengths) {
    for (std::size_t len : real_input_lengths(n)) {
      const RealSignal x = gaussian_real(len, n + len);
      Signal want(n, Complex{});
      for (std::size_t i = 0; i < len; ++i) want[i] = Complex(x[i], 0.0);
      fft_plan(n)->forward(want);
      double scale = 0.0;
      for (const Complex& v : want) scale = std::max(scale, std::abs(v));

      Signal half, scratch;
      const Signal full = forward_real_full(*fft_plan(n), x, scratch);
      fft_plan(n)->forward_real_half(x, half, scratch);
      ASSERT_EQ(full.size(), n);
      ASSERT_EQ(half.size(), n / 2 + 1);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_LE(std::abs(full[k] - want[k]), 1e-12 * scale)
            << "n=" << n << " len=" << len << " bin " << k;
      }
      for (std::size_t k = 0; k < half.size(); ++k) {
        ASSERT_EQ(half[k], full[k]) << "n=" << n << " len=" << len << " bin " << k;
      }
    }
  }
}

TEST(FftRealInput, InverseRealOfForwardRealReturnsTheSignal) {
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{2},
                        std::size_t{4}, std::size_t{6}, std::size_t{12},
                        std::size_t{64}, std::size_t{96}, std::size_t{384},
                        std::size_t{1536}, std::size_t{2048},
                        std::size_t{24576}, std::size_t{65536}}) {
    for (std::size_t len : real_input_lengths(n)) {
      const RealSignal x = gaussian_real(len, 3 * n + len);
      double scale = 0.0;
      for (double v : x) scale = std::max(scale, std::abs(v));
      Signal spec, scratch;
      RealSignal back;
      fft_plan(n)->forward_real_half(x, spec, scratch);
      fft_plan(n)->inverse_real_raw(spec, back, scratch);
      const double norm = 1.0 / static_cast<double>(n);
      for (double& v : back) v *= norm;
      ASSERT_EQ(back.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = i < len ? x[i] : 0.0;
        ASSERT_LE(std::abs(back[i] - want), 1e-12 * std::max(scale, 1.0))
            << "n=" << n << " len=" << len << " sample " << i;
      }
    }
  }
}

TEST(FftRealInput, ConcurrentFirstUseBuildsTheRealPathOnce) {
  // The half-length state is built lazily inside an otherwise immutable,
  // shared plan: workers that race on a plan's first real transform
  // must all see the finished state.
  const std::size_t n = 1536;
  const RealSignal x = gaussian_real(n, 77);
  Signal want, scratch;
  FftPlan(n).forward_real_half(x, want, scratch);
  for (int round = 0; round < 20; ++round) {
    const FftPlan plan(n);
    std::vector<Signal> got(4);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < got.size(); ++t) {
      pool.emplace_back([&, t] {
        Signal own_scratch;
        plan.forward_real_half(x, got[t], own_scratch);
      });
    }
    for (std::thread& th : pool) th.join();
    for (const Signal& g : got) ASSERT_EQ(g, want) << "round " << round;
  }
}

// Untangle twiddles of the n = 2h transform: exp(-2πik/n), k <= h/2.
std::vector<Complex> real_twiddles(std::size_t h) {
  std::vector<Complex> tw(h / 2 + 1);
  for (std::size_t k = 0; k < tw.size(); ++k) {
    const double a = -kTwoPi * static_cast<double>(k) / static_cast<double>(2 * h);
    tw[k] = Complex(std::cos(a), std::sin(a));
  }
  return tw;
}

using RealPass = void (*)(Complex*, const Complex*, std::size_t);
using RealPassAvx2 = bool (*)(Complex*, const Complex*, std::size_t);

// Runs one real-path pass both ways over random bins z[0..h] at h odd
// and even, tiny (all-tail) and past the two-pair AVX2 stride.
void expect_real_pass_bit_identical(RealPass scalar_pass, RealPassAvx2 avx2_pass) {
  for (std::size_t h : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 16u,
                        31u, 33u, 64u, 96u}) {
    Rng rng(h + 29);
    Signal z(h + 1);
    for (Complex& v : z) v = Complex(rng.gaussian(), rng.gaussian());
    const std::vector<Complex> tw = real_twiddles(h);
    Signal scalar = z, avx2 = z;
    scalar_pass(scalar.data(), tw.data(), h);
    if (!avx2_pass(avx2.data(), tw.data(), h)) GTEST_SKIP() << "no AVX2+FMA host";
    for (std::size_t k = 0; k <= h; ++k) {
      EXPECT_EQ(scalar[k].real(), avx2[k].real()) << "h=" << h << " k=" << k;
      EXPECT_EQ(scalar[k].imag(), avx2[k].imag()) << "h=" << h << " k=" << k;
    }
  }
}

TEST(FftRealInput, SimdUntangleBitIdenticalToScalarAtAllTailLengths) {
  expect_real_pass_bit_identical(detail::real_untangle_scalar,
                                 detail::real_untangle_avx2);
}

TEST(FftRealInput, SimdPretangleBitIdenticalToScalarAtAllTailLengths) {
  expect_real_pass_bit_identical(detail::real_pretangle_scalar,
                                 detail::real_pretangle_avx2);
}

TEST(FftPow2, SimdFirstPassBitIdenticalToScalarAtEveryPowerOfTwo) {
  // The twiddle-free first pass runs in every natural-layout transform,
  // the SAW's inverse included: its AVX2 variant must match the
  // scalar one bit for bit in both directions, for odd (radix-2) and
  // even (4-point) stage counts alike.
  for (std::size_t n = 2; n <= (std::size_t{1} << 17); n *= 2) {
    Rng rng(n + 3);
    Signal x(n);
    for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    for (bool inverse : {false, true}) {
      Signal scalar = x, avx2 = x;
      detail::pow2_first_pass_scalar(scalar.data(), n, inverse);
      if (!detail::pow2_first_pass_avx2(avx2.data(), n, inverse)) {
        GTEST_SKIP() << "no AVX2+FMA host";
      }
      ASSERT_EQ(0, std::memcmp(scalar.data(), avx2.data(), n * sizeof(Complex)))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

// Every power of two from 2 to 2^17 and every 3·2^k up to 98 304: the
// scan block (8192), the decode SAW (49 152) and the rescan (65 536)
// lie among them.
std::vector<std::size_t> scrambled_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 2; n <= (std::size_t{1} << 17); n *= 2) lengths.push_back(n);
  for (std::size_t n = 3; n <= 98304; n *= 2) lengths.push_back(n);
  return lengths;
}

bool same_bits(const Complex& a, const Complex& b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

Signal gaussian_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Signal x(n);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  return x;
}

using ForcedTransform = bool (*)(const FftPlan&, Signal&, Signal&, bool, bool);

bool run_scalar(const FftPlan& plan, Signal& x, Signal& scratch, bool inverse,
                bool scrambled) {
  detail::transform_scalar(plan, x, scratch, inverse, scrambled);
  return true;
}

// Position p of the scrambled forward must hold, bit for bit, bin
// scrambled_bin(p) of the natural forward run on the same ISA.
void expect_forward_is_the_permuted_forward(ForcedTransform run) {
  for (std::size_t n : scrambled_lengths()) {
    const auto plan = fft_plan(n);
    const Signal x = gaussian_complex(n, n + 3);
    Signal natural = x, scrambled = x, scratch;
    if (!run(*plan, natural, scratch, false, false)) GTEST_SKIP() << "no AVX2+FMA host";
    run(*plan, scrambled, scratch, false, true);
    std::size_t mismatched = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (!same_bits(scrambled[p], natural[plan->scrambled_bin(p)])) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u) << "n=" << n;
  }
}

// The scrambled inverse of the permuted spectrum must equal, bit for
// bit, the natural unnormalized inverse run on the same ISA.
void expect_inverse_skips_only_the_permutation(ForcedTransform run) {
  for (std::size_t n : scrambled_lengths()) {
    const auto plan = fft_plan(n);
    const Signal spec = gaussian_complex(n, n + 5);
    Signal natural = spec, scrambled(n), scratch;
    for (std::size_t p = 0; p < n; ++p) scrambled[p] = spec[plan->scrambled_bin(p)];
    if (!run(*plan, natural, scratch, true, false)) GTEST_SKIP() << "no AVX2+FMA host";
    run(*plan, scrambled, scratch, true, true);
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!same_bits(scrambled[i], natural[i])) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u) << "n=" << n;
  }
}

TEST(FftScrambled, ForwardIsThePermutedForward) {
  expect_forward_is_the_permuted_forward(run_scalar);
  expect_forward_is_the_permuted_forward(detail::transform_avx2);
}

TEST(FftScrambled, InverseSkipsOnlyThePermutation) {
  expect_inverse_skips_only_the_permutation(run_scalar);
  expect_inverse_skips_only_the_permutation(detail::transform_avx2);
}

TEST(FftScrambled, PublicRoundTripMatchesTheNaturalOne) {
  // The CPUID-dispatched entry points, including a Bluestein length
  // (natural order) and n = 1.
  for (std::size_t n : {1u, 2u, 3u, 30u, 1000u, 1536u, 8192u, 49152u}) {
    const auto plan = fft_plan(n);
    const Signal x = gaussian_complex(n, n + 7);
    Signal natural = x, scrambled = x, scratch;
    plan->forward(natural, scratch);
    plan->forward_scrambled(scrambled, scratch);
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_TRUE(same_bits(scrambled[p], natural[plan->scrambled_bin(p)]))
          << "n=" << n << " p=" << p;
    }
    plan->inverse_raw(natural, scratch);
    plan->inverse_raw_scrambled(scrambled, scratch);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(scrambled[i], natural[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftScrambled, ConcurrentFirstUseBuildsTheRadix3TablesOnce) {
  // The 3·2^k tables are built lazily inside an otherwise immutable,
  // shared plan: workers that race on a plan's first scrambled
  // transform must all see the finished tables.
  const std::size_t n = 1536;
  const Signal x = gaussian_complex(n, 91);
  Signal want = x, scratch;
  {
    const FftPlan plan(n);
    plan.forward_scrambled(want, scratch);
    plan.inverse_raw_scrambled(want, scratch);
  }
  for (int round = 0; round < 20; ++round) {
    const FftPlan plan(n);
    std::vector<Signal> got(4, x);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < got.size(); ++t) {
      pool.emplace_back([&, t] {
        Signal own_scratch;
        plan.forward_scrambled(got[t], own_scratch);
        plan.inverse_raw_scrambled(got[t], own_scratch);
      });
    }
    for (std::thread& th : pool) th.join();
    for (const Signal& g : got) ASSERT_EQ(g, want) << "round " << round;
  }
}

TEST(FftPlanCache, ConcurrentLookupsReturnOneInstance) {
  // The shared-lock read path must serve concurrent workers one
  // consistent plan per length (the SweepEngine steady state).
  const std::size_t lengths[] = {256, 384, 512, 768, 1000};
  std::vector<std::thread> pool;
  std::vector<const FftPlan*> seen(4 * std::size(lengths), nullptr);
  for (unsigned t = 0; t < 4; ++t) {
    pool.emplace_back([t, &lengths, &seen]() {
      for (int rep = 0; rep < 200; ++rep) {
        for (std::size_t i = 0; i < std::size(lengths); ++i) {
          const auto plan = fft_plan(lengths[i]);
          seen[t * std::size(lengths) + i] = plan.get();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    for (unsigned t = 1; t < 4; ++t) {
      EXPECT_EQ(seen[i], seen[t * std::size(lengths) + i]);
    }
  }
}

TEST(FftBluestein, MatchesRadix2OnPaddableSignal) {
  // Compare a 30-point Bluestein DFT against a brute-force DFT.
  Rng rng(9);
  Signal x(30);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  Signal X = x;
  fft_inplace(X);
  for (std::size_t k = 0; k < x.size(); ++k) {
    Complex acc{};
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double ph = -kTwoPi * static_cast<double>(k * i) / 30.0;
      acc += x[i] * Complex(std::cos(ph), std::sin(ph));
    }
    EXPECT_NEAR(std::abs(X[k] - acc), 0.0, 1e-7) << "bin " << k;
  }
}

}  // namespace
}  // namespace saiyan::dsp
