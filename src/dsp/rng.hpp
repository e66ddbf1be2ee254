// Deterministic random number generation.
//
// Every stochastic block (noise sources, MAC slot selection, packet
// payloads) takes an explicit Rng so that experiments are reproducible
// run-to-run; nothing in the library touches global random state.
//
// The engine is xoshiro256++ (Blackman & Vigna) seeded through
// splitmix64, and gaussian draws use a 128-layer ziggurat instead of
// std::normal_distribution — the normal draw is the single hottest
// operation in the waveform simulation (every RF and detector noise
// sample). Engine + ziggurat cut it from ~18 ns to ~4 ns per draw
// (3.9 ns for gaussian(), 3.7–4.4 ns in simd::fill_gaussian's block
// draw, on a 4-vCPU Xeon VM; docs/PERFORMANCE.md). Sequences are
// deterministic per seed, as before.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

namespace saiyan::dsp {

/// xoshiro256++ engine with the standard URBG interface (usable with
/// std::uniform_int_distribution, std::shuffle, ...).
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  explicit Xoshiro256pp(std::uint64_t seed) {
    // splitmix64 state expansion — any seed (including 0) produces a
    // well-mixed nonzero state.
    std::uint64_t x = seed;
    for (std::uint64_t& si : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      si = z ^ (z >> 31);
    }
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

namespace detail {

/// Ziggurat tables for the standard normal (unnormalized density
/// f(x) = exp(-x²/2), 128 layers). Built once, shared by all Rng
/// instances (immutable after construction; magic statics make the
/// initialization thread-safe).
struct ZigguratTables {
  static constexpr int kLayers = 128;
  static constexpr double kR = 3.442619855899;          // base-layer edge
  static constexpr double kV = 9.91256303526217e-3;     // area per layer
  double x[kLayers + 1];
  double y[kLayers + 1];
  double w[kLayers];           ///< x[i] * 2^-53: u53·w[i] = candidate draw
  std::uint64_t k[kLayers];    ///< accept u53 < k[i] ⟺ candidate < x[i+1]

  ZigguratTables() {
    const double f_r = std::exp(-0.5 * kR * kR);
    x[0] = kV / f_r;  // pseudo-width of the base layer (rect + tail)
    x[1] = kR;
    y[0] = 0.0;
    y[1] = f_r;
    for (int i = 2; i <= kLayers; ++i) {
      y[i] = y[i - 1] + kV / x[i - 1];
      x[i] = (i == kLayers) ? 0.0 : std::sqrt(-2.0 * std::log(y[i]));
    }
    for (int i = 0; i < kLayers; ++i) {
      w[i] = x[i] * 0x1.0p-53;
      k[i] = static_cast<std::uint64_t>(x[i + 1] / x[i] * 0x1.0p53);
    }
  }

  static const ZigguratTables& instance() {
    static const ZigguratTables tables;
    return tables;
  }
};

/// Uniform in (0, 1] — safe under log() — from an arbitrary 64-bit
/// word source.
template <typename Next>
inline double uniform_open_from(Next&& next) {
  return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
}

/// The scalar ziggurat over an arbitrary 64-bit word source — the
/// single implementation. Rng::gaussian() draws through it with the
/// engine directly and simd::fill_gaussian with a register-held copy
/// of the engine, so both consume identical word streams and produce
/// identical values by construction.
template <typename Next>
inline double gaussian_from(const ZigguratTables& t, Next&& next) {
  for (;;) {
    const std::uint64_t u = next();
    const int i = static_cast<int>(u & 127u);
    // Word bit 7 is the sign, moved to the double's sign bit.
    const std::uint64_t sign = (u & 128u) << 56;
    const bool neg = sign != 0;
    const std::uint64_t u53 = u >> 11;  // top 53 bits: uniform mantissa
    // u53 < 2^53, so converting through int64 is exact and identical
    // to the unsigned conversion — but compiles to a single cvtsi2sd
    // instead of the unsigned-range fixup sequence (~2 ns/draw).
    const double x =
        static_cast<double>(static_cast<std::int64_t>(u53)) * t.w[i];
    if (u53 < t.k[i]) {  // fully inside the layer (integer compare)
      // x >= 0, so flipping its sign bit is exactly -x. An xor instead
      // of `neg ? -x : x`: the sign is a coin flip, and as a branch it
      // mispredicted on every other draw (it cost more than half of the
      // draw).
      return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ sign);
    }
    if (i == 0) {
      // Base layer miss: sample the tail x > r (Marsaglia).
      double xt, yt;
      do {
        xt = -std::log(uniform_open_from(next)) / ZigguratTables::kR;
        yt = -std::log(uniform_open_from(next));
      } while (yt + yt < xt * xt);
      const double v = ZigguratTables::kR + xt;
      return neg ? -v : v;
    }
    // Wedge: accept against the true density.
    const double yy = t.y[i] + uniform_open_from(next) * (t.y[i + 1] - t.y[i]);
    if (yy < std::exp(-0.5 * x * x)) return neg ? -x : x;
  }
}

}  // namespace detail

/// Independent RNG stream seed for (seed, index): the splitmix64
/// finalizer over the golden-ratio sequence — statistically
/// independent streams for adjacent indices, stable across platforms.
/// This is the single substream derivation of the codebase:
/// sim::SweepEngine::derive_seed delegates here, and
/// stream::StreamingDemodulator derives its per-packet decode streams
/// from it, which is what makes a streamed trace replay bit-identical
/// to batch decode of the individually framed packets.
inline std::uint64_t derive_stream_seed(std::uint64_t seed,
                                        std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Thin wrapper over xoshiro256++ with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5a17a2ULL) : engine_(seed) {}

  /// Standard normal draw (mean 0, variance 1) via the ziggurat
  /// (detail::gaussian_from is the single reference implementation).
  double gaussian() { return detail::gaussian_from(*zig_, engine_); }

  /// Uniform draw in [0, 1).
  double uniform() { return uniform_(engine_); }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool chance(double p) { return uniform() < p; }

  Xoshiro256pp& engine() { return engine_; }

 private:
  Xoshiro256pp engine_;
  const detail::ZigguratTables* zig_ = &detail::ZigguratTables::instance();
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

}  // namespace saiyan::dsp
