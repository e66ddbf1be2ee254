// Cross-correlation and spectral estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "dsp/correlate.hpp"
#include "dsp/nco.hpp"
#include "dsp/noise.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/utils.hpp"

namespace saiyan::dsp {
namespace {

TEST(Correlate, FindsEmbeddedTemplate) {
  Rng rng(1);
  Signal tmpl(64);
  for (Complex& v : tmpl) v = Complex(rng.gaussian(), rng.gaussian());
  Signal x(512, Complex{});
  const std::size_t offset = 200;
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[offset + i] = tmpl[i] * 3.0;
  const CorrelationPeak pk = find_peak(x, std::span<const Complex>(tmpl));
  EXPECT_EQ(pk.lag, offset);
  EXPECT_NEAR(pk.normalized, 1.0, 1e-6);  // perfect scaled match
}

TEST(Correlate, NormalizedDropsWithNoise) {
  Rng rng(2);
  Signal tmpl(64);
  for (Complex& v : tmpl) v = Complex(rng.gaussian(), rng.gaussian());
  Signal x(512);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[100 + i] += tmpl[i];
  const CorrelationPeak pk = find_peak(x, std::span<const Complex>(tmpl));
  EXPECT_LT(pk.normalized, 0.95);
  EXPECT_GT(pk.normalized, 0.3);
}

TEST(Correlate, ValidLagCount) {
  const Signal x(100, Complex(1.0, 0.0));
  const Signal t(30, Complex(1.0, 0.0));
  const RealSignal c = cross_correlate(x, std::span<const Complex>(t));
  EXPECT_EQ(c.size(), 71u);
}

TEST(Correlate, TemplateLongerThanSignalIsEmpty) {
  const Signal x(10, Complex(1.0, 0.0));
  const Signal t(30, Complex(1.0, 0.0));
  EXPECT_TRUE(cross_correlate(x, std::span<const Complex>(t)).empty());
}

TEST(Correlate, EmptyTemplateThrows) {
  const Signal x(10, Complex(1.0, 0.0));
  EXPECT_THROW(cross_correlate(x, std::span<const Complex>{}), std::invalid_argument);
}

TEST(Correlate, SignedDistinguishesPolarity) {
  RealSignal tmpl = {1.0, 1.0, -1.0, -1.0, 1.0, -1.0};
  RealSignal pos(32, 0.0);
  RealSignal neg(32, 0.0);
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    pos[10 + i] = tmpl[i];
    neg[10 + i] = -tmpl[i];
  }
  const PreparedTemplate prepared((std::span<const double>(tmpl)));
  RealSignal cp, cn;
  prepared.correlate_signed_into(pos, cp);
  prepared.correlate_signed_into(neg, cn);
  EXPECT_GT(cp[10], 5.9);
  EXPECT_LT(cn[10], -5.9);
}

TEST(PreparedTemplate, MatchesOneShotComplexCorrelation) {
  Rng rng(12);
  Signal tmpl(64);
  for (Complex& v : tmpl) v = Complex(rng.gaussian(), rng.gaussian());
  const PreparedTemplate prepared((std::span<const Complex>(tmpl)));
  Signal x(400);
  for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  const RealSignal one_shot =
      cross_correlate(std::span<const Complex>(x), std::span<const Complex>(tmpl));
  const RealSignal reused = prepared.correlate(std::span<const Complex>(x));
  ASSERT_EQ(reused.size(), one_shot.size());
  for (std::size_t i = 0; i < reused.size(); ++i) {
    EXPECT_NEAR(reused[i], one_shot[i], 1e-9 * (1.0 + std::abs(one_shot[i])));
  }
}

TEST(PreparedTemplate, FindPeakMatchesFreeFunction) {
  Rng rng(13);
  RealSignal tmpl(48);
  for (double& v : tmpl) v = rng.gaussian();
  RealSignal x(512, 0.0);
  for (double& v : x) v = 0.1 * rng.gaussian();
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[300 + i] += 2.0 * tmpl[i];
  // The one-shot form: a throwaway instance.
  const CorrelationPeak free_pk =
      PreparedTemplate(std::span<const double>(tmpl))
          .find_peak(std::span<const double>(x));
  const PreparedTemplate prepared((std::span<const double>(tmpl)));
  const CorrelationPeak prep_pk = prepared.find_peak(std::span<const double>(x));
  EXPECT_EQ(prep_pk.lag, free_pk.lag);
  EXPECT_EQ(prep_pk.lag, 300u);
  EXPECT_NEAR(prep_pk.value, free_pk.value, 1e-9 * (1.0 + free_pk.value));
  EXPECT_NEAR(prep_pk.normalized, free_pk.normalized, 1e-9);
}

// Input lengths around the transform-length boundaries: exactly one
// lag, both sides of a power of two and of a 3·2^k length, and the
// production windows — the packet scanner's 20735 (24576-point
// transform) and the SIC rescan's 57600 (65536-point).
constexpr std::size_t kEdgeTmplLen = 37;
const std::size_t kEdgeLengths[] = {kEdgeTmplLen, 255, 256, 257, 768, 769,
                                    20735, 57600};

// Valid-lag correlation by direct time-domain sums:
// sum_j x[i + j] · conj(t[j]).
template <typename T>
std::vector<T> direct_correlation(const std::vector<T>& x, const std::vector<T>& t) {
  std::vector<T> out(x.size() - t.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    T acc{};
    for (std::size_t j = 0; j < t.size(); ++j) {
      if constexpr (std::is_same_v<T, Complex>) {
        acc += x[i + j] * std::conj(t[j]);
      } else {
        acc += x[i + j] * t[j];
      }
    }
    out[i] = acc;
  }
  return out;
}

// |got - want| <= 1e-9 of the largest |want|, lag by lag: signed for a
// real correlation, magnitudes for a complex one.
template <typename T>
void expect_close(const RealSignal& got, const std::vector<T>& want, std::size_t n) {
  ASSERT_EQ(got.size(), want.size()) << "n=" << n;
  double scale = 0.0;
  for (const T& v : want) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < got.size(); ++i) {
    double w;
    if constexpr (std::is_same_v<T, Complex>) {
      w = std::abs(want[i]);
    } else {
      w = want[i];
    }
    ASSERT_NEAR(got[i], w, 1e-9 * scale) << "n=" << n << " lag " << i;
  }
}

template <typename T>
std::size_t direct_peak_lag(const std::vector<T>& direct) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < direct.size(); ++i) {
    if (std::abs(direct[i]) > std::abs(direct[best])) best = i;
  }
  return best;
}

TEST(Correlate, RealMatchesDirectSumAtTransformEdges) {
  Rng rng(21);
  RealSignal tmpl(kEdgeTmplLen);
  for (double& v : tmpl) v = rng.gaussian();
  const PreparedTemplate prepared((std::span<const double>(tmpl)));
  for (std::size_t n : kEdgeLengths) {
    RealSignal x(n);
    for (double& v : x) v = rng.gaussian();
    const std::span<const double> xs(x);
    const std::span<const double> ts(tmpl);
    const RealSignal direct = direct_correlation(x, tmpl);
    RealSignal corr;
    prepared.correlate_signed_into(xs, corr);
    expect_close(corr, direct, n);

    const std::size_t lag = direct_peak_lag(direct);
    for (const CorrelationPeak& pk :
         {PreparedTemplate(ts).find_peak(xs), prepared.find_peak(xs)}) {
      EXPECT_EQ(pk.lag, lag) << "n=" << n;
      EXPECT_NEAR(pk.value, std::abs(direct[lag]), 1e-9 * std::abs(direct[lag]));
    }
  }
}

TEST(Correlate, ComplexMatchesDirectSumAtTransformEdges) {
  Rng rng(22);
  Signal tmpl(kEdgeTmplLen);
  for (Complex& v : tmpl) v = Complex(rng.gaussian(), rng.gaussian());
  const PreparedTemplate prepared((std::span<const Complex>(tmpl)));
  for (std::size_t n : kEdgeLengths) {
    Signal x(n);
    for (Complex& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    const std::span<const Complex> xs(x);
    const std::span<const Complex> ts(tmpl);
    const Signal direct = direct_correlation(x, tmpl);
    expect_close(cross_correlate(xs, ts), direct, n);
    expect_close(prepared.correlate(xs), direct, n);

    const std::size_t lag = direct_peak_lag(direct);
    for (const CorrelationPeak& pk : {find_peak(xs, ts), prepared.find_peak(xs)}) {
      EXPECT_EQ(pk.lag, lag) << "n=" << n;
      EXPECT_NEAR(pk.value, std::abs(direct[lag]), 1e-9 * std::abs(direct[lag]));
    }
  }
}

TEST(PreparedTemplate, AlternatingLengthsMatchFreshInstances) {
  // The template spectrum is cached per transform length; switching
  // lengths back and forth (and repeating one) must never serve a
  // stale spectrum.
  Rng rng(23);
  RealSignal tmpl(kEdgeTmplLen);
  for (double& v : tmpl) v = rng.gaussian();
  Signal ctmpl(kEdgeTmplLen);
  for (Complex& v : ctmpl) v = Complex(rng.gaussian(), rng.gaussian());
  const PreparedTemplate shared((std::span<const double>(tmpl)));
  const PreparedTemplate cshared((std::span<const Complex>(ctmpl)));
  for (std::size_t n : {300u, 1000u, 300u, 1000u, 2000u, 300u, 1000u, 1000u,
                        20735u, 57600u, 20735u, 300u}) {
    RealSignal x(n);
    for (double& v : x) v = rng.gaussian();
    const PreparedTemplate fresh((std::span<const double>(tmpl)));
    RealSignal shared_out, fresh_out;
    shared.correlate_signed_into(std::span<const double>(x), shared_out);
    fresh.correlate_signed_into(std::span<const double>(x), fresh_out);
    EXPECT_EQ(shared_out, fresh_out) << "n=" << n;

    Signal cx(n);
    for (Complex& v : cx) v = Complex(rng.gaussian(), rng.gaussian());
    const PreparedTemplate cfresh((std::span<const Complex>(ctmpl)));
    EXPECT_EQ(cshared.correlate(std::span<const Complex>(cx)),
              cfresh.correlate(std::span<const Complex>(cx)))
        << "n=" << n;
  }
}

TEST(PreparedTemplate, InputKindMustMatchTemplateKind) {
  const RealSignal rtmpl(8, 1.0);
  const Signal ctmpl(8, Complex(1.0, 0.0));
  const PreparedTemplate real_prepared((std::span<const double>(rtmpl)));
  const PreparedTemplate complex_prepared((std::span<const Complex>(ctmpl)));
  const RealSignal x(32, 1.0);
  const Signal cx(32, Complex(1.0, 0.0));
  RealSignal out;
  EXPECT_THROW(real_prepared.correlate(std::span<const Complex>(cx)),
               std::invalid_argument);
  EXPECT_THROW(complex_prepared.correlate_signed_into(std::span<const double>(x), out),
               std::invalid_argument);
}

TEST(PreparedTemplate, ShortSignalAndEmptyTemplate) {
  RealSignal tmpl(30, 1.0);
  const PreparedTemplate prepared((std::span<const double>(tmpl)));
  RealSignal x(10, 1.0);
  RealSignal out(4, 1.0);
  prepared.correlate_signed_into(std::span<const double>(x), out);
  EXPECT_TRUE(out.empty());
  EXPECT_THROW(PreparedTemplate{std::span<const double>{}}, std::invalid_argument);
}

TEST(Spectrum, TonePeakAtCorrectFrequency) {
  const double fs = 4e6;
  const double f0 = 500e3;
  Nco nco(f0, fs);
  const RealSignal x = nco.cosine(1 << 16);
  EXPECT_NEAR(dominant_frequency(std::span<const double>(x), fs, 1e3), f0,
              fs / 1024.0);
}

TEST(Spectrum, ComplexPsdResolvesNegativeFrequency) {
  const double fs = 1e6;
  Nco nco(-200e3, fs);
  const Signal x = nco.tone(1 << 15);
  const Psd psd = welch_psd(std::span<const Complex>(x), fs, 1024);
  double best_f = 0.0;
  double best_p = -1e300;
  for (std::size_t i = 0; i < psd.frequency_hz.size(); ++i) {
    if (psd.power_dbm[i] > best_p) {
      best_p = psd.power_dbm[i];
      best_f = psd.frequency_hz[i];
    }
  }
  EXPECT_NEAR(best_f, -200e3, fs / 512.0);
}

TEST(Spectrum, PsdTotalPowerMatchesSignalPower) {
  Rng rng(3);
  const Signal x = complex_awgn(1 << 16, 1e-6, rng);
  const Psd psd = welch_psd(std::span<const Complex>(x), 1e6, 1024);
  double total = 0.0;
  for (double p : psd.power_dbm) total += dbm_to_watts(p);
  EXPECT_NEAR(total / 1e-6, 1.0, 0.15);
}

TEST(Spectrum, SnrEstimateTracksTrueSnr) {
  Rng rng(4);
  const double fs = 1e6;
  Nco nco(100e3, fs);
  RealSignal x = nco.cosine(1 << 16);
  // Signal power 0.5; white noise 40 dB down spread over the full
  // fs/2 = 500 kHz band. The estimator reports SNR against the noise
  // *inside the 20 kHz signal band*: 40 + 10 log10(500/20) = 54 dB.
  const RealSignal n = real_white_noise(x.size(), 0.5e-4, rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += n[i];
  const double snr = estimate_snr_db(std::span<const double>(x), fs, 90e3, 110e3);
  EXPECT_NEAR(snr, 54.0, 4.0);
}

TEST(Spectrum, SnrRejectsBadBand) {
  const RealSignal x(1024, 1.0);
  EXPECT_THROW(estimate_snr_db(std::span<const double>(x), 1e6, 200e3, 100e3),
               std::invalid_argument);
}

}  // namespace
}  // namespace saiyan::dsp
