// Core decoders: peak-position symbol decoder, preamble detection,
// correlation decoder, threshold table.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn_channel.hpp"
#include "core/correlator_decoder.hpp"
#include "core/preamble_detector.hpp"
#include "core/receiver_chain.hpp"
#include "core/symbol_decoder.hpp"
#include "core/threshold_table.hpp"
#include "frontend/sampler.hpp"
#include "lora/modulator.hpp"

namespace saiyan::core {
namespace {

lora::PhyParams phy(int k = 2) {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = k;
  return p;
}

TEST(SymbolDecoder, DecodesSyntheticEdges) {
  const SymbolDecoder dec(phy(2));
  // 16 ticks per symbol; peak of value v at tick 16*(1-v/4).
  // v=1 -> edge around tick 12.
  dsp::BitVector bits(16, 0);
  bits[11] = bits[12] = 1;
  const auto est = dec.estimate_fraction(bits, 0.0, 16.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 1.0, 0.35);
}

TEST(SymbolDecoder, TakesLastFallingEdge) {
  const SymbolDecoder dec(phy(2));
  // Spill-over run at the start (previous symbol's boundary peak) plus
  // the true edge later: the decoder must use the later one.
  dsp::BitVector bits(16, 0);
  bits[0] = 1;             // spill
  bits[7] = bits[8] = 1;   // true peak, v = 4*(1-9/16) = 1.75 -> 2
  const auto est = dec.estimate_fraction(bits, 0.0, 16.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 2.0, 0.4);
}

TEST(SymbolDecoder, EmptyWindowIsErasure) {
  const SymbolDecoder dec(phy(2));
  dsp::BitVector bits(16, 0);
  EXPECT_FALSE(dec.estimate_fraction(bits, 0.0, 16.0).has_value());
  // decode_stream maps erasures to 0.
  const auto symbols = dec.decode_stream(bits, 0.0, 16.0, 1);
  EXPECT_EQ(symbols, std::vector<std::uint32_t>{0u});
}

TEST(SymbolDecoder, BiasShiftsRounding) {
  SymbolDecoder dec(phy(2));
  dsp::BitVector bits(16, 0);
  bits[9] = 1;  // est = 4*(1-10.5/16)  ~ 1.375
  dec.set_bias(0.5);
  const auto symbols = dec.decode_stream(bits, 0.0, 16.0, 1);
  EXPECT_EQ(symbols[0], 2u);  // 1.375 + 0.5 rounds to 2
  dec.set_bias(-0.5);
  EXPECT_EQ(dec.decode_stream(bits, 0.0, 16.0, 1)[0], 1u);
}

TEST(SymbolDecoder, WrapsModuloAlphabet) {
  SymbolDecoder dec(phy(2));
  dsp::BitVector bits(16, 0);
  bits[15] = 1;  // edge at the window end: est ~ 4*(1-1) = 0.1 -> 0
  const auto symbols = dec.decode_stream(bits, 0.0, 16.0, 1);
  EXPECT_EQ(symbols[0], 0u);
}

TEST(PreambleDetector, FindsHeaderInReferenceEnvelope) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), Mode::kSuper);
  const ReceiverChain chain(cfg);
  const PreambleDetector det(chain);
  lora::Modulator mod(cfg.phy);
  const std::vector<std::uint32_t> tx = {1, 3, 0, 2};
  const dsp::Signal wave = mod.modulate(tx);
  const dsp::RealSignal env = chain.reference_envelope(wave);
  dsp::RealSignal sig;
  const auto timing = det.detect_envelope_ws(env, sig);
  ASSERT_TRUE(timing.has_value());
  const lora::PacketLayout lay = mod.layout(tx.size());
  EXPECT_NEAR(static_cast<double>(timing->payload_start),
              static_cast<double>(lay.payload_start), 64.0);
  EXPECT_GT(timing->score, 0.9);
}

TEST(PreambleDetector, NoDetectionOnNoiseEnvelope) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), Mode::kSuper);
  const ReceiverChain chain(cfg);
  const PreambleDetector det(chain);
  dsp::Rng rng(3);
  dsp::RealSignal noise(60000);
  for (double& v : noise) v = std::abs(rng.gaussian());
  dsp::RealSignal sig;
  EXPECT_FALSE(det.detect_envelope_ws(noise, sig).has_value());
}

TEST(PreambleDetector, BitDomainDetection) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), Mode::kVanilla);
  const ReceiverChain chain(cfg);
  const PreambleDetector det(chain);
  lora::Modulator mod(cfg.phy);
  const std::vector<std::uint32_t> tx = {2, 1};
  const dsp::Signal wave = mod.modulate(tx);
  const dsp::RealSignal env = chain.reference_envelope(wave);
  const auto th = auto_thresholds(env, cfg.threshold_gap_db);
  frontend::DoubleThresholdComparator comp(th.u_high, th.u_low);
  frontend::VoltageSampler sampler(cfg.phy, cfg.sampling_rate_multiplier);
  const auto sampled = sampler.sample(comp.quantize(env), cfg.phy.sample_rate_hz);
  dsp::RealSignal sig, corr;
  const auto timing =
      det.detect_bits_ws(sampled.bits, sampled.sample_rate_hz, sig, corr);
  ASSERT_TRUE(timing.has_value());
  lora::PacketLayout lay = mod.layout(tx.size());
  const double expect_ticks = static_cast<double>(lay.payload_start) /
                              cfg.phy.sample_rate_hz * sampled.sample_rate_hz;
  EXPECT_NEAR(static_cast<double>(timing->payload_start), expect_ticks, 2.5);
}

TEST(PreambleDetector, BitDomainRejectsConstantStreams) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), Mode::kVanilla);
  const ReceiverChain chain(cfg);
  const PreambleDetector det(chain);
  const dsp::BitVector zeros(2048, 0);
  const dsp::BitVector ones(2048, 1);
  dsp::RealSignal sig, corr;
  EXPECT_FALSE(det.detect_bits_ws(zeros, 50e3, sig, corr).has_value());
  EXPECT_FALSE(det.detect_bits_ws(ones, 50e3, sig, corr).has_value());
}

class CorrelatorAllSymbols : public ::testing::TestWithParam<int> {};

TEST_P(CorrelatorAllSymbols, DecodesEveryValueCleanly) {
  const int k = GetParam();
  const SaiyanConfig cfg = SaiyanConfig::make(phy(k), Mode::kSuper);
  const ReceiverChain chain(cfg);
  const CorrelatorDecoder dec(chain);
  lora::Modulator mod(cfg.phy);
  const std::uint32_t m = cfg.phy.symbol_alphabet();
  std::vector<std::uint32_t> tx;
  for (std::uint32_t v = 0; v < m; ++v) tx.push_back(v);
  const dsp::Signal wave = mod.modulate_payload(tx);
  const dsp::RealSignal env = chain.reference_envelope(wave);
  std::vector<std::uint32_t> out;
  dec.decode_stream_into(env, 0, tx.size(), out);
  ASSERT_EQ(out.size(), tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    EXPECT_EQ(out[i], tx[i]) << "value " << tx[i];
  }
}

INSTANTIATE_TEST_SUITE_P(K1to4, CorrelatorAllSymbols, ::testing::Values(1, 2, 3, 4));

TEST(ThresholdTable, CalibratesAcrossDistances) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), Mode::kVanilla);
  const ReceiverChain chain(cfg);
  const channel::LinkBudget link;
  const ThresholdTable table(chain, link, {5.0, 20.0, 60.0});
  ASSERT_EQ(table.entries().size(), 3u);
  // Amax decreases with distance.
  EXPECT_GT(table.entries()[0].a_max, table.entries()[1].a_max);
  EXPECT_GT(table.entries()[1].a_max, table.entries()[2].a_max);
  // Lookup picks the geometrically nearest entry.
  EXPECT_EQ(table.lookup(6.0).u_high, table.entries()[0].thresholds.u_high);
  EXPECT_EQ(table.lookup(100.0).u_high, table.entries()[2].thresholds.u_high);
}

TEST(ThresholdTable, RejectsEmptyOrBadDistances) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), Mode::kVanilla);
  const ReceiverChain chain(cfg);
  const channel::LinkBudget link;
  EXPECT_THROW(ThresholdTable(chain, link, {}), std::invalid_argument);
  EXPECT_THROW(ThresholdTable(chain, link, {-5.0}), std::invalid_argument);
}

TEST(AutoThresholds, OrderedAndWithinEnvelope) {
  dsp::Rng rng(9);
  dsp::RealSignal env(5000);
  for (double& v : env) v = 0.1 + 0.02 * rng.gaussian();
  for (int i = 0; i < 50; ++i) env[100 * i] = 1.0;  // sparse peaks
  const auto t = auto_thresholds(env, 6.0);
  EXPECT_LT(t.u_low, t.u_high);
  EXPECT_GT(t.u_low, 0.0);
  EXPECT_LT(t.u_high, 1.0);
}

}  // namespace
}  // namespace saiyan::core
