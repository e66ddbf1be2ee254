// End-to-end Saiyan demodulator: loopback per mode, full sync path,
// sensitivity ordering (vanilla < CFS < super), and frame-level
// round trips over the air.
#include <gtest/gtest.h>

#include "channel/awgn_channel.hpp"
#include "core/batch_demod.hpp"
#include "core/demodulator.hpp"
#include "lora/frame.hpp"
#include "dsp/utils.hpp"
#include "lora/modulator.hpp"

namespace saiyan::core {
namespace {

lora::PhyParams phy(int k = 2, int sf = 7, double bw = 500e3) {
  lora::PhyParams p;
  p.spreading_factor = sf;
  p.bandwidth_hz = bw;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = k;
  return p;
}

std::vector<std::uint32_t> random_payload(dsp::Rng& rng, const lora::PhyParams& p,
                                          std::size_t n) {
  std::vector<std::uint32_t> tx(n);
  for (auto& v : tx) {
    v = static_cast<std::uint32_t>(rng.uniform_int(0, p.symbol_alphabet() - 1));
  }
  return tx;
}

std::size_t count_errors(const std::vector<std::uint32_t>& tx,
                         const std::vector<std::uint32_t>& rx) {
  std::size_t e = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    e += (i >= rx.size() || rx[i] != tx[i]) ? 1 : 0;
  }
  return e;
}

class ModeLoopback : public ::testing::TestWithParam<Mode> {};

TEST_P(ModeLoopback, CleanChannelAlignedDecode) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), GetParam());
  const SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(21);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  const auto tx = random_payload(rng, cfg.phy, 32);
  const dsp::Signal rx = chan.apply(mod.modulate(tx), -50.0, rng);
  const lora::PacketLayout lay = mod.layout(tx.size());
  DemodWorkspace r;
  demod.demodulate_aligned_ws(r, rx, lay.payload_start, tx.size(), rng);
  EXPECT_EQ(count_errors(tx, r.symbols), 0u);
}

TEST_P(ModeLoopback, FullSyncPathDecodes) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), GetParam());
  const SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(22);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  const auto tx = random_payload(rng, cfg.phy, 16);
  const dsp::Signal rx = chan.apply(mod.modulate(tx), -55.0, rng);
  const DemodResult r = demod.demodulate(rx, tx.size(), rng);
  ASSERT_TRUE(r.preamble_found);
  EXPECT_LE(count_errors(tx, r.symbols), 1u);
}

TEST_P(ModeLoopback, DetectsPacketAndRejectsNoise) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), GetParam());
  const SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(23);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  const auto tx = random_payload(rng, cfg.phy, 8);
  const dsp::Signal rx = chan.apply(mod.modulate(tx), -55.0, rng);
  EXPECT_TRUE(demod.detect_packet(rx, rng));
  // Pure noise of the same length: no detection.
  dsp::Signal noise(rx.size(), dsp::Complex{});
  dsp::add_awgn(noise, dsp::dbm_to_watts(-95.0), rng);
  EXPECT_FALSE(demod.detect_packet(noise, rng));
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeLoopback,
                         ::testing::Values(Mode::kVanilla,
                                           Mode::kFrequencyShifting,
                                           Mode::kSuper));

class KSweepLoopback : public ::testing::TestWithParam<int> {};

TEST_P(KSweepLoopback, SuperDecodesAllRates) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(GetParam()), Mode::kSuper);
  const SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(24);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  const auto tx = random_payload(rng, cfg.phy, 24);
  const dsp::Signal rx = chan.apply(mod.modulate(tx), -50.0, rng);
  const lora::PacketLayout lay = mod.layout(tx.size());
  DemodWorkspace r;
  demod.demodulate_aligned_ws(r, rx, lay.payload_start, tx.size(), rng);
  EXPECT_EQ(count_errors(tx, r.symbols), 0u);
}

INSTANTIATE_TEST_SUITE_P(K1to5, KSweepLoopback, ::testing::Values(1, 2, 3, 4, 5));

TEST(SensitivityOrdering, SuperBeatsCfsBeatsVanilla) {
  // The ablation ordering of Fig. 25, measured at symbol level: at an
  // RSS where super is clean, vanilla must be failing, with CFS in
  // between.
  dsp::Rng rng(25);
  auto errors_at = [&](Mode mode, double rss) {
    const SaiyanConfig cfg = SaiyanConfig::make(phy(), mode);
    const SaiyanDemodulator demod(cfg);
    lora::Modulator mod(cfg.phy);
    channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
    std::size_t errs = 0;
    for (int trial = 0; trial < 3; ++trial) {
      const auto tx = random_payload(rng, cfg.phy, 32);
      const dsp::Signal rx = chan.apply(mod.modulate(tx), rss, rng);
      const lora::PacketLayout lay = mod.layout(tx.size());
      DemodWorkspace r;
      demod.demodulate_aligned_ws(r, rx, lay.payload_start, tx.size(), rng);
      errs += count_errors(tx, r.symbols);
    }
    return errs;
  };
  // -72 dBm: vanilla far gone, CFS marginal/OK, super clean.
  EXPECT_GT(errors_at(Mode::kVanilla, -72.0), 10u);
  EXPECT_LE(errors_at(Mode::kFrequencyShifting, -72.0), 6u);
  EXPECT_EQ(errors_at(Mode::kSuper, -72.0), 0u);
  // -80 dBm: only super survives.
  EXPECT_GT(errors_at(Mode::kFrequencyShifting, -80.0), 8u);
  EXPECT_LE(errors_at(Mode::kSuper, -80.0), 3u);
}

TEST(FrameOverTheAir, BytesThroughSaiyanLink) {
  // Full stack: bytes -> FrameCodec -> chirps -> channel -> Saiyan ->
  // FrameCodec -> bytes.
  lora::PhyParams p = phy(2);
  p.fec = lora::FecRate::k4_7;
  const SaiyanConfig cfg = SaiyanConfig::make(p, Mode::kSuper);
  const SaiyanDemodulator demod(cfg);
  const lora::FrameCodec codec(p);
  lora::Modulator mod(p);
  dsp::Rng rng(26);
  channel::AwgnChannel chan(p.sample_rate_hz, 6.0);

  const std::vector<std::uint8_t> payload = {'s', 'a', 'i', 'y', 'a', 'n', '!',
                                             0x00, 0xFF, 0x42};
  const auto symbols = codec.encode(payload);
  const dsp::Signal rx = chan.apply(mod.modulate(symbols), -60.0, rng);
  const DemodResult r = demod.demodulate(rx, symbols.size(), rng);
  ASSERT_TRUE(r.preamble_found);
  const auto decoded = codec.decode(r.symbols);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Config, MakeKeepsRatesConsistent) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(3), Mode::kSuper);
  EXPECT_EQ(cfg.envelope.sample_rate_hz, cfg.phy.sample_rate_hz);
  EXPECT_EQ(cfg.cfs.clock.sample_rate_hz, cfg.phy.sample_rate_hz);
  EXPECT_LT(cfg.cfs.output_lpf_cutoff_hz, cfg.cfs.clock.frequency_hz);
  EXPECT_NEAR(cfg.effective_rf_center_hz(), 433.75e6, 1.0);
}

TEST(Config, ModeNames) {
  EXPECT_STREQ(mode_name(Mode::kVanilla), "vanilla");
  EXPECT_STREQ(mode_name(Mode::kFrequencyShifting), "freq-shifting");
  EXPECT_STREQ(mode_name(Mode::kSuper), "super");
}

TEST(Demodulator, ThresholdHintOverridesAuto) {
  const SaiyanConfig cfg = SaiyanConfig::make(phy(), Mode::kVanilla);
  const SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(27);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  const auto tx = random_payload(rng, cfg.phy, 8);
  const dsp::Signal rx = chan.apply(mod.modulate(tx), -50.0, rng);
  const lora::PacketLayout lay = mod.layout(tx.size());
  const frontend::ThresholdPair hint{1e-7, 5e-8};
  DemodWorkspace r;
  demod.demodulate_aligned_ws(r, rx, lay.payload_start, tx.size(), rng, hint);
  EXPECT_EQ(r.thresholds.u_high, hint.u_high);
  EXPECT_EQ(r.thresholds.u_low, hint.u_low);
}

}  // namespace
}  // namespace saiyan::core
