// Property sweeps across the configuration grid: every (mode, K)
// combination must decode cleanly with margin above its own modelled
// sensitivity; jammer injection must degrade gracefully; threshold
// table mode must match auto mode on calibrated links; the model's
// range surface must be monotone in each physical knob.
#include <gtest/gtest.h>

#include "channel/awgn_channel.hpp"
#include "channel/jammer.hpp"
#include "core/batch_demod.hpp"
#include "core/demodulator.hpp"
#include "core/threshold_table.hpp"
#include "lora/modulator.hpp"
#include "sim/ber_model.hpp"
#include "sim/range_finder.hpp"

namespace saiyan {
namespace {

lora::PhyParams phy(int k = 2, int sf = 7, double bw = 500e3) {
  lora::PhyParams p;
  p.spreading_factor = sf;
  p.bandwidth_hz = bw;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = k;
  return p;
}

std::size_t run_errors(const core::SaiyanConfig& cfg, double rss,
                       std::uint64_t seed, std::size_t n_symbols = 24,
                       channel::JammerConfig* jam = nullptr) {
  const core::SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(seed);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  std::vector<std::uint32_t> tx(n_symbols);
  for (auto& v : tx) {
    v = static_cast<std::uint32_t>(rng.uniform_int(0, cfg.phy.symbol_alphabet() - 1));
  }
  dsp::Signal rx = chan.apply(mod.modulate(tx), rss, rng);
  if (jam != nullptr) channel::add_jammer(rx, *jam, rng);
  const lora::PacketLayout lay = mod.layout(tx.size());
  core::DemodWorkspace r;
  demod.demodulate_aligned_ws(r, rx, lay.payload_start, tx.size(), rng);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    errors += (i >= r.symbols.size() || r.symbols[i] != tx[i]) ? 1 : 0;
  }
  return errors;
}

// --- grid: every mode x K decodes cleanly 8 dB above its modelled
// sensitivity, and collapses 12 dB below it ---
class ModeKGrid
    : public ::testing::TestWithParam<std::tuple<core::Mode, int>> {};

TEST_P(ModeKGrid, CleanAboveOwnSensitivity) {
  const auto [mode, k] = GetParam();
  const sim::BerModel model;
  const double sens = model.required_rss_dbm(mode, phy(k));
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(k), mode);
  const std::size_t errors = run_errors(cfg, sens + 8.0, 41u + k);
  EXPECT_LE(errors, 1u) << core::mode_name(mode) << " K=" << k;
}

TEST_P(ModeKGrid, CollapsesWellBelowOwnSensitivity) {
  const auto [mode, k] = GetParam();
  const sim::BerModel model;
  const double sens = model.required_rss_dbm(mode, phy(k));
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(k), mode);
  const std::size_t errors = run_errors(cfg, sens - 12.0, 43u + k);
  EXPECT_GE(errors, 2u) << core::mode_name(mode) << " K=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModeKGrid,
    ::testing::Combine(::testing::Values(core::Mode::kVanilla,
                                         core::Mode::kFrequencyShifting,
                                         core::Mode::kSuper),
                       ::testing::Values(1, 2, 3)));

// --- interference injection ---
TEST(Interference, WeakJammerHarmless) {
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  channel::JammerConfig jam;
  jam.type = channel::JammerType::kWideband;
  jam.power_dbm = -95.0;  // 35 dB under the signal
  jam.sample_rate_hz = 4e6;
  EXPECT_LE(run_errors(cfg, -60.0, 51, 24, &jam), 1u);
}

TEST(Interference, StrongJammerBreaksTheLink) {
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  channel::JammerConfig jam;
  jam.type = channel::JammerType::kWideband;
  jam.power_dbm = -50.0;  // 10 dB over the signal
  jam.sample_rate_hz = 4e6;
  EXPECT_GE(run_errors(cfg, -60.0, 52, 24, &jam), 4u);
}

TEST(Interference, ToneJammerOutOfBandIsFilteredBySaw) {
  // A strong CW jammer 3 MHz off-channel lands in the SAW stopband
  // (>55 dB down) and must not disturb demodulation.
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  channel::JammerConfig jam;
  jam.type = channel::JammerType::kTone;
  jam.power_dbm = -45.0;
  jam.offset_hz = -1.8e6;  // RF ~431.9 MHz, deep in the stopband
  jam.sample_rate_hz = 4e6;
  EXPECT_LE(run_errors(cfg, -60.0, 53, 24, &jam), 1u);
}

// --- threshold table mode (the prototype's §4.1 mapping table) ---
TEST(ThresholdTableMode, MatchesAutoOnCalibratedLink) {
  const core::SaiyanConfig cfg =
      core::SaiyanConfig::make(phy(), core::Mode::kVanilla);
  const core::ReceiverChain chain(cfg);
  const channel::LinkBudget link;
  const core::ThresholdTable table(chain, link, {5.0, 10.0, 20.0, 40.0});
  const core::SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(54);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  const std::vector<std::uint32_t> tx = {3, 1, 0, 2, 2, 0, 1, 3};
  const double d = 20.0;
  const dsp::Signal rx = chan.apply(mod.modulate(tx), link.rss_dbm(d), rng);
  const lora::PacketLayout lay = mod.layout(tx.size());
  core::DemodWorkspace with_table;
  demod.demodulate_aligned_ws(with_table, rx, lay.payload_start, tx.size(),
                              rng, table.lookup(d));
  std::size_t errors = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    errors += with_table.symbols[i] != tx[i];
  }
  EXPECT_EQ(errors, 0u);
}

// --- model surface monotonicity: physics knobs must push the range in
// the physically sensible direction everywhere on the grid ---
TEST(ModelSurface, RangeMonotoneInEveryKnob) {
  const sim::BerModel model;
  const channel::LinkBudget link;
  for (core::Mode mode : {core::Mode::kVanilla, core::Mode::kFrequencyShifting,
                          core::Mode::kSuper}) {
    for (int sf : {7, 9, 12}) {
      for (double bw : {125e3, 250e3, 500e3}) {
        double prev_k_range = 1e9;
        for (int k = 1; k <= 5; ++k) {
          const double r =
              sim::model_range_m(model, mode, phy(k, sf, bw), link);
          EXPECT_LT(r, prev_k_range + 1e-9)
              << "range must fall with K: " << core::mode_name(mode) << " SF"
              << sf << " BW" << bw << " K" << k;
          prev_k_range = r;
        }
      }
      // SF helps (fixed K=2, BW=500k).
      if (sf > 7) {
        EXPECT_GT(sim::model_range_m(model, mode, phy(2, sf), link),
                  sim::model_range_m(model, mode, phy(2, 7), link));
      }
    }
    // BW helps.
    EXPECT_GT(sim::model_range_m(model, mode, phy(2, 7, 500e3), link),
              sim::model_range_m(model, mode, phy(2, 7, 125e3), link));
    // Walls hurt.
    channel::Environment wall;
    wall.concrete_walls = 1;
    EXPECT_LT(sim::model_range_m(model, mode, phy(), link, wall),
              sim::model_range_m(model, mode, phy(), link));
  }
}

TEST(ModelSurface, DataRateIndependentOfModeAndMonotoneInK) {
  for (int k = 1; k < 5; ++k) {
    EXPECT_LT(phy(k).data_rate_bps(), phy(k + 1).data_rate_bps());
  }
}

}  // namespace
}  // namespace saiyan
