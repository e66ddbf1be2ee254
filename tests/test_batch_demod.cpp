// BatchDemodulator / DemodWorkspace: equivalence with the allocating
// demodulator API, zero per-packet allocation in the steady state, and
// end-to-end dispatch invariance of the waveform pipeline.
//
// This file (together with test_simd_kernels.cpp) is built into its
// own test binary because it replaces the global allocation functions
// with counting versions to prove the zero-allocation property; the
// counter is disabled under ASan, which owns the allocator there.
#include "core/batch_demod.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "channel/awgn_channel.hpp"
#include "dsp/simd.hpp"
#include "lora/modulator.hpp"
#include "sim/pipeline.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SAIYAN_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAIYAN_ALLOC_COUNTER 0
#endif
#endif
#ifndef SAIYAN_ALLOC_COUNTER
#define SAIYAN_ALLOC_COUNTER 1
#endif

#if SAIYAN_ALLOC_COUNTER

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // SAIYAN_ALLOC_COUNTER

namespace saiyan {
namespace {

lora::PhyParams phy() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  return p;
}

dsp::Signal make_rx(const core::SaiyanConfig& cfg,
                    const std::vector<std::uint32_t>& tx, double rss_dbm,
                    std::uint64_t seed, lora::PacketLayout* layout) {
  lora::Modulator mod(cfg.phy);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  dsp::Rng rng(seed);
  if (layout != nullptr) *layout = mod.layout(tx.size());
  return chan.apply(mod.modulate(tx), rss_dbm, rng);
}

class BatchDemodModes : public ::testing::TestWithParam<core::Mode> {};

TEST_P(BatchDemodModes, AlignedDecodeMatchesLegacyApi) {
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), GetParam());
  const std::vector<std::uint32_t> tx = {0, 3, 1, 2, 2, 0, 3, 1,
                                         1, 2, 0, 3, 3, 1, 2, 0};
  lora::PacketLayout lay;
  const dsp::Signal rx = make_rx(cfg, tx, -60.0, 99, &lay);

  const core::SaiyanDemodulator legacy(cfg);
  core::BatchDemodulator batch(cfg);
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    dsp::Rng rng_a(seed), rng_b(seed);
    // A fresh workspace per packet against the batch engine's shared,
    // warm one.
    core::DemodWorkspace want;
    legacy.demodulate_aligned_ws(want, rx, lay.payload_start, tx.size(), rng_a);
    const auto got =
        batch.decode_aligned(rx, lay.payload_start, tx.size(), rng_b);
    const core::DemodWorkspace& ws = batch.workspace();
    EXPECT_EQ(want.preamble_found, ws.preamble_found);
    EXPECT_DOUBLE_EQ(want.preamble_score, ws.preamble_score);
    EXPECT_DOUBLE_EQ(want.sampler_rate_hz, ws.sampler_rate_hz);
    EXPECT_DOUBLE_EQ(want.thresholds.u_high, ws.thresholds.u_high);
    EXPECT_DOUBLE_EQ(want.thresholds.u_low, ws.thresholds.u_low);
    ASSERT_EQ(want.symbols.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(want.symbols[i], got[i]) << "symbol " << i;
    }
  }
}

TEST_P(BatchDemodModes, FullSyncDecodeMatchesLegacyApi) {
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), GetParam());
  const std::vector<std::uint32_t> tx = {2, 1, 3, 0, 1, 2, 3, 0};
  const dsp::Signal rx = make_rx(cfg, tx, -55.0, 7, nullptr);

  const core::SaiyanDemodulator legacy(cfg);
  core::BatchDemodulator batch(cfg);
  dsp::Rng rng_a(5), rng_b(5);
  const core::DemodResult want = legacy.demodulate(rx, tx.size(), rng_a);
  const auto got = batch.decode(rx, tx.size(), rng_b);
  const core::DemodWorkspace& ws = batch.workspace();
  EXPECT_EQ(want.preamble_found, ws.preamble_found);
  EXPECT_DOUBLE_EQ(want.preamble_score, ws.preamble_score);
  ASSERT_EQ(want.symbols.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(want.symbols[i], got[i]) << "symbol " << i;
  }
}

TEST_P(BatchDemodModes, SharedWorkspaceMatchesFreshAcrossNoisyAndReference) {
  // Seeded decode envelopes and noiseless reference envelopes run the
  // same front end, so they share one workspace's CFS clock tables and
  // flicker buffers. Alternating them across two packet lengths must
  // leave nothing behind that a fresh workspace would not reproduce.
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), GetParam());
  const core::ReceiverChain chain(cfg);
  const dsp::Signal rx_short = make_rx(cfg, {1, 3, 0, 2}, -60.0, 41, nullptr);
  const dsp::Signal rx_long = make_rx(
      cfg, {2, 0, 3, 1, 1, 2, 0, 3, 3, 1, 2, 0}, -60.0, 43, nullptr);
  core::DemodWorkspace shared;
  std::uint64_t seed = 100;
  for (int round = 0; round < 2; ++round) {
    for (const dsp::Signal* rx : {&rx_short, &rx_long}) {
      for (bool noisy : {true, false}) {
        core::DemodWorkspace fresh;
        if (noisy) {
          dsp::Rng rng_shared(seed), rng_fresh(seed);
          ++seed;
          chain.envelope_into(*rx, rng_shared, shared);
          chain.envelope_into(*rx, rng_fresh, fresh);
        } else {
          chain.reference_envelope_into(*rx, shared);
          chain.reference_envelope_into(*rx, fresh);
        }
        ASSERT_EQ(fresh.env.size(), shared.env.size());
        ASSERT_EQ(0, std::memcmp(fresh.env.data(), shared.env.data(),
                                 fresh.env.size() * sizeof(double)))
            << "round=" << round << " n=" << rx->size()
            << " noisy=" << noisy;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, BatchDemodModes,
                         ::testing::Values(core::Mode::kVanilla,
                                           core::Mode::kFrequencyShifting,
                                           core::Mode::kSuper),
                         [](const auto& info) {
                           return std::string(core::mode_name(info.param)) ==
                                          "freq-shifting"
                                      ? "freq_shifting"
                                      : core::mode_name(info.param);
                         });

#if SAIYAN_ALLOC_COUNTER

TEST(BatchDemodAllocation, AlignedDecodeIsAllocationFreeOnceWarm) {
  // The tentpole property: after the first packet sizes every buffer,
  // repeated aligned decodes (the Monte-Carlo hot loop) perform zero
  // heap allocations — modulate, channel and demodulation included.
  const core::SaiyanConfig cfg =
      core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  core::BatchDemodulator batch(cfg);
  lora::Modulator mod(cfg.phy);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  core::DemodWorkspace& ws = batch.workspace();
  const lora::PacketLayout lay = mod.layout(16);
  dsp::Rng rng(17);

  auto run_packet = [&]() {
    ws.tx.resize(16);
    for (std::uint32_t& v : ws.tx) {
      v = static_cast<std::uint32_t>(
          rng.uniform_int(0, cfg.phy.symbol_alphabet() - 1));
    }
    mod.modulate_into(ws.tx, ws.wave);
    chan.apply_into(ws.wave, -58.0, rng, ws.rx);
    batch.decode_aligned(ws.rx, lay.payload_start, ws.tx.size(), rng);
  };

  run_packet();  // warm every buffer, cache, plan and template
  run_packet();

  g_allocations.store(0);
  g_counting.store(true);
  for (int p = 0; p < 5; ++p) run_packet();
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "aligned batch decode allocated in the steady state";
}

TEST(BatchDemodAllocation, WorkspaceCapacitiesStableAcrossDecodes) {
  // Capacity-based cross-check (also meaningful under sanitizers):
  // repeated decodes must never regrow any workspace buffer.
  const core::SaiyanConfig cfg =
      core::SaiyanConfig::make(phy(), core::Mode::kFrequencyShifting);
  core::BatchDemodulator batch(cfg);
  lora::Modulator mod(cfg.phy);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  core::DemodWorkspace& ws = batch.workspace();
  const lora::PacketLayout lay = mod.layout(12);
  dsp::Rng rng(23);
  ws.tx.assign(12, 1);

  mod.modulate_into(ws.tx, ws.wave);
  chan.apply_into(ws.wave, -58.0, rng, ws.rx);
  batch.decode_aligned(ws.rx, lay.payload_start, ws.tx.size(), rng);

  const std::size_t caps[] = {
      ws.wave.capacity(),     ws.rx.capacity(),
      ws.rf_filtered.capacity(),
      ws.fft_scratch.capacity(), ws.env.capacity(),
      ws.bits_fs.capacity(),  ws.sampled.bits.capacity(),
      ws.symbols.capacity()};
  for (int p = 0; p < 3; ++p) {
    mod.modulate_into(ws.tx, ws.wave);
    chan.apply_into(ws.wave, -58.0, rng, ws.rx);
    batch.decode_aligned(ws.rx, lay.payload_start, ws.tx.size(), rng);
  }
  const std::size_t after[] = {
      ws.wave.capacity(),     ws.rx.capacity(),
      ws.rf_filtered.capacity(),
      ws.fft_scratch.capacity(), ws.env.capacity(),
      ws.bits_fs.capacity(),  ws.sampled.bits.capacity(),
      ws.symbols.capacity()};
  for (std::size_t i = 0; i < std::size(caps); ++i) {
    EXPECT_EQ(caps[i], after[i]) << "buffer " << i << " regrew";
  }
}

#endif  // SAIYAN_ALLOC_COUNTER

TEST(BatchDemodDispatch, PipelineResultsIdenticalAcrossIsa) {
  // The whole point of bit-identical kernels: a BER sweep must produce
  // the same counts under scalar and AVX2 dispatch.
  if (!dsp::simd::cpu_has_avx2_fma()) GTEST_SKIP() << "no AVX2+FMA host";
  sim::PipelineConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.seed = 77;
  cfg.payload_symbols = 8;
  cfg.threads = 1;

  dsp::simd::set_isa(dsp::simd::Isa::kScalar);
  sim::WaveformPipeline scalar_pipe(cfg);
  const sim::PipelineResult a = scalar_pipe.run_rss(-78.0, 6);

  dsp::simd::set_isa(dsp::simd::Isa::kAvx2);
  sim::WaveformPipeline avx2_pipe(cfg);
  const sim::PipelineResult b = avx2_pipe.run_rss(-78.0, 6);
  dsp::simd::set_isa(dsp::simd::Isa::kAuto);

  EXPECT_EQ(a.errors.bit_errors(), b.errors.bit_errors());
  EXPECT_EQ(a.errors.bits(), b.errors.bits());
  EXPECT_EQ(a.errors.symbol_errors(), b.errors.symbol_errors());
  EXPECT_EQ(a.detections.received(), b.detections.received());
}

}  // namespace
}  // namespace saiyan
