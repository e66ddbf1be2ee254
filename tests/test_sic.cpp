// Successive interference cancellation (src/sic/): collision-resolving
// streaming decode. The tentpole properties:
//
//   * a two-tag capture whose frames overlap in the payload decodes
//     the weaker frame through decode -> cancel -> rescan at every
//     symbol offset, with a ≥6 dB power delta, where it decodes ~0%
//     without SIC;
//   * three-way pileups resolve one frame per cancellation depth;
//   * the equal-power worst case degrades gracefully (no crashes, no
//     spurious extra packets);
//   * with SIC disabled (depth 0) — and on captures without overlaps
//     even with SIC enabled — streaming decode is bit-identical to the
//     plain path;
//   * the rescan queue stays small after every push, at any push size
//     and depth, because rescans run inline at block boundaries;
//   * a resolved collision allocates nothing once warm.
//
// This file is its own test binary (ctest label `sic`, included in the
// ASan CI matrix) because it replaces the global allocation functions
// with counting versions for the zero-allocation test; the counter is
// disabled under ASan, which owns the allocator there.
#include "sic/collision_resolver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "lora/remodulator.hpp"
#include "sim/capture.hpp"
#include "stream/streaming_demod.hpp"

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

/// Two (or more) tags at explicit offsets — the controlled-collision
/// generator setup.
sim::CaptureConfig collision_cfg(std::vector<double> rss_dbm,
                                 std::vector<std::uint64_t> offsets,
                                 std::uint64_t seed,
                                 std::size_t payload_symbols = 16) {
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = payload_symbols;
  cfg.seed = seed;
  cfg.tag_rss_dbm = std::move(rss_dbm);
  cfg.offsets = std::move(offsets);
  return cfg;
}

std::unique_ptr<stream::StreamingDemodulator> run_stream(
    const sim::Capture& cap, const sim::CaptureConfig& cfg, std::size_t depth,
    std::size_t chunk = 16384) {
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  sc.sic.depth = depth;
  auto demod = std::make_unique<stream::StreamingDemodulator>(sc);
  std::span<const dsp::Complex> rest(cap.samples);
  while (!rest.empty()) {
    const std::size_t take = std::min(chunk, rest.size());
    demod->push(rest.first(take));
    rest = rest.subspan(take);
  }
  demod->finish();
  return demod;
}

sim::ReplayStats score(const stream::StreamingDemodulator& demod,
                       const sim::Capture& cap) {
  return sim::score_replay(demod, cap.markers,
                           phy().samples_per_symbol() / 2);
}

// ------------------------------------------------------- Remodulator

TEST(Remodulator, FitRecoversAmplitudeAndOffset) {
  lora::Remodulator remod(phy(), 8);
  std::vector<std::uint32_t> syms = {0, 3, 1, 2, 3, 0, 2, 1};
  dsp::Signal tx;
  remod.frame_into(syms, tx);
  ASSERT_EQ(tx.size(), remod.frame_samples());

  const dsp::Complex amp(3.5e-4, -1.2e-4);
  const dsp::Complex off(2e-6, 1e-6);
  dsp::Signal rx(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) rx[i] = amp * tx[i] + off;
  const lora::RemodFit fit = lora::Remodulator::fit(rx, tx);
  EXPECT_NEAR(fit.amplitude.real(), amp.real(), 1e-9);
  EXPECT_NEAR(fit.amplitude.imag(), amp.imag(), 1e-9);
  EXPECT_NEAR(fit.offset.real(), off.real(), 1e-9);
  EXPECT_NEAR(fit.offset.imag(), off.imag(), 1e-9);

  lora::Remodulator::subtract(rx, tx, fit);
  double peak = 0.0;
  for (const dsp::Complex& v : rx) peak = std::max(peak, std::abs(v));
  EXPECT_LT(peak, 1e-12);
}

TEST(Remodulator, FrameMatchesModulatorLayout) {
  lora::Remodulator remod(phy(), 16);
  const lora::Modulator mod(phy());
  const lora::PacketLayout lay = mod.layout(16);
  EXPECT_EQ(remod.frame_samples(), lay.total_samples);
  EXPECT_EQ(remod.payload_start(), lay.payload_start);
  EXPECT_THROW(
      {
        dsp::Signal out;
        std::vector<std::uint32_t> wrong(7, 0);
        remod.frame_into(wrong, out);
      },
      std::invalid_argument);
}

// ------------------------------------------- two-tag overlap capture

TEST(SicTwoTag, WeakerFrameRecoversAtEverySymbolOffset) {
  // The acceptance property: with a 6 dB power delta and the weaker
  // frame starting anywhere inside the stronger one, SIC recovers the
  // weaker frame that plain streaming decode loses.
  const std::size_t spsym = phy().samples_per_symbol();
  const lora::Modulator mod(phy());
  const std::size_t frame_syms =
      mod.layout(16).total_samples / spsym;  // 28 full symbols
  std::size_t recovered = 0;
  std::size_t recovered_without_sic = 0;
  std::size_t offsets_tested = 0;
  for (std::size_t sym = 1; sym < frame_syms; ++sym) {
    const sim::CaptureConfig cfg = collision_cfg(
        {-55.0, -61.0}, {500, 500 + sym * spsym}, 100 + sym);
    const sim::Capture cap = sim::generate_capture(cfg);
    ASSERT_EQ(cap.collision_groups, 1u) << "offset " << sym;
    ++offsets_tested;

    const auto off = run_stream(cap, cfg, 0);
    const auto on = run_stream(cap, cfg, 2);
    const sim::ReplayStats s_off = score(*off, cap);
    const sim::ReplayStats s_on = score(*on, cap);
    ASSERT_EQ(s_on.collisions.frames(), 2u) << "offset " << sym;
    recovered_without_sic += s_off.collisions.captured() > 1 ? 1 : 0;
    if (s_on.collisions.captured() == 2) ++recovered;
    EXPECT_EQ(s_on.false_detections, 0u) << "offset " << sym;
  }
  // Weaker frames decode ~never without SIC and ≥80 % with it.
  EXPECT_LE(recovered_without_sic, offsets_tested / 10);
  EXPECT_GE(recovered, (offsets_tested * 8) / 10)
      << "recovered " << recovered << "/" << offsets_tested;
}

TEST(SicTwoTag, ResolvedCollisionIsCountedAndFlagged) {
  const std::size_t spsym = phy().samples_per_symbol();
  const sim::CaptureConfig cfg =
      collision_cfg({-55.0, -61.0}, {500, 500 + 16 * spsym}, 21);
  const sim::Capture cap = sim::generate_capture(cfg);
  const auto demod = run_stream(cap, cfg, 2);
  ASSERT_EQ(demod->packets().size(), 2u);
  EXPECT_EQ(demod->collision_groups(), 1u);
  EXPECT_EQ(demod->collisions_resolved(), 1u);
  EXPECT_GE(demod->frames_cancelled(), 1u);
  // Emission order: the stronger (earlier) frame first, flagged once
  // the rescan finds the buried one.
  EXPECT_TRUE(demod->packets()[0].collided);
  EXPECT_FALSE(demod->packets()[0].sic_assisted);
  EXPECT_TRUE(demod->packets()[1].collided);
  EXPECT_TRUE(demod->packets()[1].sic_assisted);
  const sim::ReplayStats st = score(*demod, cap);
  EXPECT_EQ(st.collisions.groups(), 1u);
  EXPECT_EQ(st.collisions.frames(), 2u);
  EXPECT_EQ(st.collisions.captured(), 2u);
  EXPECT_EQ(st.collisions.resolved(), 1u);
  EXPECT_DOUBLE_EQ(st.collisions.capture_rate(), 1.0);
}

TEST(SicTwoTag, PerTagPhaseRotationIsAbsorbedByComplexFit) {
  // Rotated carriers exercise the complex least-squares amplitude.
  const std::size_t spsym = phy().samples_per_symbol();
  sim::CaptureConfig cfg =
      collision_cfg({-55.0, -61.0}, {500, 500 + 14 * spsym}, 33);
  cfg.tag_phase_rad = {0.7, 2.1};
  const sim::Capture cap = sim::generate_capture(cfg);
  const auto demod = run_stream(cap, cfg, 2);
  const sim::ReplayStats st = score(*demod, cap);
  EXPECT_EQ(st.collisions.captured(), 2u);
  EXPECT_EQ(st.symbol_errors, 0u);
}

TEST(SicTwoTag, ChunkSizeDoesNotChangeAnyBit) {
  const std::size_t spsym = phy().samples_per_symbol();
  const sim::CaptureConfig cfg =
      collision_cfg({-55.0, -61.0}, {500, 500 + 10 * spsym}, 55);
  const sim::Capture cap = sim::generate_capture(cfg);
  const auto ref = run_stream(cap, cfg, 2, cap.samples.size());
  ASSERT_EQ(ref->packets().size(), 2u);
  for (std::size_t chunk : {std::size_t{997}, std::size_t{4096},
                            std::size_t{65536}}) {
    const auto demod = run_stream(cap, cfg, 2, chunk);
    ASSERT_EQ(demod->packets().size(), ref->packets().size())
        << "chunk " << chunk;
    for (std::size_t i = 0; i < ref->packets().size(); ++i) {
      EXPECT_EQ(demod->packets()[i].packet_start,
                ref->packets()[i].packet_start);
      const auto a = ref->symbols(ref->packets()[i]);
      const auto b = demod->symbols(demod->packets()[i]);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                               a.size() * sizeof(std::uint32_t)));
    }
  }
}

// --------------------------------------------------- pileups & worst case

TEST(SicPileup, ThreeWayResolvesOneFramePerDepthLevel) {
  const std::size_t spsym = phy().samples_per_symbol();
  const sim::CaptureConfig cfg = collision_cfg(
      {-55.0, -61.0, -67.0},
      {500, 500 + 14 * spsym, 500 + 28 * spsym}, 77);
  const sim::Capture cap = sim::generate_capture(cfg);
  ASSERT_EQ(cap.collision_groups, 1u);

  const std::size_t matched[4] = {
      score(*run_stream(cap, cfg, 0), cap).matched,
      score(*run_stream(cap, cfg, 1), cap).matched,
      score(*run_stream(cap, cfg, 2), cap).matched,
      score(*run_stream(cap, cfg, 3), cap).matched,
  };
  EXPECT_EQ(matched[0], 1u);  // only the strongest survives the mix
  EXPECT_EQ(matched[1], 2u);  // one cancellation pass -> second frame
  EXPECT_EQ(matched[2], 3u);  // two passes -> full pileup
  EXPECT_EQ(matched[3], 3u);  // extra depth is idle, not harmful
}

TEST(SicWorstCase, EqualPowerDegradesGracefully) {
  // ~0 dB delta is information-theoretically unresolvable for this
  // receiver; SIC must neither crash nor invent packets.
  const std::size_t spsym = phy().samples_per_symbol();
  const sim::CaptureConfig cfg =
      collision_cfg({-55.0, -55.0}, {500, 500 + 16 * spsym}, 91);
  const sim::Capture cap = sim::generate_capture(cfg);
  const auto demod = run_stream(cap, cfg, 2);
  const sim::ReplayStats st = score(*demod, cap);
  EXPECT_LE(demod->packets().size(), 3u);
  EXPECT_EQ(st.false_detections + st.matched, st.decoded);
  EXPECT_LE(st.collisions.captured(), st.collisions.frames());
}

// ------------------------------------------------ bit-identity guarantees

TEST(SicBitIdentity, CleanCaptureDecodesIdenticallyWithSicOnOrOff) {
  // No overlaps: SIC-on must reproduce the plain path bit for bit —
  // cancellation only ever touches a decoded frame's own span, and
  // rescans of clean residuals never confirm.
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.packets_per_tag = 6;
  cfg.seed = 42;
  for (int t = 0; t < 3; ++t) cfg.tag_rss_dbm.push_back(-55.0 - 3.0 * t);
  const sim::Capture cap = sim::generate_capture(cfg);
  ASSERT_EQ(cap.collision_groups, 0u) << "generator produced an overlap";

  const auto off = run_stream(cap, cfg, 0);
  const auto on = run_stream(cap, cfg, 2);
  ASSERT_EQ(off->packets().size(), cap.markers.size());
  ASSERT_EQ(on->packets().size(), off->packets().size());
  EXPECT_EQ(on->collision_groups(), 0u);
  EXPECT_EQ(on->collisions_resolved(), 0u);
  for (std::size_t i = 0; i < off->packets().size(); ++i) {
    const stream::DecodedPacket& a = off->packets()[i];
    const stream::DecodedPacket& b = on->packets()[i];
    EXPECT_EQ(a.packet_start, b.packet_start);
    EXPECT_DOUBLE_EQ(a.score, b.score);
    EXPECT_FALSE(b.collided);
    const auto sa = off->symbols(a);
    const auto sb = on->symbols(b);
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(0, std::memcmp(sa.data(), sb.data(),
                             sa.size() * sizeof(std::uint32_t)))
        << "packet " << i;
  }
}

TEST(SicBitIdentity, DepthZeroIsThePlainPath) {
  // Even on a *colliding* capture, depth 0 must match the pre-SIC
  // decode exactly: same packets, same symbols, nothing resolved.
  const std::size_t spsym = phy().samples_per_symbol();
  const sim::CaptureConfig cfg =
      collision_cfg({-55.0, -61.0}, {500, 500 + 8 * spsym}, 13);
  const sim::Capture cap = sim::generate_capture(cfg);
  const auto demod = run_stream(cap, cfg, 0);
  EXPECT_EQ(demod->collision_groups(), 0u);
  EXPECT_EQ(demod->frames_cancelled(), 0u);
  // The plain path sees only the stronger preamble in the mix.
  ASSERT_EQ(demod->packets().size(), 1u);
  EXPECT_FALSE(demod->packets()[0].collided);
}

// ------------------------------------------------------------ truncation

TEST(SicEdge, CollisionCutByCaptureEndTruncatesWeakFrame) {
  const std::size_t spsym = phy().samples_per_symbol();
  const sim::CaptureConfig cfg =
      collision_cfg({-55.0, -61.0}, {500, 500 + 16 * spsym}, 17);
  const sim::Capture cap = sim::generate_capture(cfg);
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  sc.sic.depth = 2;
  stream::StreamingDemodulator demod(sc);
  // Cut one symbol before the weaker frame completes.
  const std::size_t cut = static_cast<std::size_t>(
      cap.markers[1].sample_offset + demod.frame_samples() - spsym);
  demod.push(std::span<const dsp::Complex>(cap.samples).first(cut));
  demod.finish();
  EXPECT_EQ(demod.packets().size(), 1u);
  EXPECT_EQ(demod.truncated_packets(), 1u);
  EXPECT_EQ(demod.collision_groups(), 1u);  // the rescan did find it
}

// ---------------------------------------------------- rescan queue bound

/// `groups` back-to-back collisions of `rss_dbm.size()` frames each,
/// frame k of a group starting `step_symbols * k` symbols after the
/// group's first.
sim::CaptureConfig collision_train(std::vector<double> rss_dbm,
                                   std::size_t step_symbols,
                                   std::size_t groups, std::uint64_t seed) {
  const std::size_t spsym = phy().samples_per_symbol();
  const std::size_t frame = lora::Modulator(phy()).layout(16).total_samples;
  std::vector<std::uint64_t> offsets;
  std::uint64_t cursor = 500;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t k = 0; k < rss_dbm.size(); ++k) {
      offsets.push_back(cursor + k * step_symbols * spsym);
    }
    cursor += (rss_dbm.size() - 1) * step_symbols * spsym + frame + 12 * spsym;
  }
  return collision_cfg(std::move(rss_dbm), std::move(offsets), seed);
}

TEST(SicRescanQueue, BacklogStaysSmallAfterEveryPush) {
  // Rescans run inline at every block boundary. A region is queued no
  // earlier than its frame's last sample and is ready at most one
  // preamble later (cancel regions) or one frame later (re-queued
  // regions), so the queue only holds regions queued in the last frame
  // plus one block — whatever the push size or load. In these trains
  // a group ends more than a frame before the next begins, so only one
  // group's regions can be queued at once, and each of its frames has
  // at most one region in flight (its own cancel region, or the
  // re-queue of the region that revealed the next frame): at most 3
  // here, and 2 measured. Deferring rescans to finish() would pile up
  // one region per group instead.
  constexpr std::size_t kBound = 3;
  constexpr std::size_t kGroups = 4;
  const sim::CaptureConfig pileups =
      collision_train({-55.0, -61.0, -67.0}, 14, kGroups, 77);
  const sim::CaptureConfig pairs =
      collision_train({-55.0, -61.0}, 10, kGroups, 55);
  for (const sim::CaptureConfig* cfg : {&pileups, &pairs}) {
    const sim::Capture cap = sim::generate_capture(*cfg);
    ASSERT_EQ(cap.collision_groups, kGroups);
    for (const std::size_t depth : {std::size_t{2}, std::size_t{6}}) {
      for (const std::size_t chunk :
           {std::size_t{997}, std::size_t{16384}, cap.samples.size()}) {
        stream::StreamConfig sc;
        sc.saiyan = cfg->saiyan;
        sc.payload_symbols = cfg->payload_symbols;
        sc.sic.depth = depth;
        stream::StreamingDemodulator demod(sc);
        std::size_t worst = 0;
        std::span<const dsp::Complex> rest(cap.samples);
        while (!rest.empty()) {
          const std::size_t take = std::min(chunk, rest.size());
          demod.push(rest.first(take));
          rest = rest.subspan(take);
          worst = std::max(worst, demod.rescan_backlog());
        }
        demod.finish();
        const std::string at =
            "tags " + std::to_string(cfg->tag_rss_dbm.size()) + " depth " +
            std::to_string(depth) + " chunk " + std::to_string(chunk);
        EXPECT_LE(worst, kBound) << at;
        EXPECT_GE(demod.collisions_resolved(),
                  kGroups * (cfg->tag_rss_dbm.size() - 1))
            << at;
        EXPECT_EQ(demod.ingest().rescans_dropped, 0u) << at;
        EXPECT_EQ(demod.ingest().rescans_expired, 0u) << at;
      }
    }
  }
}

// ------------------------------------------------------- zero allocation

#if SAIYAN_ALLOC_COUNTER

TEST(SicAllocation, ResolvingACollisionIsAllocationFreeOnceWarm) {
  // Warm phase: a colliding capture (decode + cancel + rescan +
  // revealed decode, including a ring wrap). Measured phase: replay a
  // longer schedule of fresh collisions through the same instance —
  // every cancellation pass and rescan must run without touching the
  // allocator as long as the caller drains packets.
  const std::size_t spsym = phy().samples_per_symbol();
  const lora::Modulator mod(phy());
  const std::size_t frame = mod.layout(16).total_samples;
  std::vector<std::uint64_t> offsets;
  std::vector<double> rss = {-55.0, -61.0};
  std::uint64_t cursor = 500;
  for (int pair = 0; pair < 8; ++pair) {
    offsets.push_back(cursor);
    offsets.push_back(cursor + 14 * spsym);
    cursor += 2 * frame + 20 * spsym;
  }
  sim::CaptureConfig cfg = collision_cfg(rss, offsets, 119);
  const sim::Capture cap = sim::generate_capture(cfg);
  ASSERT_EQ(cap.collision_groups, 8u);

  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  sc.sic.depth = 2;
  stream::StreamingDemodulator demod(sc);

  const std::span<const dsp::Complex> all(cap.samples);
  const std::size_t warm = cap.samples.size() / 2;
  std::size_t pos = 0;
  while (pos < warm) {
    const std::size_t take = std::min<std::size_t>(8192, warm - pos);
    demod.push(all.subspan(pos, take));
    pos += take;
  }
  ASSERT_GE(demod.collisions_resolved(), 2u)
      << "warm phase must resolve collisions";
  demod.clear_packets();

  g_allocations.store(0);
  g_counting.store(true);
  const std::size_t resolved_before = demod.collisions_resolved();
  while (pos < cap.samples.size()) {
    const std::size_t take =
        std::min<std::size_t>(8192, cap.samples.size() - pos);
    demod.push(all.subspan(pos, take));
    pos += take;
    demod.clear_packets();
  }
  g_counting.store(false);
  EXPECT_GT(demod.collisions_resolved(), resolved_before)
      << "measured phase must resolve collisions";
  EXPECT_EQ(g_allocations.load(), 0u)
      << "SIC resolution allocated in the steady state";
}

#endif  // SAIYAN_ALLOC_COUNTER

}  // namespace
}  // namespace saiyan
