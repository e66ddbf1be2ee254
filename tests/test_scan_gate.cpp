// The scan stage: the coarse gate in front of the preamble search and
// the scan-stage records.
//
//   * Zero gate misses. Over the stream and SIC test captures and
//     captures shaped like the gateway benchmark workloads, every lag
//     is scored at full rate offline, through the same per-block scan
//     envelopes and the same windows the scanner uses. No lag scoring
//     >= min_score may fall in a block the gate cleared, at min_score
//     0.45, 0.6 and 0.75, and the gate must clear some blocks.
//   * Same spans. The gated scanner emits the ungated scanner's spans
//     bit for bit; only score_prev may read 0.0 after a cleared block.
//   * One scan record per block. With stage metrics attached, the scan
//     histogram counts every scanned block, tail included, at any push
//     size.
//
// Part of the `stream` test binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/batch_demod.hpp"
#include "dsp/rng.hpp"
#include "lora/modulator.hpp"
#include "obs/stage_metrics.hpp"
#include "sim/capture.hpp"
#include "stream/packet_scanner.hpp"
#include "stream/streaming_demod.hpp"

namespace saiyan {
namespace {

constexpr std::size_t kPayload16 = 16;
constexpr std::size_t kPayload32 = 32;

lora::PhyParams phy() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  return p;
}

std::size_t spsym() { return phy().samples_per_symbol(); }

std::size_t frame_samples(std::size_t payload) {
  return lora::Modulator(phy()).layout(payload).total_samples;
}

sim::CaptureConfig base_cfg(std::vector<double> rss, std::size_t payload,
                            std::uint64_t seed) {
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = payload;
  cfg.seed = seed;
  cfg.tag_rss_dbm = std::move(rss);
  return cfg;
}

/// Tags 3 dB apart from -55 dBm, random gaps — the stream test corpus.
sim::CaptureConfig stream_corpus(std::size_t tags, std::size_t per_tag,
                                 std::size_t payload, std::uint64_t seed) {
  std::vector<double> rss;
  for (std::size_t t = 0; t < tags; ++t) {
    rss.push_back(-55.0 - 3.0 * static_cast<double>(t));
  }
  sim::CaptureConfig cfg = base_cfg(std::move(rss), payload, seed);
  cfg.packets_per_tag = per_tag;
  return cfg;
}

/// Frames at explicit offsets — the SIC test corpus.
sim::CaptureConfig placed(std::vector<double> rss,
                          std::vector<std::uint64_t> offsets,
                          std::uint64_t seed) {
  sim::CaptureConfig cfg = base_cfg(std::move(rss), kPayload16, seed);
  cfg.offsets = std::move(offsets);
  return cfg;
}

std::vector<sim::CaptureConfig> corpus() {
  const std::uint64_t s = spsym();
  std::vector<sim::CaptureConfig> out;
  // Stream tests: many tags with short gaps, back-to-back frames, long
  // idle gaps.
  out.push_back(stream_corpus(5, 4, kPayload16, 42));
  out.push_back(stream_corpus(2, 6, 8, 23));
  sim::CaptureConfig zero_gap = stream_corpus(1, 3, 8, 11);
  zero_gap.min_gap_symbols = 0.0;
  zero_gap.max_gap_symbols = 0.0;
  out.push_back(zero_gap);
  sim::CaptureConfig idle = stream_corpus(1, 4, 8, 17);
  idle.min_gap_symbols = 40.0;
  idle.max_gap_symbols = 60.0;
  out.push_back(idle);
  // SIC tests: 6 dB collisions at several symbol offsets, an
  // equal-power collision, a three-way pileup.
  for (const std::uint64_t k : {8u, 10u, 14u, 16u}) {
    out.push_back(placed({-55.0, -61.0}, {500, 500 + k * s}, 20 + k));
  }
  out.push_back(placed({-55.0, -55.0}, {500, 500 + 16 * s}, 91));
  out.push_back(
      placed({-55.0, -61.0, -67.0}, {500, 500 + 14 * s, 500 + 28 * s}, 77));
  // Shaped like the gateway benchmark workloads, three seeds each.
  const std::uint64_t frame = frame_samples(kPayload32);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::CaptureConfig dense =
        base_cfg({-55.0, -57.0, -59.0, -61.0}, kPayload32, 100 + seed);
    dense.packets_per_tag = 3;
    dense.min_gap_symbols = 0.0;
    dense.max_gap_symbols = 2.0;
    out.push_back(dense);

    sim::CaptureConfig sparse =
        base_cfg({-55.0, -57.0, -59.0, -61.0}, kPayload32, 200 + seed);
    sparse.packets_per_tag = 2;
    sparse.min_gap_symbols = 48.0;
    sparse.max_gap_symbols = 96.0;
    out.push_back(sparse);

    // Two tags 6 dB apart: a colliding pair (the weaker frame 8-19
    // symbols into the stronger), then two clean frames.
    sim::CaptureConfig collide =
        base_cfg({-55.0, -61.0}, kPayload32, 300 + seed);
    dsp::Rng rng(collide.seed);
    std::uint64_t cursor = 500;
    for (int pair = 0; pair < 2; ++pair) {
      collide.offsets.push_back(cursor);
      collide.offsets.push_back(cursor + (8 + rng.uniform_int(0, 11)) * s);
      cursor += 2 * frame + 12 * s;
      for (int c = 0; c < 2; ++c) {
        collide.offsets.push_back(cursor);
        cursor += frame + 10 * s;
      }
    }
    out.push_back(collide);
  }
  return out;
}

/// The scanner's inputs for one capture: the scan front end's envelope
/// of every block (8 symbols, the tail shorter), concatenated.
struct ScanInput {
  std::size_t block = 0;
  dsp::RealSignal env;
};

ScanInput scan_input(const sim::Capture& cap, const core::ReceiverChain& chain) {
  ScanInput in;
  in.block = 8 * spsym();
  core::DemodWorkspace ws;
  const std::span<const dsp::Complex> all(cap.samples);
  for (std::size_t at = 0; at < all.size(); at += in.block) {
    chain.reference_envelope_into(
        all.subspan(at, std::min(in.block, all.size() - at)), ws);
    in.env.insert(in.env.end(), ws.env.begin(), ws.env.end());
  }
  return in;
}

/// Full-rate score of every lag, computed block by block over the same
/// windows as the ungated scanner (so the bits match it).
dsp::RealSignal full_rate_scores(const ScanInput& in,
                                 const core::PreambleDetector& det) {
  const dsp::PreparedTemplate& corr = det.envelope_correlator();
  const std::size_t w = corr.size();
  dsp::RealSignal scores;
  dsp::RealSignal c;
  std::size_t next = 0;
  for (std::size_t end = in.block;; end += in.block) {
    end = std::min(end, in.env.size());
    if (end >= w) {
      const std::span<const double> window =
          std::span<const double>(in.env).subspan(next, end - next);
      corr.correlate_signed_into(window, c);
      double sum = 0.0;
      double sum2 = 0.0;
      for (std::size_t i = 0; i < w; ++i) {
        sum += window[i];
        sum2 += window[i] * window[i];
      }
      for (std::size_t j = 0; j < c.size(); ++j) {
        const double var = sum2 - sum * sum / static_cast<double>(w);
        const double floor = sum2 * 1e-9 + 1e-300;
        scores.push_back(c[j] / std::sqrt(std::max(var, floor) * corr.energy()));
        if (j + w < window.size()) {
          sum += window[j + w] - window[j];
          sum2 += window[j + w] * window[j + w] - window[j] * window[j];
        }
      }
      next += c.size();
    }
    if (end == in.env.size()) break;
  }
  return scores;
}

struct GateRun {
  std::size_t blocks = 0;
  std::size_t skipped = 0;
  std::size_t misses = 0;
  std::vector<stream::PacketSpan> spans;
};

GateRun run_scanner(const ScanInput& in, const dsp::RealSignal& scores,
                    const core::PreambleDetector& det, double min_score,
                    std::size_t gate_block) {
  stream::PacketScanner scanner(det, min_score, gate_block);
  GateRun run;
  const std::size_t w = scanner.template_size();
  std::uint64_t lag0 = 0;
  for (std::size_t at = 0; at < in.env.size(); at += in.block) {
    const std::size_t len = std::min(in.block, in.env.size() - at);
    const std::uint64_t before = scanner.blocks_skipped();
    scanner.push_block(std::span<const double>(in.env).subspan(at, len),
                       run.spans);
    ++run.blocks;
    const std::uint64_t lag1 = at + len >= w ? at + len - w + 1 : 0;
    if (scanner.blocks_skipped() != before) {
      ++run.skipped;
      for (std::uint64_t lag = lag0; lag < lag1; ++lag) {
        if (scores[lag] >= min_score) ++run.misses;
      }
    }
    lag0 = lag1;
  }
  scanner.finish(run.spans);
  return run;
}

TEST(ScanGate, NoLagAboveThresholdFallsInAClearedBlock) {
  const core::ReceiverChain chain(
      core::scan_config(core::SaiyanConfig::make(phy(), core::Mode::kSuper)));
  const core::PreambleDetector det(chain);
  const std::size_t block = 8 * spsym();
  ASSERT_EQ(block % stream::PacketScanner::kGateDecimation, 0u);
  ASSERT_EQ(det.envelope_template_zero_mean().size() %
                stream::PacketScanner::kGateDecimation,
            0u)
      << "the gate needs a template of whole decimated samples";

  std::size_t blocks = 0;
  std::size_t skipped[3] = {0, 0, 0};
  std::size_t spans = 0;
  const double thresholds[3] = {0.45, 0.6, 0.75};
  for (const sim::CaptureConfig& cfg : corpus()) {
    const sim::Capture cap = sim::generate_capture(cfg);
    const ScanInput in = scan_input(cap, chain);
    const dsp::RealSignal scores = full_rate_scores(in, det);
    for (std::size_t t = 0; t < 3; ++t) {
      const GateRun gated = run_scanner(in, scores, det, thresholds[t], block);
      const GateRun plain = run_scanner(in, scores, det, thresholds[t], 0);
      SCOPED_TRACE("seed " + std::to_string(cfg.seed) + " min_score " +
                   std::to_string(thresholds[t]));
      EXPECT_EQ(gated.misses, 0u);
      EXPECT_EQ(plain.skipped, 0u) << "no block size, no gate";
      ASSERT_EQ(gated.spans.size(), plain.spans.size());
      for (std::size_t i = 0; i < gated.spans.size(); ++i) {
        const stream::PacketSpan& g = gated.spans[i];
        const stream::PacketSpan& p = plain.spans[i];
        EXPECT_EQ(g.packet_start, p.packet_start);
        EXPECT_EQ(g.payload_start, p.payload_start);
        EXPECT_EQ(g.score, p.score);  // bit-identical
        EXPECT_EQ(g.score_next, p.score_next);
        EXPECT_TRUE(g.score_prev == p.score_prev || g.score_prev == 0.0);
      }
      skipped[t] += gated.skipped;
      if (t == 1) {
        blocks += gated.blocks;
        spans += gated.spans.size();
      }
    }
  }
  EXPECT_GT(spans, 0u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_GT(skipped[t], 0u) << "the gate never engaged at min_score "
                              << thresholds[t];
  }
  // The default threshold clears a sizeable share of this corpus.
  EXPECT_GT(skipped[1] * 4, blocks) << skipped[1] << " of " << blocks;
}

TEST(ScanGate, StreamingDemodulatorClearsBlocks) {
  sim::CaptureConfig cfg = stream_corpus(1, 4, 8, 17);
  cfg.min_gap_symbols = 40.0;
  cfg.max_gap_symbols = 60.0;
  const sim::Capture cap = sim::generate_capture(cfg);
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  stream::StreamingDemodulator demod(sc);
  demod.push(cap.samples);
  demod.finish();
  EXPECT_EQ(demod.packets().size(), cap.markers.size());
  EXPECT_GT(demod.scanner().blocks_skipped(), 0u);
}

TEST(ScanStage, OneScanRecordPerBlockAtAnyPushSize) {
  const sim::CaptureConfig cfg = stream_corpus(2, 3, 8, 19);
  const sim::Capture cap = sim::generate_capture(cfg);
  for (const std::size_t chunk :
       {std::size_t{1000}, std::size_t{2833}, std::size_t{16384},
        cap.samples.size()}) {
    obs::StageMetrics metrics;
    stream::StreamConfig sc;
    sc.saiyan = cfg.saiyan;
    sc.payload_symbols = cfg.payload_symbols;
    sc.stage_metrics = &metrics;
    stream::StreamingDemodulator demod(sc);
    std::span<const dsp::Complex> rest(cap.samples);
    while (!rest.empty()) {
      const std::size_t take = std::min(chunk, rest.size());
      demod.push(rest.first(take));
      rest = rest.subspan(take);
    }
    demod.finish();
    const std::size_t block = demod.block_samples();
    ASSERT_NE(cap.samples.size() % block, 0u) << "the capture needs a tail";
    EXPECT_EQ(metrics.histogram(obs::Stage::kScan).total(),
              (cap.samples.size() + block - 1) / block)
        << "push size " << chunk;
    EXPECT_EQ(metrics.histogram(obs::Stage::kDecode).total(),
              demod.packets().size());
  }
}

}  // namespace
}  // namespace saiyan
