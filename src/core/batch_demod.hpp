// Batch demodulation engine: decode many packets with zero per-packet
// allocation.
//
// The Monte-Carlo sweeps behind every figure decode thousands of
// identically-sized packets per sweep point. The classic
// SaiyanDemodulator API allocates a dozen intermediate waveforms per
// packet (RF scratch, FFT padding, envelope, noise fills, comparator
// bits, symbol vector); at gateway scale that buffer churn is the
// residual per-packet cost once the transforms and templates are
// cached (docs/PERFORMANCE.md). DemodWorkspace owns every
// intermediate buffer of one demodulation worker; BatchDemodulator
// binds a workspace to a demodulator so repeated decodes only touch
// the allocator while the buffers warm up (first packet), then run
// allocation-free. Results are bit-identical to the allocating API.
//
// Workspaces are per-worker (not thread-safe); sim::SweepEngine
// workers each build their own via for_each_with_context.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/demodulator.hpp"
#include "frontend/sampler.hpp"
#include "frontend/workspace.hpp"

namespace saiyan::core {

/// Pre-sized intermediate buffers (and most-recent-decode result
/// fields) of one demodulation worker.
struct DemodWorkspace {
  // Packet synthesis / channel stage (used by the sweep pipelines).
  std::vector<std::uint32_t> tx;   ///< per-packet payload symbols
  dsp::Signal wave;                ///< modulated packet
  dsp::Signal rx;                  ///< after the channel

  // Receive chain (the LNA and its noise ride the fused square-law
  // kernel — no amplified or noise buffers needed).
  dsp::Signal rf_filtered;         ///< SAW output
  dsp::Signal fft_scratch;         ///< radix-3 de-interleave scratch
  dsp::RealSignal env;             ///< analog envelope
  frontend::FrontendScratch fe;    ///< mixer tables + flicker buffers

  // Decode stage.
  dsp::RealSignal threshold_scratch;  ///< auto-threshold percentile copy
  dsp::BitVector bits_fs;             ///< comparator output
  frontend::SampledBits sampled;      ///< sampler output
  dsp::RealSignal sync_a;             ///< preamble-search scratch
  dsp::RealSignal sync_b;             ///< preamble-search scratch
  std::vector<std::uint32_t> symbols; ///< decoded payload

  // Result fields of the most recent decode (symbols above).
  bool preamble_found = false;
  double preamble_score = 0.0;
  double sampler_rate_hz = 0.0;
  frontend::ThresholdPair thresholds;  ///< as DemodResult::thresholds
};

/// A demodulator bound to its workspace: the packets/sec engine behind
/// sim::WaveformPipeline and the figure sweeps.
class BatchDemodulator {
 public:
  explicit BatchDemodulator(const SaiyanConfig& cfg) : demod_(cfg) {}

  /// Timing-aided decode (known payload offset). Returns the decoded
  /// symbols, which live in the workspace until the next decode.
  std::span<const std::uint32_t> decode_aligned(
      std::span<const dsp::Complex> rf, std::size_t payload_start_fs,
      std::size_t n_payload, dsp::Rng& rng,
      std::optional<frontend::ThresholdPair> threshold_hint = std::nullopt) {
    demod_.demodulate_aligned_ws(ws_, rf, payload_start_fs, n_payload, rng,
                                 threshold_hint);
    return ws_.symbols;
  }

  /// Stream-seed variant of the timing-aided decode: construct the
  /// packet's Rng internally from a derived stream seed. The streaming
  /// and SIC decode paths hand frames around as (external sample span,
  /// seed) pairs — a collision group decodes its members in strength
  /// order, not arrival order, so each frame carries its own seed and
  /// every decode reuses this engine's warm workspace regardless of
  /// where the span lives (ring view, stitched scratch, SIC residual).
  std::span<const std::uint32_t> decode_aligned(
      std::span<const dsp::Complex> rf, std::size_t payload_start_fs,
      std::size_t n_payload, std::uint64_t stream_seed,
      std::optional<frontend::ThresholdPair> threshold_hint = std::nullopt) {
    dsp::Rng rng(stream_seed);
    return decode_aligned(rf, payload_start_fs, n_payload, rng, threshold_hint);
  }

  /// Full receive (preamble search + decode).
  std::span<const std::uint32_t> decode(
      std::span<const dsp::Complex> rf, std::size_t n_payload, dsp::Rng& rng,
      std::optional<frontend::ThresholdPair> threshold_hint = std::nullopt) {
    demod_.demodulate_ws(ws_, rf, n_payload, rng, threshold_hint);
    return ws_.symbols;
  }

  DemodWorkspace& workspace() { return ws_; }
  const DemodWorkspace& workspace() const { return ws_; }
  const SaiyanDemodulator& demodulator() const { return demod_; }

 private:
  SaiyanDemodulator demod_;
  DemodWorkspace ws_;
};

}  // namespace saiyan::core
