// SaiyanDemodulator — the paper's primary contribution, end to end.
//
// Orchestrates the receive chain (SAW -> LNA -> envelope detection /
// CFS), the double-threshold comparator, the low-power voltage
// sampler, preamble detection and symbol decoding (edge-based or
// correlation, per Mode). Input is the RF complex-baseband waveform
// arriving at the tag antenna; output is the K-bit symbol stream.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/correlator_decoder.hpp"
#include "core/preamble_detector.hpp"
#include "core/receiver_chain.hpp"
#include "core/symbol_decoder.hpp"
#include "core/threshold_table.hpp"
#include "dsp/rng.hpp"

namespace saiyan::core {

struct DemodWorkspace;  // core/batch_demod.hpp

struct DemodResult {
  bool preamble_found = false;
  double preamble_score = 0.0;
  std::vector<std::uint32_t> symbols;
  double sampler_rate_hz = 0.0;
  /// Comparator thresholds the decode used: the hint, else estimated
  /// from the packet. Super mode runs no comparator — it decodes from
  /// the correlator — so it estimates none and reports the hint, or
  /// {} without one.
  frontend::ThresholdPair thresholds;
};

class SaiyanDemodulator {
 public:
  explicit SaiyanDemodulator(const SaiyanConfig& cfg);

  /// Full receive: detect the preamble, then decode `n_payload`
  /// symbols. `threshold_hint` supplies table-mode thresholds; when
  /// absent, auto thresholds are estimated from the packet.
  DemodResult demodulate(std::span<const dsp::Complex> rf, std::size_t n_payload,
                         dsp::Rng& rng,
                         std::optional<frontend::ThresholdPair> threshold_hint =
                             std::nullopt) const;

  /// Packet detection only (the Fig. 21 metric): true when the
  /// preamble correlator fires anywhere in the waveform.
  bool detect_packet(std::span<const dsp::Complex> rf, dsp::Rng& rng) const;

  /// Workspace variant of demodulate (the BatchDemodulator engine):
  /// decode into the workspace's buffers and result fields — zero
  /// allocations once the workspace is warm, bit-identical results to
  /// demodulate().
  void demodulate_ws(DemodWorkspace& ws, std::span<const dsp::Complex> rf,
                     std::size_t n_payload, dsp::Rng& rng,
                     std::optional<frontend::ThresholdPair> threshold_hint =
                         std::nullopt) const;

  /// Timing-aided receive into the workspace: skip preamble search and
  /// decode starting at a known payload offset (sample index at the
  /// simulation rate). Used by symbol-level BER sweeps where
  /// synchronization is not the quantity under test.
  void demodulate_aligned_ws(DemodWorkspace& ws,
                             std::span<const dsp::Complex> rf,
                             std::size_t payload_start_fs,
                             std::size_t n_payload, dsp::Rng& rng,
                             std::optional<frontend::ThresholdPair>
                                 threshold_hint = std::nullopt) const;

  const ReceiverChain& chain() const { return chain_; }
  const SaiyanConfig& config() const { return chain_.config(); }

 private:
  void calibrate_edge_bias();
  void decode_from_envelope_ws(DemodWorkspace& ws,
                               std::optional<std::size_t> payload_start_fs,
                               std::size_t n_payload,
                               std::optional<frontend::ThresholdPair> hint) const;

  ReceiverChain chain_;
  PreambleDetector preamble_;
  SymbolDecoder edge_decoder_;
  CorrelatorDecoder corr_decoder_;
};

}  // namespace saiyan::core
