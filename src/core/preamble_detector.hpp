// Preamble detection (paper §2.2, Fig. 8).
//
// The LoRa preamble is ten identical base up-chirps; after the
// frequency-amplitude transformation each produces an envelope ramp
// peaking at the symbol end, so the comparator emits a periodic
// high-run pattern. The detector matches the received stream against
// the reference pattern (built from the noiseless receive chain) —
// bit-pattern correlation for the comparator path, analog correlation
// for the Super (correlation) mode.
//
// The reference envelope comes from the process-wide template cache;
// the derived matcher state (prepared correlation template, per-rate
// quantized bit patterns) is memoized per instance. Instances are not
// thread-safe — give each worker thread its own detector.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/receiver_chain.hpp"
#include "core/template_cache.hpp"
#include "dsp/correlate.hpp"
#include "dsp/types.hpp"

namespace saiyan::core {

struct PreambleTiming {
  std::size_t payload_start = 0;  ///< index (same rate as the input stream)
  double score = 0.0;             ///< normalized match quality [0,1]
};

class PreambleDetector {
 public:
  /// Binds the reference templates for `chain` (template cache).
  explicit PreambleDetector(const ReceiverChain& chain);

  /// Locate the preamble in a comparator bit stream sampled at
  /// `rate_hz`; returns the index of the first payload sample. The
  /// bipolar stream and the correlation output live in the caller's
  /// scratch buffers.
  std::optional<PreambleTiming> detect_bits_ws(
      std::span<const std::uint8_t> bits, double rate_hz,
      dsp::RealSignal& sig_scratch, dsp::RealSignal& corr_scratch,
      double min_score = 0.55) const;

  /// Locate the preamble in the analog envelope at the simulation
  /// rate (correlation mode); the mean-removed envelope lives in the
  /// caller's scratch buffer.
  std::optional<PreambleTiming> detect_envelope_ws(
      std::span<const double> envelope, dsp::RealSignal& sig_scratch,
      double min_score = 0.35) const;

  /// Reference envelope of preamble+sync at the simulation rate.
  const dsp::RealSignal& envelope_template() const {
    return ref_->preamble_envelope;
  }

  /// The receive chain the templates were built for.
  const ReceiverChain& chain() const { return chain_; }

  /// Incremental-scan primitives (stream::PacketScanner): the
  /// mean-removed reference envelope and its prepared correlator. The
  /// correlator's workspace caches are mutable and not thread-safe —
  /// a scanner must own its detector instance, like any other worker.
  const dsp::RealSignal& envelope_template_zero_mean() const {
    return env_template_zm_;
  }
  const dsp::PreparedTemplate& envelope_correlator() const {
    return env_prepared_;
  }

 private:
  /// Bit-pattern template resampled to one sampler rate: the bipolar
  /// mean-removed reference, its energy, and the prepared correlator.
  struct BitsTemplate {
    dsp::RealSignal ref;  ///< bipolar, mean-removed
    double energy = 0.0;
    std::unique_ptr<dsp::PreparedTemplate> prepared;
  };

  /// Quantized reference pattern for `rate_hz` (memoized); nullptr
  /// when the reference envelope is degenerate.
  const BitsTemplate* bits_template_for(double rate_hz) const;

  const ReceiverChain& chain_;
  std::shared_ptr<const ReceiverReference> ref_;
  dsp::RealSignal env_template_zm_;          // mean-removed reference envelope
  dsp::PreparedTemplate env_prepared_;       // prepared analog correlator
  mutable std::unordered_map<double, BitsTemplate> bits_templates_;
};

}  // namespace saiyan::core
