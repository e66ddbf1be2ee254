// Correlation decoder (paper §3.2).
//
// When the envelope is close to the noise floor the comparator's edge
// decisions fail; correlating the analog envelope samples against a
// local template of each candidate symbol integrates energy over the
// whole symbol and buys the final sensitivity step (1.94–2.25× range
// in Fig. 25). The templates are the reference envelopes produced by
// the noiseless receive chain, computed once per distinct receiver
// configuration and shared through core::receiver_reference().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/receiver_chain.hpp"
#include "core/template_cache.hpp"
#include "dsp/types.hpp"

namespace saiyan::core {

class CorrelatorDecoder {
 public:
  /// Binds the 2^K symbol templates for `chain` (served from the
  /// process-wide template cache; built through the chain on miss).
  explicit CorrelatorDecoder(const ReceiverChain& chain);

  /// Decode one symbol from an envelope window of one symbol length at
  /// the simulation rate (argmax of template correlation).
  std::uint32_t decode_window(std::span<const double> window) const;

  /// Decode `n_symbols` consecutive symbols starting at `start_index`
  /// into a caller-owned vector (zero-allocation path once the
  /// vector's capacity is warm).
  void decode_stream_into(std::span<const double> envelope,
                          std::size_t start_index, std::size_t n_symbols,
                          std::vector<std::uint32_t>& out) const;

  std::size_t samples_per_symbol() const { return sps_; }

 private:
  std::shared_ptr<const ReceiverReference> ref_;  // holds the templates
  std::size_t sps_;
};

}  // namespace saiyan::core
