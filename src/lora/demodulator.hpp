// Reference coherent LoRa demodulator (the commodity-receiver model).
//
// This is the power-hungry receiver the paper contrasts against:
// down-convert, sample at >= BW, dechirp with the conjugate base chirp
// and FFT — argmax bin is the chip value. Nothing in the library calls
// it: the MAC simulations draw the access point's reception from a
// success probability, and the Saiyan pipeline is checked against the
// transmitted symbols. Only the tests run it, as a check of the
// modulator (tests/test_reference_demod.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/types.hpp"
#include "lora/params.hpp"

namespace saiyan::lora {

struct CoherentDemodResult {
  bool preamble_found = false;
  std::size_t payload_start = 0;          ///< sample index of first payload symbol
  std::vector<std::uint32_t> chip_values; ///< raw 2^SF-ary decisions
  std::vector<std::uint32_t> symbols;     ///< K-bit values (rounded to grid)
};

class CoherentDemodulator {
 public:
  explicit CoherentDemodulator(const PhyParams& params);

  /// Demodulate one chip value from a symbol-aligned window of
  /// samples_per_symbol() samples at the simulation rate.
  std::uint32_t demodulate_symbol(std::span<const dsp::Complex> window) const;

  /// Locate the preamble by correlation and decode `n_payload`
  /// symbols following the sync field.
  CoherentDemodResult demodulate_packet(std::span<const dsp::Complex> rx,
                                        std::size_t n_payload) const;

  const PhyParams& params() const { return params_; }

 private:
  PhyParams params_;
  std::size_t decim_factor_;      // fs / BW
  dsp::Signal downchirp_chiprate_; // conjugate template at chip rate
  dsp::Signal preamble_template_;  // full-rate preamble for detection
};

}  // namespace saiyan::lora
