// LoRa PHY parameters.
//
// Terminology: the paper's evaluation sweeps a quantity it calls
// "coding rate CR = 1..5", which in the Saiyan design is the number of
// bits K encoded per chirp (the tag distinguishes 2^K peak positions;
// data rate = K · BW / 2^SF, §2.3). We expose it as
// `bits_per_symbol`. The orthodox LoRa Hamming FEC rate 4/(4+cr) is a
// separate knob (`fec`) implemented in hamming.hpp and used by the
// byte-level frame codec.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace saiyan::lora {

/// LoRa FEC coding rates (Hamming 4/x family).
enum class FecRate : std::uint8_t {
  kNone = 0,  ///< raw nibbles, no parity
  k4_5 = 1,   ///< single parity bit (detect 1 error)
  k4_6 = 2,   ///< two parity bits
  k4_7 = 3,   ///< Hamming(7,4): correct 1 error
  k4_8 = 4,   ///< Hamming(8,4): correct 1, detect 2
};

/// Static PHY configuration for one link.
struct PhyParams {
  int spreading_factor = 7;       ///< SF, 7..12
  double bandwidth_hz = 500e3;    ///< 125/250/500 kHz
  double sample_rate_hz = 4e6;    ///< simulation sample rate
  int bits_per_symbol = 2;        ///< K, 1..5 — the paper's "coding rate"
  int preamble_symbols = 10;      ///< identical up-chirps (paper §2.2)
  double sync_symbols = 2.25;     ///< SFD down-chirps the tag waits out
  FecRate fec = FecRate::kNone;   ///< byte-level FEC for frame codec

  /// Throws std::invalid_argument when outside the supported envelope.
  void validate() const;

  bool operator==(const PhyParams&) const = default;

  /// Number of chips (frequency bins) per symbol: 2^SF.
  std::uint32_t chips() const { return 1u << spreading_factor; }

  /// Symbol duration 2^SF / BW, seconds.
  double symbol_duration_s() const {
    return static_cast<double>(chips()) / bandwidth_hz;
  }

  /// Simulation samples per symbol (must divide evenly; validate()
  /// enforces this).
  std::size_t samples_per_symbol() const {
    return static_cast<std::size_t>(symbol_duration_s() * sample_rate_hz + 0.5);
  }

  /// Number of distinguishable symbol values for Saiyan: M = 2^K.
  std::uint32_t symbol_alphabet() const {
    return 1u << bits_per_symbol;
  }

  /// Raw PHY data rate for Saiyan-style demodulation: K · BW / 2^SF
  /// (bits/s), paper §2.3.
  double data_rate_bps() const {
    return bits_per_symbol * bandwidth_hz / static_cast<double>(chips());
  }

  /// Theoretical minimum sampling rate 2 · BW / 2^(SF−K) (Hz), §2.3.
  double nyquist_sampling_rate_hz() const {
    return 2.0 * bandwidth_hz / static_cast<double>(1u << (spreading_factor - bits_per_symbol));
  }

  /// The conservative practical rate Saiyan uses: 3.2 · BW / 2^(SF−K).
  double practical_sampling_rate_hz() const {
    return 3.2 * bandwidth_hz / static_cast<double>(1u << (spreading_factor - bits_per_symbol));
  }
};

/// Code rate (payload fraction) of a FEC setting: 4/(4+cr).
double fec_code_rate(FecRate fec);

/// Human-readable name, e.g. "4/7".
const char* fec_name(FecRate fec);

}  // namespace saiyan::lora
