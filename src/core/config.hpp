// Saiyan demodulator configuration.
#pragma once

#include "frontend/cfs.hpp"
#include "frontend/envelope_detector.hpp"
#include "frontend/lna.hpp"
#include "frontend/saw_filter.hpp"
#include "lora/params.hpp"

namespace saiyan::core {

/// Demodulator variants evaluated in the paper's ablation (Fig. 25).
enum class Mode {
  kVanilla,            ///< SAW + envelope detector + comparator (§2)
  kFrequencyShifting,  ///< + cyclic-frequency shifting (§3.1)
  kSuper,              ///< + CFS + correlation decoding (§3.2)
};

const char* mode_name(Mode mode);

/// How comparator thresholds UH/UL are chosen (paper §4.1 stores an
/// offline distance-keyed table; kAuto estimates from the packet
/// itself, the AGC direction the paper leaves as future work).
enum class ThresholdMode {
  kAuto,
  kTable,
};

struct SaiyanConfig {
  lora::PhyParams phy;
  Mode mode = Mode::kSuper;
  ThresholdMode threshold_mode = ThresholdMode::kAuto;

  frontend::SawFilterConfig saw;
  frontend::LnaConfig lna;
  frontend::EnvelopeDetectorConfig envelope;
  frontend::CfsConfig cfs;

  /// Multiplier over the Nyquist minimum sampling rate; the paper's
  /// 3.2·BW/2^(SF-K) corresponds to 1.6.
  double sampling_rate_multiplier = 1.6;

  /// UH sits this many dB below the measured peak amplitude (§4.1).
  double threshold_gap_db = 6.0;

  /// RF frequency the complex-baseband samples are centered on. When
  /// <= 0 it defaults to SawFilter::recommended_rf_center_hz(BW) so the
  /// chirp sweep fills the SAW critical band.
  double rf_center_hz = 0.0;

  /// Resolved RF center.
  double effective_rf_center_hz() const {
    return rf_center_hz > 0.0
               ? rf_center_hz
               : frontend::SawFilter::recommended_rf_center_hz(phy.bandwidth_hz);
  }

  /// Build a config with all sample rates kept consistent.
  static SaiyanConfig make(const lora::PhyParams& phy, Mode mode);
};

/// `cfg` in vanilla mode: the front end of the streaming packet scanner
/// and of SIC rescans. Detection needs only timing, and the vanilla
/// envelope is both cheaper and blockwise-stable (the CFS mixer clock
/// phase would reset at every block boundary).
SaiyanConfig scan_config(const SaiyanConfig& cfg);

}  // namespace saiyan::core
