// Analog receive chain shared by every Saiyan mode (paper Fig. 12):
// antenna -> SAW filter (frequency->amplitude) -> CG-LNA -> envelope
// detection (plain or cyclic-frequency shifting) -> analog envelope.
#pragma once

#include <span>

#include "core/config.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "frontend/cfs.hpp"
#include "frontend/envelope_detector.hpp"
#include "frontend/lna.hpp"
#include "frontend/saw_filter.hpp"

namespace saiyan::core {

struct DemodWorkspace;  // core/batch_demod.hpp

class ReceiverChain {
 public:
  explicit ReceiverChain(const SaiyanConfig& cfg);

  /// Process an RF complex-baseband waveform into the analog envelope
  /// the comparator sees.
  dsp::RealSignal envelope(std::span<const dsp::Complex> rf, dsp::Rng& rng) const;

  /// Workspace variant: writes the envelope into ws.env through the
  /// workspace's reusable chain buffers. Identical values and RNG
  /// consumption to envelope(); zero allocations once warm.
  void envelope_into(std::span<const dsp::Complex> rf, dsp::Rng& rng,
                     DemodWorkspace& ws) const;

  /// Deterministic reference envelope: same chain with every noise
  /// source disabled. Used to build preamble/symbol templates for the
  /// pattern matcher and the correlation decoder.
  dsp::RealSignal reference_envelope(std::span<const dsp::Complex> rf) const;

  /// Workspace variant of reference_envelope(): writes into ws.env
  /// through the workspace's reusable buffers — zero allocations once
  /// warm. This is the per-block front end of the streaming packet
  /// scanner (stream::PacketScanner), which must turn arbitrary
  /// capture blocks into scan envelopes without touching the
  /// allocator.
  void reference_envelope_into(std::span<const dsp::Complex> rf,
                               DemodWorkspace& ws) const;

  const SaiyanConfig& config() const { return cfg_; }

 private:
  /// The one path behind all four entries: SAW, then the mode's fused
  /// detector. A null `rng` is the noiseless reference (no LNA draws,
  /// no detector impairments).
  void run_into(std::span<const dsp::Complex> rf, dsp::Rng* rng,
                DemodWorkspace& ws) const;

  SaiyanConfig cfg_;
  frontend::SawFilter saw_;
  frontend::Lna lna_;
};

}  // namespace saiyan::core
