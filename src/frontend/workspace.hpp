// Reusable per-worker scratch for the analog front-end models.
//
// The receive chain's per-packet passes (mixer clock synthesis,
// flicker/white noise fills) either depend only on the configuration
// and the packet length — in which case they are cached here and
// regenerated only when the length changes — or are per-packet random
// fills whose buffers are reused across packets. One FrontendScratch
// lives inside each core::DemodWorkspace; sweeps that decode thousands
// of identically-sized packets touch the allocator only on the first.
#pragma once

#include "dsp/types.hpp"

namespace saiyan::frontend {

struct FrontendScratch {
  // CFS mixer tables, cached per (clock config, waveform length) —
  // the key fields below guard against a workspace being reused
  // across demodulators with different clock settings.
  dsp::RealSignal cfs_clk;  ///< CLK_in cosine + carrier-leak offset
  dsp::RealSignal cfs_lo;   ///< output-mixer cosine (delay-line copy)
  double clk_freq_hz = 0.0;     ///< clock config the tables were built for
  double clk_fs_hz = 0.0;
  double clk_phase_rad = 0.0;

  // Envelope-detector flicker realization (refilled per packet; it is
  // normalized over the whole frame, so it is the one impairment held
  // in a frame-sized buffer).
  dsp::RealSignal flicker;
};

}  // namespace saiyan::frontend
