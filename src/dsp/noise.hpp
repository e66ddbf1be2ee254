// Noise sources: thermal AWGN, white real noise, 1/f flicker noise and
// DC offset — the impairments the envelope detector injects at
// baseband (paper Eq. 4 and §3.1).
#pragma once

#include <span>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace saiyan::dsp {

/// Generate n samples of circularly-symmetric complex Gaussian noise
/// with total power `power_watts` (variance split evenly across I/Q).
Signal complex_awgn(std::size_t n, double power_watts, Rng& rng);

/// Add complex AWGN of the given power to x in place.
void add_awgn(Signal& x, double power_watts, Rng& rng);

/// Generate n samples of real white Gaussian noise with power
/// `power_watts`.
RealSignal real_white_noise(std::size_t n, double power_watts, Rng& rng);

/// n samples of 1/f (flicker) noise, synthesized by summing
/// octave-spaced one-pole filtered white noise (Voss–McCartney style
/// IIR approximation) with one gaussian drive per sample, drawn a
/// stack block at a time into a caller-owned buffer. Writes the raw
/// stage sum into `out` and returns the gain that normalizes it to
/// total power `power_watts` (1 when the raw sum has no power): the
/// noise is gain·out[i]. The envelope detector folds that scaling into
/// its own per-sample pass instead of sweeping the frame again.
double flicker_noise_unscaled(std::size_t n, double power_watts, Rng& rng,
                              RealSignal& out);

/// Thermal noise floor in dBm for a given bandwidth and noise figure:
/// -174 dBm/Hz + 10 log10(BW) + NF.
double thermal_noise_floor_dbm(double bandwidth_hz, double noise_figure_db);

}  // namespace saiyan::dsp
