#include "frontend/cfs.hpp"

#include <stdexcept>

#include "dsp/iir.hpp"
#include "dsp/nco.hpp"
#include "dsp/simd.hpp"
#include "dsp/utils.hpp"

namespace saiyan::frontend {

namespace {

/// Input-mixer carrier leak-through fraction (finite mixer isolation,
/// the S(0) term of Fig. 9c).
constexpr double kCarrierLeak = 0.25;

}  // namespace

CyclicFrequencyShifter::CyclicFrequencyShifter(const CfsConfig& cfg,
                                               const EnvelopeDetectorConfig& ed_cfg)
    : cfg_(cfg), detector_(ed_cfg), clocks_(cfg.clock), fs_hz_(ed_cfg.sample_rate_hz) {
  if (cfg.clock.sample_rate_hz != ed_cfg.sample_rate_hz) {
    throw std::invalid_argument("CFS: clock and detector sample rates must match");
  }
  if (cfg.output_lpf_cutoff_hz >= cfg.clock.frequency_hz) {
    throw std::invalid_argument("CFS: output LPF must cut below the IF");
  }
}

void CyclicFrequencyShifter::process_ws(std::span<const dsp::Complex> rf,
                                        std::optional<LnaStage> lna,
                                        dsp::Rng* rng, dsp::RealSignal& out,
                                        FrontendScratch& scratch) const {
  // Step 1: input mixing with CLK_in — a real multiplier, producing
  // both sidebands S(F±Δf). The original carrier also leaks through
  // (finite mixer isolation); keep a fraction of it so the model
  // reproduces the S(0) term of Fig. 9(c). The mixed complex waveform
  // is never materialized: |x·(clk+c)|² = (clk+c)²·|x|², so the mixer
  // gain goes straight into the square-law detector. The clock table
  // depends only on (clock config, length) and is cached in the
  // scratch; the key fields catch a workspace reused across
  // differently-clocked demodulators.
  const std::size_t n = rf.size();
  if (scratch.cfs_clk.size() != n ||
      scratch.clk_freq_hz != cfg_.clock.frequency_hz ||
      scratch.clk_fs_hz != fs_hz_ ||
      scratch.clk_phase_rad != cfg_.clock.delay_line_phase_rad) {
    scratch.cfs_clk = clocks_.clk_in(n);
    for (double& v : scratch.cfs_clk) v += kCarrierLeak;
    scratch.cfs_lo.clear();  // rebuilt below against the new key
    scratch.clk_freq_hz = cfg_.clock.frequency_hz;
    scratch.clk_fs_hz = fs_hz_;
    scratch.clk_phase_rad = cfg_.clock.delay_line_phase_rad;
  }

  // The output-mixer LO table: the delay-line copy of the clock,
  // cos(2πΔf·t + Δφ) from dsp::Nco, cached per length (cleared above
  // when the clock key changes).
  if (scratch.cfs_lo.size() != n) {
    dsp::Nco lo(cfg_.clock.frequency_hz, fs_hz_,
                cfg_.clock.delay_line_phase_rad);
    scratch.cfs_lo = lo.cosine(n);
  }
  // Step 3: IF amplification — bandpass at Δf with gain (folded into
  // the biquad's feed-forward coefficients).
  dsp::Biquad bp = dsp::Biquad::bandpass(cfg_.clock.frequency_hz, fs_hz_,
                                         cfg_.if_quality_factor);
  bp.scale_output(dsp::db_to_amp(cfg_.if_gain_db));
  // Step 5's low-pass; the output mixer's 2x scale rides its
  // coefficients.
  dsp::Biquad lpf = dsp::Biquad::lowpass(cfg_.output_lpf_cutoff_hz, fs_hz_, 0.707);
  lpf.scale_output(2.0);

  // Step 2: envelope detection. |S(F)·(cos(2πΔf t)+c)|² beats the
  // sidebands against the carrier, landing the envelope at Δf (and
  // 2Δf); the detector's DC/flicker noise stays at baseband. The LNA
  // rides the square-law kernel, and steps 3–5 ride the detector's
  // per-sample pass: IF bandpass, then step 4's output mixing with the
  // delay-line clock copy (back to baseband at amplitude × cos(Δφ)/2,
  // the residual baseband noise pushed up to Δf), then step 5's
  // low-pass that removes the Δf and 2Δf products.
  const double* lo = scratch.cfs_lo.data();
  detector_.detect_into(rf, scratch.cfs_clk, lna, rng, out, scratch,
                        [bp, lpf, lo](double v, std::size_t i) mutable {
                          return lpf.step(bp.step(v) * lo[i]);
                        });
}

}  // namespace saiyan::frontend
