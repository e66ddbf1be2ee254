// Low-power voltage sampler (paper §2.3, Table 1).
//
// The comparator output is latched into an MCU counter at a rate that
// trades power for throughput. For a chirp carrying K bits the Nyquist
// minimum is 2·BW/2^(SF-K); the paper's benchmark (Table 1) shows
// practice needs a little more and settles on 3.2·BW/2^(SF-K).
#pragma once

#include <span>

#include "dsp/types.hpp"
#include "lora/params.hpp"

namespace saiyan::frontend {

struct SampledBits {
  dsp::BitVector bits;        ///< one sample per tick
  double sample_rate_hz = 0;  ///< actual tick rate
  double samples_per_symbol = 0;
};

class VoltageSampler {
 public:
  /// `rate_multiplier` scales the Nyquist minimum: 1.0 = theory
  /// (2·BW/2^(SF-K)), Saiyan's default 1.6 gives the paper's
  /// 3.2·BW/2^(SF-K).
  explicit VoltageSampler(const lora::PhyParams& params, double rate_multiplier = 1.6);

  /// Sample a comparator bit stream produced at the simulation rate.
  SampledBits sample(std::span<const std::uint8_t> comparator_bits,
                     double fs_hz) const;

  /// Workspace variant: fills a caller-owned SampledBits, reusing its
  /// bit buffer's capacity. Identical to sample().
  void sample_into(std::span<const std::uint8_t> comparator_bits, double fs_hz,
                   SampledBits& out) const;

  double sample_rate_hz() const { return rate_hz_; }

 private:
  lora::PhyParams params_;
  double rate_hz_;
};

}  // namespace saiyan::frontend
