#include "frontend/sampler.hpp"

#include <cmath>
#include <stdexcept>

namespace saiyan::frontend {

VoltageSampler::VoltageSampler(const lora::PhyParams& params, double rate_multiplier)
    : params_(params) {
  params_.validate();
  if (rate_multiplier <= 0.0) {
    throw std::invalid_argument("VoltageSampler: multiplier must be > 0");
  }
  rate_hz_ = rate_multiplier * params_.nyquist_sampling_rate_hz();
}

SampledBits VoltageSampler::sample(std::span<const std::uint8_t> comparator_bits,
                                   double fs_hz) const {
  SampledBits out;
  sample_into(comparator_bits, fs_hz, out);
  return out;
}

void VoltageSampler::sample_into(std::span<const std::uint8_t> comparator_bits,
                                 double fs_hz, SampledBits& out) const {
  if (fs_hz <= 0.0) throw std::invalid_argument("VoltageSampler: fs must be > 0");
  if (rate_hz_ > fs_hz) {
    throw std::invalid_argument("VoltageSampler: tick rate exceeds simulation rate");
  }
  out.sample_rate_hz = rate_hz_;
  out.samples_per_symbol = rate_hz_ * params_.symbol_duration_s();
  const double ratio = fs_hz / rate_hz_;
  const std::size_t n_out = comparator_bits.empty()
      ? 0
      : static_cast<std::size_t>(
            std::floor(static_cast<double>(comparator_bits.size() - 1) / ratio)) + 1;
  out.bits.resize(n_out);
  for (std::size_t k = 0; k < n_out; ++k) {
    const std::size_t idx = static_cast<std::size_t>(std::floor(k * ratio));
    out.bits[k] = comparator_bits[std::min(idx, comparator_bits.size() - 1)];
  }
}

}  // namespace saiyan::frontend
