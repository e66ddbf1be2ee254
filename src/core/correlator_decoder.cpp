#include "core/correlator_decoder.hpp"

#include <algorithm>

#include "dsp/simd.hpp"
#include "dsp/utils.hpp"

namespace saiyan::core {

CorrelatorDecoder::CorrelatorDecoder(const ReceiverChain& chain)
    : ref_(receiver_reference(chain)),
      sps_(chain.config().phy.samples_per_symbol()) {}

std::uint32_t CorrelatorDecoder::decode_window(std::span<const double> window) const {
  // Mean removal folded into the dot product: the templates are
  // zero-mean, so subtracting the window mean offsets every score by
  // mean·sum(t) = 0 and the full-length case needs no correction. A
  // window truncated at the capture edge sees a template *prefix*,
  // which is not zero-mean — only that (rare) path pays for the sum.
  const dsp::RealSignal* templates = ref_->symbol_templates.data();
  const std::size_t n_templates = ref_->symbol_templates.size();
  std::uint32_t best = 0;
  double best_score = -1e300;
  for (std::uint32_t v = 0; v < n_templates; ++v) {
    const dsp::RealSignal& t = templates[v];
    double dot = 0.0;
    if (window.size() >= t.size()) {
      dot = dsp::simd::dot(window.data(), t.data(), t.size());
    } else {
      const double mean = dsp::mean(window);
      double t_sum = 0.0;
      for (std::size_t i = 0; i < window.size(); ++i) {
        dot += window[i] * t[i];
        t_sum += t[i];
      }
      dot -= mean * t_sum;
    }
    if (dot > best_score) {
      best_score = dot;
      best = v;
    }
  }
  return best;
}

void CorrelatorDecoder::decode_stream_into(std::span<const double> envelope,
                                           std::size_t start_index,
                                           std::size_t n_symbols,
                                           std::vector<std::uint32_t>& out) const {
  out.clear();
  out.reserve(n_symbols);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::size_t lo = start_index + s * sps_;
    // A slightly late timing estimate can push the final window past
    // the end of the capture; decode from whatever remains as long as
    // most of the symbol is present.
    if (lo >= envelope.size() || envelope.size() - lo < sps_ / 2) {
      out.push_back(0);
      continue;
    }
    const std::size_t len = std::min(sps_, envelope.size() - lo);
    out.push_back(decode_window(envelope.subspan(lo, len)));
  }
}

}  // namespace saiyan::core
