// Log2-bucketed latency histogram over microseconds.
//
// Grew up inside gateway/gateway_stats.hpp (PR 7) as the
// chunk-to-frame latency tracker; the observability subsystem promotes
// it to src/obs/ because every per-stage pipeline timer now feeds one,
// and the Prometheus exporter needs its bucket boundaries as public
// API (a `le` label is a contract, not an implementation detail).
//
// Bucketing: bucket i holds samples whose bit_width(us) == i, so
// bucket 0 is exactly {0} and bucket i >= 1 covers
// [2^(i-1), 2^i - 1] — ~2x resolution from 48 counters with no
// per-sample allocation. record() is wait-free (relaxed atomics, any
// number of concurrent writers); quantiles are computed at snapshot
// time with linear interpolation inside the landing bucket (the first
// bucket degenerates to its single edge 0; the last, open-ended
// bucket reports its lower edge instead of inventing a midpoint for
// an unbounded range).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

namespace saiyan::obs {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  /// Inclusive lower edge (us) of bucket `i`.
  static constexpr std::uint64_t bucket_lower_us(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  /// Inclusive upper edge (us) of bucket `i`. The last bucket is
  /// open-ended (it also absorbs the bit_width clamp), so its "edge"
  /// is the whole representable range — Prometheus renders it as
  /// le="+Inf".
  static constexpr std::uint64_t bucket_upper_us(std::size_t i) {
    return i + 1 >= kBuckets ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t us) {
    const std::size_t b =
        std::min<std::size_t>(std::bit_width(us), kBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
    std::uint64_t prev = max_us_.load(std::memory_order_relaxed);
    while (us > prev &&
           !max_us_.compare_exchange_weak(prev, us,
                                          std::memory_order_relaxed)) {
    }
  }

  /// Relaxed snapshot of the raw bucket counts: what a stats snapshot
  /// derives its quantiles and Prometheus bucket series from.
  void snapshot_counts(std::array<std::uint64_t, kBuckets>& out) const {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
  }

  static std::uint64_t total_from_counts(
      const std::array<std::uint64_t, kBuckets>& counts) {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    return total;
  }

  /// Samples that landed in the open-ended last bucket. Quantiles that
  /// land there can only report the bucket's lower edge (there is no
  /// upper edge to interpolate toward), silently truncating the true
  /// value — so snapshots carry this count as a `saturated` flag and
  /// the exporter surfaces it as a `*_saturated_total` counter instead
  /// of letting the clamp pass unnoticed.
  static std::uint64_t saturated_from_counts(
      const std::array<std::uint64_t, kBuckets>& counts) {
    return counts[kBuckets - 1];
  }

  /// Cumulative count of samples in the open-ended bucket.
  std::uint64_t saturated_count() const {
    return buckets_[kBuckets - 1].load(std::memory_order_relaxed);
  }

  /// Quantile `q` over an explicit count array, linearly interpolated
  /// inside the landing bucket; 0 when the array is empty. Shared by
  /// the cumulative quantile below and the gateway controller's
  /// windowed quantile.
  static std::uint64_t quantile_from_counts(
      const std::array<std::uint64_t, kBuckets>& counts, double q) {
    const std::uint64_t total = total_from_counts(counts);
    if (total == 0) return 0;
    const double target =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts[i] == 0) continue;
      const std::uint64_t before = seen;
      seen += counts[i];
      if (static_cast<double>(seen) < target) continue;
      const std::uint64_t lower = bucket_lower_us(i);
      // Open-ended bucket: the lower edge is the best defensible
      // answer, but it truncates — saturated_from_counts() lets
      // callers flag the clamp instead of trusting the number.
      if (i + 1 >= kBuckets) return lower;
      const std::uint64_t upper = (std::uint64_t{1} << i) - 1;
      const double frac = (target - static_cast<double>(before)) /
                          static_cast<double>(counts[i]);
      return lower + static_cast<std::uint64_t>(std::llround(
                         frac * static_cast<double>(upper - lower)));
    }
    return 0;
  }

  /// Interpolated quantile of the recorded samples; 0 when nothing was
  /// recorded.
  std::uint64_t quantile_us(double q) const {
    std::array<std::uint64_t, kBuckets> counts;
    snapshot_counts(counts);
    return quantile_from_counts(counts, q);
  }

  std::uint64_t total() const {
    std::array<std::uint64_t, kBuckets> counts;
    snapshot_counts(counts);
    return total_from_counts(counts);
  }

  std::uint64_t sum_us() const {
    return sum_us_.load(std::memory_order_relaxed);
  }

  std::uint64_t max_us() const {
    return max_us_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
};

}  // namespace saiyan::obs
