#include "gateway/degradation.hpp"

namespace saiyan::gateway {

const char* to_string(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kHealthy:
      return "healthy";
    case DegradationLevel::kReduceSic:
      return "reduce_sic";
    case DegradationLevel::kShedRescans:
      return "shed_rescans";
    case DegradationLevel::kDropSpans:
      return "drop_spans";
  }
  return "?";
}

bool DegradationLadder::update(std::uint64_t lag_ms) {
  // Hot at or past the high watermark, cool at or below the low one.
  // In between, both streaks reset and the level holds. An off ladder
  // (0 high) is never hot.
  const bool on = cfg_.lag_high_ms != 0;
  const bool hot = on && lag_ms >= cfg_.lag_high_ms;
  const bool cool = !on || lag_ms <= cfg_.lag_low_ms;
  if (hot) {
    cool_streak_ = 0;
    if (++hot_streak_ >= cfg_.escalate_after) {
      hot_streak_ = 0;  // a further escalation needs a fresh streak
      if (level_ < static_cast<std::uint8_t>(DegradationLevel::kDropSpans)) {
        ++level_;
        ++transitions_;
        return true;
      }
    }
  } else if (cool) {
    hot_streak_ = 0;
    if (++cool_streak_ >= cfg_.deescalate_after) {
      cool_streak_ = 0;
      if (level_ > 0) {
        --level_;
        ++transitions_;
        return true;
      }
    }
  } else {
    hot_streak_ = 0;
    cool_streak_ = 0;
  }
  return false;
}

}  // namespace saiyan::gateway
