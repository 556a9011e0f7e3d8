#include "avsec/serve/ladder.hpp"

namespace avsec::serve {

LoadState LoadLadder::observe(double occupancy) {
  const int level = state_.load(std::memory_order_relaxed);
  // The rung this occupancy calls for, ignoring hysteresis.
  int target = 0;
  if (occupancy >= config_.shed_ratio) {
    target = 2;
  } else if (occupancy >= config_.degrade_ratio) {
    target = 1;
  }
  if (target > level) {
    ++above_;
    below_ = 0;
    if (above_ >= config_.escalate_polls) {
      state_.store(static_cast<std::uint8_t>(level + 1),
                   std::memory_order_relaxed);
      escalations_.fetch_add(1, std::memory_order_relaxed);
      above_ = 0;
    }
  } else if (target < level) {
    ++below_;
    above_ = 0;
    if (below_ >= config_.recover_polls) {
      state_.store(static_cast<std::uint8_t>(level - 1),
                   std::memory_order_relaxed);
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      below_ = 0;
    }
  } else {
    above_ = 0;
    below_ = 0;
  }
  return state();
}

}  // namespace avsec::serve
