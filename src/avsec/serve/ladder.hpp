// Load-shedding ladder: NOMINAL -> DEGRADED -> SHED with hysteresis.
//
// The supervisor feeds one queue-occupancy sample per poll; the ladder
// escalates one rung after `escalate_polls` consecutive samples above the
// next rung's threshold and recovers one rung after `recover_polls`
// consecutive samples below the current rung's threshold. Escalation is
// deliberately faster than recovery (the same asymmetry as the
// health::SafetySupervisor's bounded-recovery model): flapping between
// full-scale and degraded service under a load oscillating around a
// threshold would be worse than briefly over-degrading.
//
// The current state is published through an atomic so the admission path
// (any submitting thread) reads it without taking the supervisor's locks.
#pragma once

#include <atomic>
#include <cstdint>

namespace avsec::serve {

enum class LoadState : std::uint8_t {
  kNominal,   // full-scale service
  kDegraded,  // admissions run at smoke scale
  kShed,      // new work is refused with a structured kOverloaded reply
};

struct LadderConfig {
  /// Queue occupancy (depth / capacity) at or above which the ladder
  /// climbs toward DEGRADED.
  double degrade_ratio = 0.5;
  /// Occupancy at or above which it climbs toward SHED.
  double shed_ratio = 0.85;
  /// Consecutive polls above a rung's threshold before climbing one rung.
  int escalate_polls = 2;
  /// Consecutive polls below the current rung's threshold before
  /// descending one rung.
  int recover_polls = 4;
};

class LoadLadder {
 public:
  explicit LoadLadder(LadderConfig config = {}) : config_(config) {}

  /// One supervisor poll: classify `occupancy` and advance the ladder at
  /// most one rung. Called from the supervisor thread only.
  LoadState observe(double occupancy);

  /// Lock-free snapshot for the admission path.
  LoadState state() const {
    return static_cast<LoadState>(state_.load(std::memory_order_relaxed));
  }

  std::uint64_t escalations() const {
    return escalations_.load(std::memory_order_relaxed);
  }
  std::uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }

 private:
  LadderConfig config_;
  std::atomic<std::uint8_t> state_{0};
  std::atomic<std::uint64_t> escalations_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  // Streak counters, supervisor-thread confined.
  int above_ = 0;
  int below_ = 0;
};

}  // namespace avsec::serve
