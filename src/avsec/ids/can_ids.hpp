// In-vehicle network intrusion detection (paper §VIII): a profile-based
// CAN IDS combining three detectors the literature deploys:
//  - frequency: per-ID inter-arrival profiling (injection doubles a
//    periodic ID's rate),
//  - source identification: per-ID transmitter fingerprint (EASI-style;
//    the simulator's ground-truth node index stands in for the voltage
//    fingerprint), flags masquerade immediately,
//  - payload: per-ID per-byte value profiling (constant bytes, ranges).
//
// The IDS trains on clean traffic, then monitors.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "avsec/core/stats.hpp"
#include "avsec/netsim/can.hpp"

namespace avsec::ids {

using core::SimTime;

struct CanObservation {
  std::uint32_t id = 0;
  int src_node = -1;  // physical-layer fingerprint proxy
  SimTime time = 0;
  core::Bytes payload;
};

enum class AlertType : std::uint8_t {
  kRateAnomaly,
  kWrongSource,
  kPayloadAnomaly,
  /// A trained periodic ID went silent — the signature of a bus-off attack
  /// (the victim ECU was forced off the bus) or a severed harness.
  kUnexpectedSilence,
};

const char* alert_type_name(AlertType t);

struct Alert {
  AlertType type;
  std::uint32_t can_id = 0;
  SimTime time = 0;
  double confidence = 0.0;  // 0..1
  int observed_source = -1;
};

struct CanIdsConfig {
  /// Rate alarm when the smoothed inter-arrival falls below this fraction
  /// of the trained mean for `rate_patience` consecutive frames.
  double rate_ratio_threshold = 0.6;
  int rate_patience = 3;
  double ewma_alpha = 0.3;
  /// Payload alarm when this many bytes violate the trained profile.
  int payload_violation_bytes = 1;
};

/// Profile-based CAN IDS. Call learn() on clean traffic, then finish
/// training with freeze(), then monitor() per frame.
class CanIds {
 public:
  explicit CanIds(CanIdsConfig config = {});

  void learn(const CanObservation& obs);
  void freeze();
  bool frozen() const { return frozen_; }

  /// Returns alerts raised by this observation (possibly several).
  std::vector<Alert> monitor(const CanObservation& obs);

  /// Time-driven check: flags trained periodic IDs not heard for more than
  /// `silence_factor` x their trained period. Call periodically; each
  /// silent ID alerts once until it is heard again.
  std::vector<Alert> check_silence(SimTime now, double silence_factor = 5.0);

 private:
  struct ByteProfile {
    std::uint8_t min = 0xFF;
    std::uint8_t max = 0;
    bool constant = true;
    std::uint8_t constant_value = 0;
    bool seen = false;
  };
  struct IdProfile {
    // Training.
    core::Accumulator train_inter_arrival;
    SimTime last_train_time = -1;
    std::set<int> trained_sources;
    std::vector<ByteProfile> bytes;
    // Monitoring state.
    SimTime last_time = -1;
    double ewma_inter_us = 0.0;
    int fast_streak = 0;
    bool silence_alerted = false;
  };

  struct UnknownIdState {
    std::uint64_t count = 0;
    SimTime first_time = 0;
  };

  CanIdsConfig config_;
  bool frozen_ = false;
  std::map<std::uint32_t, IdProfile> profiles_;
  std::map<std::uint32_t, UnknownIdState> unknown_;
};

}  // namespace avsec::ids
