// Redundancy voting (paper §IV–§VI): detection alone is not enough — a
// replicated sensor/provider set must actively *mask* a faulty member.
//
// A RedundancyVoter holds the latest value published by each of n replicas
// and fuses them k-out-of-n (2oo3 by default) under one of three policies:
//  - exact match:    majority of bit-identical values (discrete states,
//                    checksummed frames);
//  - tolerance band: the largest set of replicas whose values agree within
//                    a band; output is the set's mean (analog sensors);
//  - median:         output the median; replicas further than the band
//                    from it are the minority (cheapest, no clustering).
//
// Minority replicas are suspected-faulty: the voter counts per-replica
// minority verdicts and can report them to the IDS correlation engine as
// alerts (a lying replica looks exactly like a payload-anomaly on its
// PDU; an absent replica like unexpected silence), so redundancy
// disagreement correlates with the other detectors instead of living in
// its own silo.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "avsec/core/time.hpp"
#include "avsec/ids/correlation.hpp"

namespace avsec::health {

enum class VotePolicy : std::uint8_t {
  kExactMatch,
  kToleranceBand,
  kMedian,
};

struct VoterConfig {
  VotePolicy policy = VotePolicy::kToleranceBand;
  /// Agreement band half-width (tolerance/median policies).
  double tolerance = 0.5;
  /// k in k-out-of-n: replicas that must agree for a valid output.
  int quorum = 2;
  /// Values older than this do not vote (a stale replica is absent).
  core::SimTime max_age = core::milliseconds(50);
};

struct VoteOutcome {
  bool quorum_met = false;
  double value = 0.0;  // fused output; meaningful when quorum_met
  int votes = 0;       // replicas in the winning agreement set
  int present = 0;     // replicas with a fresh value
  std::vector<int> minority;  // fresh replicas outvoted / out of band
  std::vector<int> absent;    // replicas with no fresh value
};

class RedundancyVoter {
 public:
  RedundancyVoter(VoterConfig config, int n_replicas);

  void publish(int replica, double value, core::SimTime now);

  /// Fuses the fresh values. Updates per-replica suspect counts and, when
  /// a correlator is bound, reports minority/absent replicas as alerts.
  VoteOutcome vote(core::SimTime now);

  /// Cumulative minority verdicts per replica (a healthy replica under a
  /// single-fault assumption stays near zero).
  const std::vector<std::uint64_t>& suspect_counts() const {
    return suspects_;
  }

  /// Routes suspected-faulty replicas into the IDS correlation engine:
  /// minority replica r becomes a kPayloadAnomaly alert on
  /// `base_can_id + r`, an absent replica a kUnexpectedSilence alert.
  void bind_correlator(ids::AlertCorrelator* correlator,
                       std::uint32_t base_can_id, double confidence = 0.8);

  int replicas() const { return static_cast<int>(latest_.size()); }

 private:
  struct Sample {
    double value = 0.0;
    core::SimTime at = 0;
  };

  VoteOutcome fuse(const std::vector<int>& fresh,
                   const std::vector<double>& values) const;

  VoterConfig config_;
  std::vector<std::optional<Sample>> latest_;
  std::vector<std::uint64_t> suspects_;
  ids::AlertCorrelator* correlator_ = nullptr;
  std::uint32_t base_can_id_ = 0;
  double alert_confidence_ = 0.8;
};

}  // namespace avsec::health
