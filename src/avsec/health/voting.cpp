#include "avsec/health/voting.hpp"

#include <algorithm>
#include <cmath>

#include "avsec/core/stats.hpp"

namespace avsec::health {

RedundancyVoter::RedundancyVoter(VoterConfig config, int n_replicas)
    : config_(config),
      latest_(static_cast<std::size_t>(n_replicas)),
      suspects_(static_cast<std::size_t>(n_replicas), 0) {}

void RedundancyVoter::publish(int replica, double value, core::SimTime now) {
  latest_.at(static_cast<std::size_t>(replica)) = Sample{value, now};
}

void RedundancyVoter::bind_correlator(ids::AlertCorrelator* correlator,
                                      std::uint32_t base_can_id,
                                      double confidence) {
  correlator_ = correlator;
  base_can_id_ = base_can_id;
  alert_confidence_ = confidence;
}

VoteOutcome RedundancyVoter::vote(core::SimTime now) {
  std::vector<int> fresh;
  std::vector<double> values;
  VoteOutcome out;
  for (int r = 0; r < replicas(); ++r) {
    const auto& s = latest_[static_cast<std::size_t>(r)];
    if (s.has_value() && now - s->at <= config_.max_age) {
      fresh.push_back(r);
      values.push_back(s->value);
    } else {
      out.absent.push_back(r);
    }
  }
  VoteOutcome fused = fuse(fresh, values);
  fused.absent = std::move(out.absent);
  fused.present = static_cast<int>(fresh.size());

  for (int r : fused.minority) {
    ++suspects_[static_cast<std::size_t>(r)];
    if (correlator_ != nullptr) {
      ids::Alert a;
      a.type = ids::AlertType::kPayloadAnomaly;
      a.can_id = base_can_id_ + static_cast<std::uint32_t>(r);
      a.time = now;
      a.confidence = alert_confidence_;
      correlator_->ingest(a);
    }
  }
  if (correlator_ != nullptr) {
    for (int r : fused.absent) {
      ids::Alert a;
      a.type = ids::AlertType::kUnexpectedSilence;
      a.can_id = base_can_id_ + static_cast<std::uint32_t>(r);
      a.time = now;
      a.confidence = alert_confidence_;
      correlator_->ingest(a);
    }
  }
  return fused;
}

VoteOutcome RedundancyVoter::fuse(const std::vector<int>& fresh,
                                  const std::vector<double>& values) const {
  VoteOutcome out;
  const std::size_t n = values.size();
  if (n == 0) return out;

  switch (config_.policy) {
    case VotePolicy::kExactMatch: {
      // Winner: the largest group of bit-identical values (first on ties,
      // so the outcome is deterministic in replica order).
      std::size_t best = 0;
      int best_count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        int count = 0;
        for (std::size_t j = 0; j < n; ++j) {
          if (values[j] == values[i]) ++count;
        }
        if (count > best_count) {
          best_count = count;
          best = i;
        }
      }
      out.value = values[best];
      out.votes = best_count;
      for (std::size_t i = 0; i < n; ++i) {
        if (values[i] != values[best]) out.minority.push_back(fresh[i]);
      }
      break;
    }
    case VotePolicy::kToleranceBand: {
      // Winner: the candidate whose band contains the most replicas;
      // output is the mean of the agreeing set.
      std::size_t best = 0;
      int best_count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        int count = 0;
        for (std::size_t j = 0; j < n; ++j) {
          if (std::abs(values[j] - values[i]) <= config_.tolerance) ++count;
        }
        if (count > best_count) {
          best_count = count;
          best = i;
        }
      }
      // R3: the agreed value feeds supervisor/IDS reports, so the mean of
      // the agreeing set folds through core::Accumulator.
      core::Accumulator agree;
      for (std::size_t i = 0; i < n; ++i) {
        if (std::abs(values[i] - values[best]) <= config_.tolerance) {
          agree.add(values[i]);
        } else {
          out.minority.push_back(fresh[i]);
        }
      }
      out.votes = best_count;
      out.value = agree.sum() / best_count;
      break;
    }
    case VotePolicy::kMedian: {
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const double med = (n % 2 == 1)
                             ? sorted[n / 2]
                             : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
      out.value = med;
      for (std::size_t i = 0; i < n; ++i) {
        if (std::abs(values[i] - med) > config_.tolerance) {
          out.minority.push_back(fresh[i]);
        } else {
          ++out.votes;
        }
      }
      break;
    }
  }
  out.quorum_met = out.votes >= config_.quorum;
  return out;
}

}  // namespace avsec::health
