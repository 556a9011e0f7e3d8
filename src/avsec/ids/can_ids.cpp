#include "avsec/ids/can_ids.hpp"

namespace avsec::ids {

const char* alert_type_name(AlertType t) {
  switch (t) {
    case AlertType::kRateAnomaly: return "rate anomaly";
    case AlertType::kWrongSource: return "wrong source";
    case AlertType::kPayloadAnomaly: return "payload anomaly";
    case AlertType::kUnexpectedSilence: return "unexpected silence";
  }
  return "?";
}

CanIds::CanIds(CanIdsConfig config) : config_(config) {}

void CanIds::learn(const CanObservation& obs) {
  IdProfile& p = profiles_[obs.id];
  if (p.last_train_time >= 0) {
    p.train_inter_arrival.add(
        core::to_microseconds(obs.time - p.last_train_time));
  }
  p.last_train_time = obs.time;
  p.trained_sources.insert(obs.src_node);
  if (p.bytes.size() < obs.payload.size()) p.bytes.resize(obs.payload.size());
  for (std::size_t i = 0; i < obs.payload.size(); ++i) {
    ByteProfile& b = p.bytes[i];
    const std::uint8_t v = obs.payload[i];
    if (!b.seen) {
      b.seen = true;
      b.min = b.max = b.constant_value = v;
    } else {
      if (v != b.constant_value) b.constant = false;
      b.min = std::min(b.min, v);
      b.max = std::max(b.max, v);
    }
  }
}

void CanIds::freeze() { frozen_ = true; }

std::vector<Alert> CanIds::monitor(const CanObservation& obs) {
  std::vector<Alert> out;
  const auto it = profiles_.find(obs.id);
  if (it == profiles_.end()) {
    // Unknown ID on a static IVN matrix is itself suspicious; a *rapidly
    // repeating* unknown ID is a flood.
    auto& u = unknown_[obs.id];
    if (u.count == 0) u.first_time = obs.time;
    ++u.count;
    const double span_us = core::to_microseconds(obs.time - u.first_time);
    if (u.count >= 10 && span_us / double(u.count) < 1000.0) {
      out.push_back(Alert{AlertType::kRateAnomaly, obs.id, obs.time, 0.9,
                          obs.src_node});
    } else {
      out.push_back(Alert{AlertType::kPayloadAnomaly, obs.id, obs.time, 0.6,
                          obs.src_node});
    }
    return out;
  }
  IdProfile& p = it->second;

  // Source check: immediate and high-confidence (fingerprint mismatch).
  if (!p.trained_sources.count(obs.src_node)) {
    out.push_back(Alert{AlertType::kWrongSource, obs.id, obs.time, 0.95,
                        obs.src_node});
  }

  // Rate check: EWMA of inter-arrival vs trained mean.
  if (p.last_time >= 0 && p.train_inter_arrival.count() >= 2) {
    const double inter_us = core::to_microseconds(obs.time - p.last_time);
    p.ewma_inter_us = p.ewma_inter_us == 0.0
                          ? inter_us
                          : (1.0 - config_.ewma_alpha) * p.ewma_inter_us +
                                config_.ewma_alpha * inter_us;
    const double trained = p.train_inter_arrival.mean();
    if (trained > 0.0 &&
        p.ewma_inter_us < config_.rate_ratio_threshold * trained) {
      if (++p.fast_streak >= config_.rate_patience) {
        out.push_back(Alert{AlertType::kRateAnomaly, obs.id, obs.time,
                            0.8, obs.src_node});
        p.fast_streak = 0;  // re-arm after alerting
      }
    } else {
      p.fast_streak = 0;
    }
  }
  p.last_time = obs.time;

  // Payload profile check.
  int violations = 0;
  for (std::size_t i = 0; i < obs.payload.size() && i < p.bytes.size(); ++i) {
    const ByteProfile& b = p.bytes[i];
    if (!b.seen) continue;
    const std::uint8_t v = obs.payload[i];
    if (b.constant && v != b.constant_value) {
      ++violations;
    } else if (v < b.min || v > b.max) {
      ++violations;
    }
  }
  if (violations >= config_.payload_violation_bytes && violations > 0) {
    out.push_back(Alert{AlertType::kPayloadAnomaly, obs.id, obs.time,
                        std::min(1.0, 0.4 + 0.2 * violations),
                        obs.src_node});
  }

  // Hearing the ID re-arms silence detection.
  p.silence_alerted = false;

  return out;
}

std::vector<Alert> CanIds::check_silence(SimTime now, double silence_factor) {
  std::vector<Alert> out;
  if (!frozen_) return out;
  for (auto& [id, p] : profiles_) {
    if (p.silence_alerted) continue;
    if (p.train_inter_arrival.count() < 2) continue;  // not periodic
    const double trained_us = p.train_inter_arrival.mean();
    // Reference point: last monitored frame, or the end of training.
    const SimTime last = p.last_time >= 0 ? p.last_time : p.last_train_time;
    if (last < 0) continue;
    const double silent_us = core::to_microseconds(now - last);
    if (silent_us > silence_factor * trained_us) {
      p.silence_alerted = true;
      out.push_back(Alert{AlertType::kUnexpectedSilence, id, now, 0.85, -1});
    }
  }
  return out;
}

}  // namespace avsec::ids
