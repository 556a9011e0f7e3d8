#include "avsec/fault/fault.hpp"

#include <algorithm>
#include <stdexcept>

namespace avsec::fault {

// --- CanNodeFault ---

CanNodeFault::CanNodeFault(core::Scheduler& sim, netsim::CanBus& bus,
                           int node, std::uint64_t seed)
    : sim_(sim), bus_(bus), node_(node), rng_(seed) {}

bool CanNodeFault::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
      babbling_ = false;  // a crashed controller stops babbling too
      bus_.set_node_down(node_, true);
      return true;
    case FaultKind::kNodeRestart:
      bus_.set_node_down(node_, false);
      return true;
    case FaultKind::kBabblingIdiot:
      corrupt_prob_ = ev.magnitude;
      if (ev.delta > 0) babble_period = ev.delta;
      if (!babbling_) {
        babbling_ = true;
        babble_tick();
      }
      return true;
    case FaultKind::kBabblingStop:
      babbling_ = false;
      return true;
    default:
      return false;
  }
}

void CanNodeFault::revert(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
      bus_.set_node_down(node_, false);
      break;
    case FaultKind::kBabblingIdiot:
      babbling_ = false;
      break;
    default:
      break;
  }
}

void CanNodeFault::babble_tick() {
  if (!babbling_) return;
  if (!bus_.is_bus_off(node_) && !bus_.is_down(node_) &&
      bus_.queue_depth(node_) < static_cast<std::size_t>(queue_target)) {
    netsim::CanFrame f;
    f.id = babble_id;
    f.payload = core::Bytes(8, 0xBB);
    if (rng_.chance(corrupt_prob_)) bus_.inject_errors_on(node_, 1);
    bus_.send(node_, std::move(f));
    ++babble_frames_;
  }
  sim_.schedule_in(babble_period, [this] { babble_tick(); });
}

// --- ChannelFault ---

ChannelFault::ChannelFault(netsim::FlakyChannel& channel)
    : channel_(channel) {}

bool ChannelFault::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kLinkDrop:
      saved_drop_ = channel_.drop_rate();
      channel_.set_drop_rate(ev.magnitude);
      return true;
    case FaultKind::kLinkCorrupt:
      saved_corrupt_ = 0.0;
      channel_.set_corrupt_rate(ev.magnitude);
      return true;
    case FaultKind::kLinkDelay:
      saved_delay_ = 0;
      channel_.set_extra_delay(ev.delta);
      return true;
    case FaultKind::kLinkPartition:
      channel_.set_partitioned(true);
      return true;
    case FaultKind::kLinkHeal:
      channel_.set_partitioned(false);
      channel_.set_drop_rate(saved_drop_);
      channel_.set_corrupt_rate(saved_corrupt_);
      channel_.set_extra_delay(saved_delay_);
      return true;
    default:
      return false;
  }
}

void ChannelFault::revert(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kLinkDrop:
      channel_.set_drop_rate(saved_drop_);
      break;
    case FaultKind::kLinkCorrupt:
      channel_.set_corrupt_rate(saved_corrupt_);
      break;
    case FaultKind::kLinkDelay:
      channel_.set_extra_delay(saved_delay_);
      break;
    case FaultKind::kLinkPartition:
      channel_.set_partitioned(false);
      break;
    default:
      break;
  }
}

// --- ReplicaFault ---

bool ReplicaFault::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kByzantineValue:
      port_.set_value_bias(ev.magnitude);
      return true;
    case FaultKind::kReplicaMute:
      port_.set_muted(true);
      return true;
    default:
      return false;
  }
}

void ReplicaFault::revert(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kByzantineValue:
      port_.set_value_bias(0.0);
      break;
    case FaultKind::kReplicaMute:
      port_.set_muted(false);
      break;
    default:
      break;
  }
}

// --- SkewedClock / ClockFault ---

core::SimTime SkewedClock::local_now() const {
  const core::SimTime elapsed = sim_.now() - origin_;
  const double skewed =
      static_cast<double>(elapsed) * (1.0 + ppm_ * 1e-6);
  return base_local_ + static_cast<core::SimTime>(skewed) + offset_;
}

void SkewedClock::set_skew_ppm(double ppm) {
  // Rebase so the local clock is continuous across the rate change.
  const core::SimTime local = local_now() - offset_;
  origin_ = sim_.now();
  base_local_ = local;
  ppm_ = ppm;
}

bool ClockFault::apply(const FaultEvent& ev) {
  if (ev.kind != FaultKind::kClockSkew) return false;
  clock_.set_skew_ppm(ev.magnitude);
  clock_.set_offset(ev.delta);
  return true;
}

void ClockFault::revert(const FaultEvent& ev) {
  if (ev.kind != FaultKind::kClockSkew) return;
  clock_.set_skew_ppm(0.0);
  clock_.set_offset(0);
}

// --- FaultPlan ---

FaultPlan& FaultPlan::add(FaultEvent ev) {
  events_.push_back(std::move(ev));
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return *this;
}

FaultPlan FaultPlan::random(const RandomConfig& config, std::uint64_t seed) {
  FaultPlan plan;
  if (config.targets.empty() || config.kinds.empty()) return plan;
  core::Rng rng(seed);
  for (std::size_t i = 0; i < config.count; ++i) {
    FaultEvent ev;
    ev.at = config.start +
            rng.uniform_int(0, std::max<core::SimTime>(
                                   1, config.end - config.start - 1));
    ev.kind = config.kinds[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.kinds.size()) - 1))];
    ev.target = config.targets[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.targets.size()) - 1))];
    ev.duration = rng.uniform_int(config.min_duration, config.max_duration);
    ev.magnitude = rng.uniform(config.magnitude_lo, config.magnitude_hi);
    if (ev.kind == FaultKind::kLinkDelay) {
      ev.delta = rng.uniform_int(core::microseconds(100),
                                 core::milliseconds(5));
    }
    plan.add(std::move(ev));
  }
  return plan;
}

// --- FaultInjector ---

void FaultInjector::add_target(const std::string& name, FaultTarget* target) {
  targets_[name] = target;
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events()) {
    if (targets_.find(ev.target) == targets_.end()) {
      throw std::out_of_range("FaultInjector: unknown target " + ev.target);
    }
    pending_.push_back(
        sim_.schedule_at(ev.at, [this, ev] { fire(ev); }));
  }
}

void FaultInjector::fire(const FaultEvent& ev) {
  FaultTarget* target = targets_.at(ev.target);
  const bool ok = target->apply(ev);
  log_.push_back(InjectionRecord{sim_.now(), ev, false, ok});
  AVSEC_TRACE_INSTANT(obs::Category::kFault,
                      ok ? "inject" : "inject-rejected", obs_track_,
                      sim_.now(), static_cast<std::int64_t>(ev.kind),
                      ev.duration, ev.target);
  if (!ok) {
    ++rejected_;
    AVSEC_METRIC_INC("fault.rejected", 1);
    return;
  }
  ++applied_;
  AVSEC_METRIC_INC("fault.applied", 1);
  if (ev.duration > 0) {
    pending_.push_back(sim_.schedule_in(ev.duration, [this, ev, target] {
      target->revert(ev);
      log_.push_back(InjectionRecord{sim_.now(), ev, true, true});
      AVSEC_TRACE_INSTANT(obs::Category::kFault, "revert", obs_track_,
                          sim_.now(), static_cast<std::int64_t>(ev.kind), 0,
                          ev.target);
      AVSEC_METRIC_INC("fault.reverted", 1);
    }));
  }
}

std::size_t FaultInjector::cancel_pending() {
  std::size_t n = 0;
  for (core::EventHandle& h : pending_) {
    if (sim_.cancel(h)) ++n;
  }
  pending_.clear();
  return n;
}

}  // namespace avsec::fault
