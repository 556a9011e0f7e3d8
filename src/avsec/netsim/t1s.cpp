#include "avsec/netsim/t1s.hpp"

#include <cassert>
#include <stdexcept>

namespace avsec::netsim {

namespace {

T1sConfig checked(T1sConfig c) {
  // A zero-length round would never advance the clock.
  if (c.bitrate <= 0 || core::bit_time(c.bitrate) <= 0 ||
      c.to_timer_bits <= 0 || c.beacon_bits < 0) {
    throw std::invalid_argument(
        "T1sBus: need a bit time of at least 1 ps, to_timer_bits > 0 and "
        "beacon_bits >= 0");
  }
  return c;
}

}  // namespace

T1sBus::T1sBus(core::Scheduler& sim, T1sConfig config)
    : sim_(sim),
      config_(checked(std::move(config))),
      to_time_(core::transmission_time(config_.to_timer_bits, config_.bitrate)),
      beacon_time_(
          core::transmission_time(config_.beacon_bits, config_.bitrate)) {
  AVSEC_OBS_REGISTER_TRACK(obs_track_, config_.name);
}

int T1sBus::attach(std::string name, RxCallback on_rx) {
  if (started_) {
    throw std::logic_error("T1sBus::attach: attach all nodes before start()");
  }
  nodes_.push_back(Node{std::move(name), std::move(on_rx), {}});
  return static_cast<int>(nodes_.size()) - 1;
}

void T1sBus::set_rx(int node, RxCallback on_rx) {
  nodes_.at(static_cast<std::size_t>(node)).on_rx = std::move(on_rx);
}

void T1sBus::start() {
  if (started_ || nodes_.empty()) {
    throw std::logic_error("T1sBus::start: call once, after attach()");
  }
  started_ = true;
  holder_ = 0;
  to_start_ = sim_.now() + beacon_time_;
  arm_first_queued();
}

void T1sBus::send(int node, EthFrame frame) {
  auto& queue = nodes_.at(static_cast<std::size_t>(node)).queue;
  queue.push_back(Pending{std::move(frame), sim_.now()});
  // A node with an older frame is already covered by the wake.
  if (started_ && queue.size() == 1) {
    const auto n = static_cast<std::size_t>(node);
    arm(n, next_to(n, sim_.now()));
  }
}

core::SimTime T1sBus::next_to(std::size_t node, core::SimTime t) const {
  // Idle TOs from the holder's on: one TO per node, plus the beacon when
  // the count wraps to node 0.
  const std::size_t n = nodes_.size();
  const bool wraps = node < holder_;
  const auto hops =
      static_cast<core::SimTime>(wraps ? node + n - holder_ : node - holder_);
  core::SimTime at = to_start_ + hops * to_time_ + (wraps ? beacon_time_ : 0);
  if (at < t) {
    const core::SimTime round =
        static_cast<core::SimTime>(n) * to_time_ + beacon_time_;
    at += (t - at + round - 1) / round * round;
  }
  return at;
}

void T1sBus::arm(std::size_t node, core::SimTime at) {
  if (armed_) {
    if (wake_at_ <= at) return;
    sim_.cancel(wake_);
  }
  armed_ = true;
  wake_at_ = at;
  wake_ = sim_.schedule_at(at, [this, node] { transmit(node); });
}

void T1sBus::arm_first_queued() {
  // TOs come in node order from the holder's, so the first node with a
  // frame has the earliest one.
  std::size_t node = holder_;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[node].queue.empty()) {
      arm(node, next_to(node, to_start_));
      return;
    }
    if (++node == nodes_.size()) node = 0;
  }
}

void T1sBus::transmit(std::size_t node) {
  assert(in_flight_src_ < 0 && "T1sBus: a TO started before the delivery");
  armed_ = false;
  Node& holder = nodes_[node];
  const core::SimTime enqueued_at = holder.queue.front().enqueued_at;
  in_flight_ = std::move(holder.queue.front().frame);
  in_flight_src_ = static_cast<int>(node);
  holder.queue.erase(holder.queue.begin());

  const core::SimTime duration =
      core::transmission_time(in_flight_.wire_bits(), config_.bitrate);
  busy_time_ += duration;
  access_latency_.add(core::to_microseconds(sim_.now() - enqueued_at));
  ++frames_delivered_;
  AVSEC_TRACE_BEGIN(obs::Category::kEthernet, "t1s-frame", obs_track_,
                    sim_.now(), static_cast<std::int64_t>(node),
                    static_cast<std::int64_t>(holder.queue.size()),
                    holder.name);
  AVSEC_METRIC_OBSERVE("t1s.access_latency_us",
                       core::to_microseconds(sim_.now() - enqueued_at));
  sim_.schedule_in(duration, [this] { deliver(); });

  // The next TO starts when the frame ends, after the beacon on a wrap.
  holder_ = node + 1 == nodes_.size() ? 0 : node + 1;
  to_start_ = sim_.now() + duration + (holder_ == 0 ? beacon_time_ : 0);
  arm_first_queued();
}

void T1sBus::deliver() {
  AVSEC_TRACE_END(obs::Category::kEthernet, "t1s-frame", obs_track_,
                  sim_.now());
  AVSEC_METRIC_INC("t1s.frames_delivered", 1);
  const int src = in_flight_src_;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (static_cast<int>(i) == src) continue;
    if (nodes_[i].on_rx) nodes_[i].on_rx(src, in_flight_, sim_.now());
  }
  in_flight_src_ = -1;
}

double T1sBus::bus_load() const {
  if (sim_.now() <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(sim_.now());
}

}  // namespace avsec::netsim
