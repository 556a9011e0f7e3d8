// Test-only reference for netsim::T1sBus: the stepped PLCA bus, which
// dispatches one scheduler event per transmit opportunity (TO) whether or
// not anyone has a frame queued. It is slow on purpose and obviously
// correct, so t1s_differential_test.cpp can hold the parked bus, which
// jumps from one busy TO to the next in closed form, to it on random send
// schedules.
//
// The one known difference: the stepped bus decides whether a node sends
// when that node's TO event fires, so a frame queued at the exact instant
// its node's TO starts goes in that TO only if the queuing event was
// scheduled before the previous TO began (event-id order). T1sBus always
// sends it in that TO.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/core/stats.hpp"
#include "avsec/netsim/ethernet.hpp"
#include "avsec/netsim/t1s.hpp"

namespace avsec::netsim::reference {

class SteppedT1sBus {
 public:
  using RxCallback = T1sBus::RxCallback;

  SteppedT1sBus(core::Scheduler& sim, T1sConfig config)
      : sim_(sim), config_(std::move(config)) {}

  int attach(std::string name, RxCallback on_rx) {
    nodes_.push_back(Node{std::move(name), std::move(on_rx), {}});
    return static_cast<int>(nodes_.size()) - 1;
  }

  void set_rx(int node, RxCallback on_rx) {
    nodes_.at(static_cast<std::size_t>(node)).on_rx = std::move(on_rx);
  }

  void start() {
    sim_.schedule_in(
        core::transmission_time(config_.beacon_bits, config_.bitrate),
        [this] { run_cycle_step(); });
  }

  void send(int node, EthFrame frame) {
    nodes_.at(static_cast<std::size_t>(node))
        .queue.push_back(Pending{std::move(frame), sim_.now()});
  }

  double bus_load() const {
    if (sim_.now() <= 0) return 0.0;
    return static_cast<double>(busy_time_) / static_cast<double>(sim_.now());
  }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  const core::Samples& access_latency() const { return access_latency_; }

 private:
  struct Pending {
    EthFrame frame;
    core::SimTime enqueued_at;
  };
  struct Node {
    std::string name;
    RxCallback on_rx;
    std::vector<Pending> queue;
  };

  void run_cycle_step() {
    Node& holder = nodes_[current_];
    core::SimTime hold_time;

    if (!holder.queue.empty()) {
      Pending p = std::move(holder.queue.front());
      holder.queue.erase(holder.queue.begin());

      const core::SimTime duration =
          core::transmission_time(p.frame.wire_bits(), config_.bitrate);
      hold_time = duration;
      busy_time_ += duration;
      access_latency_.add(core::to_microseconds(sim_.now() - p.enqueued_at));
      ++frames_delivered_;

      const int src = static_cast<int>(current_);
      const EthFrame frame = std::move(p.frame);
      sim_.schedule_in(duration, [this, src, frame] {
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          if (static_cast<int>(i) == src) continue;
          if (nodes_[i].on_rx) nodes_[i].on_rx(src, frame, sim_.now());
        }
      });
    } else {
      // Yield the transmit opportunity after the TO window.
      hold_time =
          core::transmission_time(config_.to_timer_bits, config_.bitrate);
    }

    current_ = (current_ + 1) % nodes_.size();
    core::SimTime next = hold_time;
    if (current_ == 0) {
      next += core::transmission_time(config_.beacon_bits, config_.bitrate);
    }
    sim_.schedule_in(next, [this] { run_cycle_step(); });
  }

  core::Scheduler& sim_;
  T1sConfig config_;
  std::vector<Node> nodes_;
  std::size_t current_ = 0;  // node holding the transmit opportunity
  core::SimTime busy_time_ = 0;
  std::uint64_t frames_delivered_ = 0;
  core::Samples access_latency_;
};

}  // namespace avsec::netsim::reference
