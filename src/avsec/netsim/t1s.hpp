// 10BASE-T1S (IEEE 802.3cg) multidrop segment with PLCA.
//
// PLCA (PHY-Level Collision Avoidance) grants transmit opportunities (TO)
// round-robin by node ID, anchored by a beacon from the coordinator
// (node 0). A node that has nothing queued yields its TO after
// `to_timer` bit times; a node with a pending frame transmits immediately
// at its TO. This model captures the two properties the IVN scenarios
// depend on: deterministic bounded access latency and zero collisions.
//
// The bus does not step through idle TOs. It keeps the node whose TO is
// next and when that TO starts; with every TO idle, node k's TOs then
// follow in closed form, one idle round R = N·TO + beacon apart. It
// schedules at most one wake event, at the earliest TO of a node with a
// queued frame, and none at all while every queue is empty. Each
// delivered frame costs two dispatches (its TO and its delivery), and an
// idle bus costs none.
//
// At most one frame is on the wire, so the bus holds it in place of the
// end-of-frame event: that event captures only the bus, and a frame moved
// into send() reaches the receivers without a copy or an allocation once
// the queues have grown.
//
// Timing rule: a frame queued at the exact instant its node's TO starts
// goes in that TO, whatever the scheduling order of the two events. A
// frame queued later waits for the node's next TO, a round on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/core/stats.hpp"
#include "avsec/netsim/ethernet.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::netsim {

struct T1sConfig {
  std::string name = "t1s0";
  std::int64_t bitrate = 10'000'000;  // 10 Mbit/s
  std::int64_t to_timer_bits = 32;    // TO yield window, in bit times
  std::int64_t beacon_bits = 20;      // beacon duration per cycle
};

/// Multidrop 10BASE-T1S segment carrying Ethernet frames with PLCA access.
class T1sBus {
 public:
  using RxCallback =
      std::function<void(int src_node, const EthFrame&, core::SimTime)>;

  /// Throws std::invalid_argument unless bitrate > 0 (a bit time of at
  /// least 1 ps), to_timer_bits > 0 and beacon_bits >= 0.
  T1sBus(core::Scheduler& sim, T1sConfig config);

  /// Attaches a node (PLCA ID = attach order); returns the node id.
  /// Throws std::logic_error after start(): the round length depends on
  /// the node count.
  int attach(std::string name, RxCallback on_rx);

  /// Installs/replaces the receive callback of an attached node.
  void set_rx(int node, RxCallback on_rx);

  /// Starts the PLCA beacon cycle; call once after attaching all nodes
  /// (std::logic_error otherwise). Node 0's first TO starts one beacon
  /// after now().
  void start();

  /// Queues a frame from `node`; throws std::out_of_range for an unknown
  /// node. Frames queued before start() go from the first round on.
  void send(int node, EthFrame frame);

  double bus_load() const;
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  const core::Samples& access_latency() const { return access_latency_; }
  const std::string& name() const { return config_.name; }

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

  /// Start of `node`'s first TO at or after `t`, every TO from the
  /// current one on being idle.
  core::SimTime next_to(std::size_t node, core::SimTime t) const;
  /// Sets the wake for `node`'s TO at `at` unless one is set no later.
  void arm(std::size_t node, core::SimTime at);
  /// Arms the first node at or after the current holder with a frame.
  void arm_first_queued();
  /// Wake body: `node`, whose TO starts now, puts its head-of-line frame
  /// on the wire.
  void transmit(std::size_t node);
  /// End-of-frame body: hands the frame on the wire to every other node.
  void deliver();

  core::Scheduler& sim_;
  T1sConfig config_;
  const core::SimTime to_time_;      // idle TO: to_timer_bits bit times
  const core::SimTime beacon_time_;  // beacon before each of node 0's TOs
  obs::TrackId obs_track_ = 0;       // one virtual trace track per segment
  std::vector<Node> nodes_;
  bool started_ = false;
  std::size_t holder_ = 0;      // node whose TO is next...
  core::SimTime to_start_ = 0;  // ...and when it starts
  bool armed_ = false;          // wake_ is pending, at wake_at_
  core::SimTime wake_at_ = 0;
  core::EventHandle wake_;
  // One frame on the wire: PLCA is half-duplex and the next TO starts at
  // or after the current frame's end. The delivery event is scheduled
  // before any wake for that TO, so at an equal instant it dispatches
  // first (lower id) and the slot is free again when the next TO sends.
  EthFrame in_flight_;
  int in_flight_src_ = -1;  // its source node; -1 between frames
  core::SimTime busy_time_ = 0;
  std::uint64_t frames_delivered_ = 0;
  core::Samples access_latency_;
};

}  // namespace avsec::netsim
