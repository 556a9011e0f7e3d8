// CAN 2.0B / CAN FD / CAN XL frames and a bitwise-arbitration bus model.
//
// Timing model: frames occupy the bus for a duration computed from the
// frame's bit layout (including a worst-case stuff-bit estimate for the
// phases that use bit stuffing). Arbitration is ideal CSMA/CR: when the bus
// goes idle, the pending frame with the lowest arbitration ID wins; ties
// between nodes are broken by node index (deterministic).
//
// Error confinement follows ISO 11898-1: every node carries a transmit
// error counter (TEC, +8 per transmit error, -1 per success) and a receive
// error counter (REC, +1 per observed error frame, -1 per good frame).
// Counters drive the error-active -> error-passive -> bus-off state
// machine; error-passive transmitters pay a suspend-transmission penalty
// before re-entering arbitration, and bus-off nodes rejoin only after the
// 128 x 11 recessive-bit recovery interval (modeled as idle time at the
// nominal bitrate). A failed transmission emits an error frame that
// occupies the bus, so persistent faults are visible in the bus load.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "avsec/core/bytes.hpp"
#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/core/stats.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::netsim {

using core::Bytes;
using core::SimTime;

/// Which CAN generation a frame is encoded as.
enum class CanProtocol : std::uint8_t { kClassic, kFd, kXl };

/// Maximum payload per protocol generation.
std::size_t can_max_payload(CanProtocol p);

/// A CAN frame (any generation). For CAN XL, `sdu_type` and `vcid` carry the
/// XL header fields used by CANsec and the CAN Adaptation Layer.
struct CanFrame {
  std::uint32_t id = 0;  // 11-bit arbitration / priority ID
  CanProtocol protocol = CanProtocol::kClassic;
  Bytes payload;
  // CAN XL header fields (ignored for classic/FD):
  std::uint8_t sdu_type = 0x01;  // CiA 611-1 SDU type
  std::uint8_t vcid = 0;         // virtual CAN network id
  std::uint32_t acceptance = 0;  // acceptance field (32-bit)

  /// Total on-wire bit count including overhead and a worst-case stuffing
  /// estimate; split into (arbitration-rate bits, data-rate bits).
  struct BitBudget {
    std::int64_t nominal_bits = 0;
    std::int64_t data_bits = 0;  // transmitted at the data-phase bitrate
  };
  BitBudget bit_budget() const;
};

/// Validates payload size against the protocol's limit.
bool can_frame_valid(const CanFrame& f);

/// ISO 11898 fault-confinement state of a node.
enum class CanErrorState : std::uint8_t {
  kErrorActive,   // normal operation
  kErrorPassive,  // TEC or REC >= 128: penalized before retransmitting
  kBusOff,        // TEC >= 256: disconnected until the recovery interval
};

struct CanBusConfig {
  std::string name = "can0";
  std::int64_t nominal_bitrate = 500'000;  // arbitration phase
  std::int64_t data_bitrate = 2'000'000;   // FD/XL data phase
  /// Per-bit probability of a channel error. A hit frame is rejected by all
  /// receivers (CRC failure), an error frame follows, and the transmitter
  /// re-arbitrates — with full TEC/REC accounting, so a persistently faulty
  /// bus drives the transmitter to bus-off instead of retrying forever.
  double bit_error_rate = 0.0;
  std::uint64_t error_seed = 1;
  /// TEC/REC threshold for the error-passive transition.
  int error_passive_threshold = 128;
  /// TEC threshold for bus-off.
  int bus_off_threshold = 256;
  /// Whether a bus-off node automatically rejoins after the recovery
  /// interval (TEC/REC reset to 0, as after a controller restart).
  bool auto_bus_off_recovery = true;
  /// Bus-off recovery interval; 0 derives the ISO 11898 value of
  /// 128 x 11 bit times at the nominal bitrate.
  SimTime bus_off_recovery_time = 0;
  /// Suspend-transmission penalty paid by an error-passive node after a
  /// transmit error before it may re-enter arbitration; 0 derives the
  /// ISO 11898 value of 8 bit times.
  SimTime suspend_transmission_time = 0;
  /// On-wire size of an error frame (flag + echo + delimiter + IFS).
  std::int64_t error_frame_bits = 20;
};

/// Shared CAN bus. Nodes attach with a receive callback; send() enqueues.
class CanBus {
 public:
  using RxCallback =
      std::function<void(int src_node, const CanFrame&, SimTime now)>;

  CanBus(core::Scheduler& sim, CanBusConfig config);

  /// Attaches a node; returns its node index.
  int attach(std::string name, RxCallback on_rx);

  /// Installs/replaces the receive callback of an attached node.
  void set_rx(int node, RxCallback on_rx);

  /// Queues a frame for transmission from `node`. Throws on invalid frame.
  /// Frames sent while the node is bus-off or powered down are dropped
  /// (counted in frames_dropped()).
  void send(int node, CanFrame frame);

  /// Frame transmission duration on the wire.
  SimTime frame_duration(const CanFrame& f) const;

  /// Targeted error injection: the next `count` frames transmitted by
  /// `node` are corrupted on the wire (the mechanism of a bus-off attack:
  /// an attacker overwrites a victim's recessive bits with dominant ones,
  /// forcing transmit errors that drive the victim's TEC to bus-off).
  void inject_errors_on(int node, int count);

  /// Powers a node down (fault: ECU crash) or back up (restart). A crashed
  /// node drops its queue, neither transmits nor receives, and any pending
  /// bus-off recovery is cancelled; restart resets the error counters.
  void set_node_down(int node, bool down);
  bool is_down(int node) const;

  /// Transmit error counter of a node (fault confinement).
  int tec(int node) const;
  /// Receive error counter of a node.
  int rec(int node) const;
  /// Fault-confinement state derived from TEC/REC.
  CanErrorState error_state(int node) const;
  /// True while the node is bus-off (not yet recovered).
  bool is_bus_off(int node) const;

  // --- statistics ---
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_retransmitted() const { return frames_retransmitted_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t error_frames() const { return error_frames_; }
  std::uint64_t bus_off_events() const { return bus_off_events_; }
  std::uint64_t bus_off_recoveries() const { return bus_off_recoveries_; }
  /// Bus load in [0,1] measured against elapsed sim time.
  double bus_load() const;
  const core::Samples& arbitration_wait() const { return arbitration_wait_; }
  const std::string& name() const { return config_.name; }
  std::size_t queue_depth(int node) const;
  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Pending {
    CanFrame frame;
    SimTime enqueued_at = 0;
    int attempts = 0;
  };
  struct Node {
    std::string name;
    RxCallback on_rx;
    std::vector<Pending> queue;  // FIFO per node
    int tec = 0;                 // transmit error counter
    int rec = 0;                 // receive error counter
    bool bus_off = false;
    bool down = false;           // crashed / powered off
    SimTime ready_at = 0;        // suspend-transmission gate
    int forced_errors = 0;       // injected by inject_errors_on()
    core::EventHandle recovery{};  // pending bus-off recovery event
  };

  SimTime bus_off_recovery_interval() const;
  SimTime suspend_interval() const;
  SimTime error_frame_duration() const;
  void enter_bus_off(Node& node, int index);
  void recover_from_bus_off(int index);
  void try_start_transmission();
  void finish_transmission(int node);

  core::Scheduler& sim_;
  CanBusConfig config_;
  obs::TrackId obs_track_ = 0;  // one virtual trace track per bus
  std::vector<Node> nodes_;
  bool busy_ = false;
  core::Rng error_rng_;
  bool kick_pending_ = false;
  SimTime kick_time_ = 0;
  core::EventHandle kick_handle_;

  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_retransmitted_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t error_frames_ = 0;
  std::uint64_t bus_off_events_ = 0;
  std::uint64_t bus_off_recoveries_ = 0;
  SimTime busy_time_ = 0;
  core::Samples arbitration_wait_;
};

}  // namespace avsec::netsim
