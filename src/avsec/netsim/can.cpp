#include "avsec/netsim/can.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace avsec::netsim {

std::size_t can_max_payload(CanProtocol p) {
  switch (p) {
    case CanProtocol::kClassic:
      return 8;
    case CanProtocol::kFd:
      return 64;
    case CanProtocol::kXl:
      return 2048;
  }
  return 0;
}

bool can_frame_valid(const CanFrame& f) {
  if (f.id > 0x7FF) return false;
  if (f.payload.size() > can_max_payload(f.protocol)) return false;
  if (f.protocol == CanProtocol::kFd) {
    // FD DLC encodes only certain sizes; callers may send any size <= 64,
    // the codec pads to the next DLC step.
    return true;
  }
  if (f.protocol == CanProtocol::kXl && f.payload.empty()) return false;
  return true;
}

namespace {

/// Next valid CAN FD payload length for a requested size.
std::size_t fd_padded_size(std::size_t n) {
  static constexpr std::size_t kSteps[] = {0, 1, 2,  3,  4,  5,  6,  7,
                                           8, 12, 16, 20, 24, 32, 48, 64};
  for (std::size_t s : kSteps) {
    if (n <= s) return s;
  }
  return 64;
}

}  // namespace

CanFrame::BitBudget CanFrame::bit_budget() const {
  BitBudget b;
  switch (protocol) {
    case CanProtocol::kClassic: {
      // SOF(1)+ID(11)+RTR(1)+IDE(1)+r0(1)+DLC(4)+DATA+CRC(15)+CRCdel(1)
      // +ACK(2)+EOF(7)+IFS(3); stuffing applies to the first 34+8n bits,
      // worst case one stuff bit per 4 payload bits after the first.
      const std::int64_t n = static_cast<std::int64_t>(payload.size());
      const std::int64_t stuffable = 34 + 8 * n;
      const std::int64_t stuff = (stuffable - 1) / 4;
      b.nominal_bits = 47 + 8 * n + stuff;
      break;
    }
    case CanProtocol::kFd: {
      // Arbitration phase (nominal rate): SOF+ID+bits up to BRS ~ 30 bits
      // incl. stuffing; data phase: DLC..CRC at data rate; tail (ACK..IFS)
      // back at nominal rate.
      const std::int64_t n =
          static_cast<std::int64_t>(fd_padded_size(payload.size()));
      const std::int64_t crc = n <= 16 ? 17 : 21;
      const std::int64_t data_stuffable = 8 * n + crc + 10;
      const std::int64_t stuff = data_stuffable / 4;  // worst case
      b.nominal_bits = 30 + 12;
      b.data_bits = 10 + 8 * n + crc + stuff + 4;  // DLC+ESI/BRS, fixed stuff
      break;
    }
    case CanProtocol::kXl: {
      // CAN XL: short arbitration at nominal rate, then an XL data phase:
      // 13-byte header (SDT, SEC, VCID, AF, DLC, PCRC...) + payload +
      // 32-bit frame CRC; XL uses fixed stuffing at a much lower density.
      const std::int64_t n = static_cast<std::int64_t>(payload.size());
      b.nominal_bits = 30 + 12;
      const std::int64_t body = 8 * (13 + n) + 32;
      b.data_bits = body + body / 10;  // fixed stuff bit every 10 bits
      break;
    }
  }
  return b;
}

CanBus::CanBus(core::Scheduler& sim, CanBusConfig config)
    : sim_(sim), config_(std::move(config)), error_rng_(config_.error_seed) {
  AVSEC_OBS_REGISTER_TRACK(obs_track_, config_.name);
}

int CanBus::attach(std::string name, RxCallback on_rx) {
  nodes_.push_back(Node{std::move(name), std::move(on_rx), {}});
  return static_cast<int>(nodes_.size()) - 1;
}

void CanBus::set_rx(int node, RxCallback on_rx) {
  nodes_.at(static_cast<std::size_t>(node)).on_rx = std::move(on_rx);
}

SimTime CanBus::frame_duration(const CanFrame& f) const {
  const auto b = f.bit_budget();
  return core::transmission_time(b.nominal_bits, config_.nominal_bitrate) +
         core::transmission_time(b.data_bits, config_.data_bitrate);
}

SimTime CanBus::bus_off_recovery_interval() const {
  if (config_.bus_off_recovery_time > 0) return config_.bus_off_recovery_time;
  return core::transmission_time(128 * 11, config_.nominal_bitrate);
}

SimTime CanBus::suspend_interval() const {
  if (config_.suspend_transmission_time > 0) {
    return config_.suspend_transmission_time;
  }
  return core::transmission_time(8, config_.nominal_bitrate);
}

SimTime CanBus::error_frame_duration() const {
  return core::transmission_time(config_.error_frame_bits,
                                 config_.nominal_bitrate);
}

void CanBus::send(int node, CanFrame frame) {
  assert(node >= 0 && node < static_cast<int>(nodes_.size()));
  if (!can_frame_valid(frame)) {
    throw std::invalid_argument("CanBus::send: invalid frame for protocol");
  }
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.bus_off || n.down) {
    ++frames_dropped_;
    AVSEC_TRACE_INSTANT(obs::Category::kCan, "tx-drop", obs_track_,
                        sim_.now(), frame.id, node, n.name);
    AVSEC_METRIC_INC("can.frames_dropped", 1);
    return;
  }
  n.queue.push_back(Pending{std::move(frame), sim_.now(), 0});
  if (!busy_) try_start_transmission();
}

std::size_t CanBus::queue_depth(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).queue.size();
}

void CanBus::inject_errors_on(int node, int count) {
  nodes_.at(static_cast<std::size_t>(node)).forced_errors += count;
}

void CanBus::set_node_down(int node, bool down) {
  Node& n = nodes_.at(static_cast<std::size_t>(node));
  if (n.down == down) return;
  n.down = down;
  n.queue.clear();
  if (down) {
    // A crashed controller forgets its recovery sequence: cancel it so a
    // restart starts from a clean error-active state.
    sim_.cancel(n.recovery);
    n.recovery = core::EventHandle{};
  } else {
    n.tec = 0;
    n.rec = 0;
    n.bus_off = false;
    n.ready_at = sim_.now();
    if (!busy_) try_start_transmission();
  }
}

bool CanBus::is_down(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).down;
}

int CanBus::tec(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).tec;
}

int CanBus::rec(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).rec;
}

CanErrorState CanBus::error_state(int node) const {
  const Node& n = nodes_.at(static_cast<std::size_t>(node));
  if (n.bus_off) return CanErrorState::kBusOff;
  if (n.tec >= config_.error_passive_threshold ||
      n.rec >= config_.error_passive_threshold) {
    return CanErrorState::kErrorPassive;
  }
  return CanErrorState::kErrorActive;
}

bool CanBus::is_bus_off(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).bus_off;
}

void CanBus::enter_bus_off(Node& node, int index) {
  node.bus_off = true;
  node.queue.clear();
  ++bus_off_events_;
  AVSEC_TRACE_INSTANT(obs::Category::kCan, "bus-off", obs_track_, sim_.now(),
                      index, node.tec, node.name);
  AVSEC_METRIC_INC("can.bus_off_events", 1);
  if (config_.auto_bus_off_recovery) {
    node.recovery = sim_.schedule_in(
        bus_off_recovery_interval(), [this, index] {
          recover_from_bus_off(index);
        });
  }
}

void CanBus::recover_from_bus_off(int index) {
  Node& node = nodes_[static_cast<std::size_t>(index)];
  if (!node.bus_off || node.down) return;
  node.bus_off = false;
  node.tec = 0;
  node.rec = 0;
  node.ready_at = sim_.now();
  node.recovery = core::EventHandle{};
  ++bus_off_recoveries_;
  AVSEC_TRACE_INSTANT(obs::Category::kCan, "bus-off-recovery", obs_track_,
                      sim_.now(), index, 0, node.name);
  AVSEC_METRIC_INC("can.bus_off_recoveries", 1);
  if (!busy_) try_start_transmission();
}

void CanBus::try_start_transmission() {
  if (busy_) return;
  // Ideal arbitration: lowest ID among heads of all eligible node queues
  // wins. Error-passive nodes whose suspend-transmission window has not
  // elapsed are not eligible yet.
  const SimTime now = sim_.now();
  int winner = -1;
  std::uint32_t best_id = 0;
  SimTime earliest_blocked = -1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.queue.empty() || n.bus_off || n.down) continue;
    if (n.ready_at > now) {
      if (earliest_blocked < 0 || n.ready_at < earliest_blocked) {
        earliest_blocked = n.ready_at;
      }
      continue;
    }
    const std::uint32_t id = n.queue.front().frame.id;
    if (winner < 0 || id < best_id) {
      winner = static_cast<int>(i);
      best_id = id;
    }
  }
  if (winner < 0) {
    // Nothing eligible now; if suspended traffic is waiting, kick the
    // arbitration again when the earliest node becomes ready.
    if (earliest_blocked >= 0 &&
        (!kick_pending_ || earliest_blocked < kick_time_)) {
      if (kick_pending_) sim_.cancel(kick_handle_);
      kick_pending_ = true;
      kick_time_ = earliest_blocked;
      kick_handle_ = sim_.schedule_at(earliest_blocked, [this] {
        kick_pending_ = false;
        try_start_transmission();
      });
    }
    return;
  }

  busy_ = true;
  Node& node = nodes_[static_cast<std::size_t>(winner)];
  Pending& p = node.queue.front();
  ++p.attempts;
  const SimTime duration = frame_duration(p.frame);
  busy_time_ += duration;
  AVSEC_TRACE_BEGIN(obs::Category::kCan, "frame", obs_track_, now,
                    static_cast<std::int64_t>(best_id), winner, node.name);
  AVSEC_METRIC_OBSERVE("can.arbitration_wait_us",
                       core::to_microseconds(sim_.now() - p.enqueued_at));
  arbitration_wait_.add(core::to_microseconds(sim_.now() - p.enqueued_at));
  sim_.schedule_in(duration, [this, winner] { finish_transmission(winner); });
}

void CanBus::finish_transmission(int node) {
  Node& sender = nodes_[static_cast<std::size_t>(node)];
  if (sender.down || sender.queue.empty()) {
    // The transmitter crashed mid-frame: the frame is aborted, the bus
    // simply goes idle.
    AVSEC_TRACE_END(obs::Category::kCan, "frame", obs_track_, sim_.now());
    AVSEC_TRACE_INSTANT(obs::Category::kCan, "tx-abort", obs_track_,
                        sim_.now(), node);
    busy_ = false;
    try_start_transmission();
    return;
  }

  // Bus-error model: with probability proportional to frame size — or
  // deterministically under targeted injection — all receivers reject
  // (CRC/bit error), an error frame follows, and the transmitter
  // re-arbitrates under TEC accounting.
  const Pending& p = sender.queue.front();
  const auto bits = p.frame.bit_budget();
  const double frame_error_prob =
      1.0 - std::pow(1.0 - config_.bit_error_rate,
                     static_cast<double>(bits.nominal_bits + bits.data_bits));
  bool errored = false;
  if (sender.forced_errors > 0) {
    --sender.forced_errors;
    errored = true;
  } else if (config_.bit_error_rate > 0.0 &&
             error_rng_.chance(frame_error_prob)) {
    errored = true;
  }
  if (errored) {
    ++error_frames_;
    const SimTime err_dur = error_frame_duration();
    busy_time_ += err_dur;
    sender.tec += 8;  // ISO 11898 transmit-error increment
    AVSEC_TRACE_END(obs::Category::kCan, "frame", obs_track_, sim_.now());
    AVSEC_TRACE_INSTANT(obs::Category::kCan, "error-frame", obs_track_,
                        sim_.now(), node, sender.tec, sender.name);
    AVSEC_METRIC_INC("can.error_frames", 1);
    // Every listening node observes the error frame.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (static_cast<int>(i) == node) continue;
      Node& rx = nodes_[i];
      if (!rx.down && !rx.bus_off) ++rx.rec;
    }
    if (sender.tec >= config_.bus_off_threshold) {
      enter_bus_off(sender, node);
    } else {
      ++frames_retransmitted_;
      if (sender.tec >= config_.error_passive_threshold) {
        // Error-passive transmitters must suspend before re-arbitrating.
        sender.ready_at = sim_.now() + err_dur + suspend_interval();
      }
    }
    // The error frame occupies the bus before the next arbitration; the
    // bus stays busy until it has been signaled.
    sim_.schedule_in(err_dur, [this] {
      busy_ = false;
      try_start_transmission();
    });
    return;
  }
  busy_ = false;
  if (sender.tec > 0) --sender.tec;

  const CanFrame frame = p.frame;  // copy before pop
  sender.queue.erase(sender.queue.begin());
  ++frames_delivered_;
  AVSEC_TRACE_END(obs::Category::kCan, "frame", obs_track_, sim_.now());
  AVSEC_METRIC_INC("can.frames_delivered", 1);

  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (static_cast<int>(i) == node) continue;
    Node& rx = nodes_[i];
    if (rx.down || rx.bus_off) continue;
    if (rx.rec > 0) --rx.rec;
    if (rx.on_rx) rx.on_rx(node, frame, now);
  }
  try_start_transmission();
}

double CanBus::bus_load() const {
  const SimTime elapsed = sim_.now();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

}  // namespace avsec::netsim
