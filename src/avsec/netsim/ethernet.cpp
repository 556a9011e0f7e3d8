#include "avsec/netsim/ethernet.hpp"

#include <algorithm>
#include <cassert>

namespace avsec::netsim {

MacAddress mac_from_index(std::uint16_t idx) {
  // Locally administered unicast prefix 02:av:5e.
  return MacAddress{0x02, 0xA5, 0x5E, 0x00,
                    static_cast<std::uint8_t>(idx >> 8),
                    static_cast<std::uint8_t>(idx & 0xFF)};
}

bool is_broadcast(const MacAddress& mac) {
  return std::all_of(mac.begin(), mac.end(),
                     [](std::uint8_t b) { return b == 0xFF; });
}

std::size_t EthFrame::padded_payload_size() const {
  // Minimum Ethernet frame is 64B = 14B header + payload + 4B FCS.
  return std::max<std::size_t>(payload.size(), 46);
}

std::int64_t EthFrame::wire_bits() const {
  const std::size_t frame_bytes = 14 + padded_payload_size() + 4;
  const std::size_t preamble_and_ifg = 8 + 12;
  return static_cast<std::int64_t>(8 * (frame_bytes + preamble_and_ifg));
}

EthLink::EthLink(core::Scheduler& sim, std::int64_t bitrate,
                 SimTime propagation)
    : sim_(sim), bitrate_(bitrate), propagation_(propagation) {}

void EthLink::connect(EthSink* a, EthSink* b) {
  dirs_[0] = Direction{b, a, 0};
  dirs_[1] = Direction{a, b, 0};
}

EthLink::Direction* EthLink::direction_from(const EthSink* from) {
  for (auto& d : dirs_) {
    if (d.from == from) return &d;
  }
  return nullptr;
}

void EthLink::send(const EthSink* from, EthFrame frame) {
  Direction* d = direction_from(from);
  assert(d != nullptr && "sender is not connected to this link");
  const SimTime serialization =
      core::transmission_time(frame.wire_bits(), bitrate_);
  const SimTime start = std::max(sim_.now(), d->ready_at);
  d->ready_at = start + serialization;
  EthSink* to = d->to;
  sim_.schedule_at(d->ready_at + propagation_,
                   [to, f = std::move(frame), this] {
                     to->on_frame(f, sim_.now());
                   });
}

EthNic::EthNic(std::string name, MacAddress mac)
    : name_(std::move(name)), mac_(mac) {}

void EthNic::send(EthFrame frame) {
  assert(link_ != nullptr && "NIC not attached to a link");
  // Fill in the source only when unset: gateways forwarding foreign frames
  // (e.g. MACsec-protected ones whose src is bound into the ICV) must not
  // have their addressing rewritten.
  if (frame.src == MacAddress{}) frame.src = mac_;
  link_->send(this, std::move(frame));
}

void EthNic::on_frame(const EthFrame& frame, SimTime now) {
  // Accept unicast to us and broadcast; a real NIC can also run
  // promiscuous, which the IDS taps emulate at the switch instead.
  if (frame.dst != mac_ && !is_broadcast(frame.dst)) return;
  ++rx_frames_;
  if (on_rx_) on_rx_(frame, now);
}

EthSwitch::EthSwitch(core::Scheduler& sim, std::string name,
                     SimTime forwarding_latency)
    : sim_(sim), name_(std::move(name)),
      forwarding_latency_(forwarding_latency) {
  AVSEC_OBS_REGISTER_TRACK(obs_track_, name_);
}

EthSink* EthSwitch::add_port(EthLink* link) {
  ports_.push_back(
      std::make_unique<Port>(this, static_cast<int>(ports_.size()), link));
  return ports_.back().get();
}

void EthSwitch::Port::on_frame(const EthFrame& frame, SimTime) {
  parent_->handle(index_, frame);
}

void EthSwitch::handle(int in_port, const EthFrame& frame) {
  fdb_[frame.src] = in_port;
  const auto it = fdb_.find(frame.dst);
  if (!is_broadcast(frame.dst) && it != fdb_.end()) {
    if (it->second != in_port) {
      ++forwarded_;
      AVSEC_TRACE_INSTANT(obs::Category::kEthernet, "forward", obs_track_,
                          sim_.now(), in_port, it->second);
      AVSEC_METRIC_INC("eth.forwarded", 1);
      emit(it->second, frame);
    }
    return;
  }
  // Unknown destination or broadcast: flood all other ports.
  ++flooded_;
  AVSEC_TRACE_INSTANT(obs::Category::kEthernet, "flood", obs_track_,
                      sim_.now(), in_port, frame.ethertype);
  AVSEC_METRIC_INC("eth.flooded", 1);
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (static_cast<int>(i) != in_port) emit(static_cast<int>(i), frame);
  }
}

void EthSwitch::emit(int out_port, const EthFrame& frame) {
  Port* port = ports_[static_cast<std::size_t>(out_port)].get();
  sim_.schedule_in(forwarding_latency_, [port, frame, this] {
    port->link()->send(port, frame);
  });
}

}  // namespace avsec::netsim
