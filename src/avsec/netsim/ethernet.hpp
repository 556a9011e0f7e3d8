// Switched automotive Ethernet: frames, full-duplex point-to-point links,
// and a store-and-forward learning switch.
//
// Automotive Ethernet (100BASE-T1 / 1000BASE-T1) differs from office
// Ethernet at the PHY (single twisted pair) but keeps the 802.3 framing;
// the model therefore parameterizes only rate and propagation delay.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "avsec/core/bytes.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/core/stats.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::netsim {

using core::Bytes;
using core::SimTime;

using MacAddress = std::array<std::uint8_t, 6>;

MacAddress mac_from_index(std::uint16_t idx);
bool is_broadcast(const MacAddress& mac);

inline constexpr std::uint16_t kEtherTypeIPv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeMacsec = 0x88E5;
inline constexpr std::uint16_t kEtherTypeEapol = 0x888E;
inline constexpr std::uint16_t kEtherTypeCanal = 0x9A01;  // experimental

struct EthFrame {
  MacAddress dst{};
  MacAddress src{};
  std::uint16_t ethertype = kEtherTypeIPv4;
  Bytes payload;

  /// On-wire bits including preamble/SFD (8B), header (14B), FCS (4B),
  /// minimum-size padding, and inter-frame gap (12B).
  std::int64_t wire_bits() const;
  /// Payload bytes after minimum-frame padding (64B frame minimum).
  std::size_t padded_payload_size() const;
};

/// Anything that can terminate a link: a host NIC or a switch port.
class EthSink {
 public:
  virtual ~EthSink() = default;
  virtual void on_frame(const EthFrame& frame, SimTime now) = 0;
};

/// Full-duplex point-to-point link between two sinks. Each direction has
/// its own serialization queue (FIFO).
class EthLink {
 public:
  EthLink(core::Scheduler& sim, std::int64_t bitrate, SimTime propagation);

  void connect(EthSink* a, EthSink* b);

  /// Sends from endpoint `from` (must be one of the connected sinks).
  void send(const EthSink* from, EthFrame frame);

  std::int64_t bitrate() const { return bitrate_; }

 private:
  struct Direction {
    EthSink* to = nullptr;
    const EthSink* from = nullptr;
    SimTime ready_at = 0;  // when the serializer is free
  };
  Direction* direction_from(const EthSink* from);

  core::Scheduler& sim_;
  std::int64_t bitrate_;
  SimTime propagation_;
  std::array<Direction, 2> dirs_{};
};

/// A host network interface bound to one link end.
class EthNic : public EthSink {
 public:
  using RxCallback = std::function<void(const EthFrame&, SimTime)>;

  EthNic(std::string name, MacAddress mac);

  void attach_link(EthLink* link) { link_ = link; }
  void set_rx(RxCallback cb) { on_rx_ = std::move(cb); }

  void send(EthFrame frame);
  void on_frame(const EthFrame& frame, SimTime now) override;

  const MacAddress& mac() const { return mac_; }
  const std::string& name() const { return name_; }
  std::uint64_t rx_frames() const { return rx_frames_; }

 private:
  std::string name_;
  MacAddress mac_;
  EthLink* link_ = nullptr;
  RxCallback on_rx_;
  std::uint64_t rx_frames_ = 0;
};

/// Store-and-forward learning switch with unbounded output queues.
class EthSwitch {
 public:
  EthSwitch(core::Scheduler& sim, std::string name,
            SimTime forwarding_latency = core::microseconds(3));

  /// Creates a port and returns its sink to wire into an EthLink.
  EthSink* add_port(EthLink* link);

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t flooded() const { return flooded_; }
  const std::string& name() const { return name_; }

 private:
  class Port : public EthSink {
   public:
    Port(EthSwitch* parent, int index, EthLink* link)
        : parent_(parent), index_(index), link_(link) {}
    void on_frame(const EthFrame& frame, SimTime now) override;
    EthLink* link() const { return link_; }

   private:
    friend class EthSwitch;
    EthSwitch* parent_;
    int index_;
    EthLink* link_;
  };

  void handle(int in_port, const EthFrame& frame);
  void emit(int out_port, const EthFrame& frame);

  core::Scheduler& sim_;
  std::string name_;
  SimTime forwarding_latency_;
  obs::TrackId obs_track_ = 0;  // one virtual trace track per switch
  std::vector<std::unique_ptr<Port>> ports_;
  std::map<MacAddress, int> fdb_;  // MAC -> port
  std::uint64_t forwarded_ = 0;
  std::uint64_t flooded_ = 0;
};

}  // namespace avsec::netsim
