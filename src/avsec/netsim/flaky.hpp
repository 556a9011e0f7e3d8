// A bidirectional point-to-point datagram channel with controllable
// impairments: drop, corruption, added delay, and full partition.
//
// This is the substrate the fault-injection framework manipulates for
// link-level faults (avsec::fault), and the transport the robust secproto
// session (avsec::secproto::RobustTlsSession) retransmits over. It models
// a telematics / diagnostics / V2X-style message link rather than a
// specific PHY: messages are whole datagrams, delivery is FIFO per
// direction, and all randomness is drawn from a seeded core::Rng so runs
// are reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "avsec/core/bytes.hpp"
#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"

namespace avsec::netsim {

struct FlakyChannelConfig {
  std::string name = "link0";
  core::SimTime latency = core::microseconds(200);
  double drop_rate = 0.0;     // per-datagram loss probability
  double corrupt_rate = 0.0;  // per-datagram corruption probability
  core::SimTime extra_delay = 0;  // added to latency (fault: congestion)
  std::uint64_t seed = 1;
};

/// Two endpoints, A and B. Each side binds a receive callback and sends
/// with its endpoint id; impairments apply per direction-crossing.
class FlakyChannel {
 public:
  enum class End : std::uint8_t { kA, kB };
  using Rx = std::function<void(const core::Bytes&, core::SimTime now)>;

  FlakyChannel(core::Scheduler& sim, FlakyChannelConfig config);

  void bind(End end, Rx on_rx);
  void send(End from, core::Bytes datagram);

  // Fault controls (used by avsec::fault link adapters).
  void set_drop_rate(double p) { config_.drop_rate = p; }
  void set_corrupt_rate(double p) { config_.corrupt_rate = p; }
  void set_extra_delay(core::SimTime d) { config_.extra_delay = d; }
  /// A partitioned channel silently drops everything in both directions.
  void set_partitioned(bool on) { partitioned_ = on; }

  double drop_rate() const { return config_.drop_rate; }
  core::SimTime total_latency() const {
    return config_.latency + config_.extra_delay;
  }

  // --- statistics ---
  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  const std::string& name() const { return config_.name; }

 private:
  core::Scheduler& sim_;
  FlakyChannelConfig config_;
  bool partitioned_ = false;
  core::Rng rng_;
  Rx rx_a_, rx_b_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace avsec::netsim
