// The publication path of one replica: producer -> fault surface ->
// voter + heartbeat monitor.
//
// Fault adapters (fault::ReplicaFault) mutate the port instead of the
// producer, so scenario code runs identical clean and faulted: a
// kByzantineValue fault biases every value the replica publishes while its
// heartbeat keeps beating (a *lying* replica), a kReplicaMute fault
// suppresses both (a *dead* one). The voter masks the first, the watchdog
// catches the second.
#pragma once

#include <cstdint>
#include <string>

#include "avsec/health/heartbeat.hpp"
#include "avsec/health/voting.hpp"

namespace avsec::health {

class ReplicaPort {
 public:
  ReplicaPort(std::string name, int replica)
      : name_(std::move(name)), replica_(replica) {}

  void connect_voter(RedundancyVoter* voter) { voter_ = voter; }
  void connect_monitor(HeartbeatMonitor* monitor) { monitor_ = monitor; }

  /// Publishes one sample at `now`: applies the fault surface, feeds the
  /// voter, and kicks the heartbeat.
  void publish(double value, core::SimTime now);

  // --- fault surface (driven by fault::ReplicaFault) ---
  void set_value_bias(double bias) { bias_ = bias; }
  void set_muted(bool muted) { muted_ = muted; }
  double value_bias() const { return bias_; }
  bool muted() const { return muted_; }

  const std::string& name() const { return name_; }
  int replica() const { return replica_; }
  std::uint64_t suppressed() const { return suppressed_; }

 private:
  std::string name_;
  int replica_;
  RedundancyVoter* voter_ = nullptr;
  HeartbeatMonitor* monitor_ = nullptr;
  double bias_ = 0.0;
  bool muted_ = false;
  std::uint64_t suppressed_ = 0;
};

}  // namespace avsec::health
