// Builder for the paper's Fig. 3 zonal in-vehicle network:
//
//   Central Computing (CC) host -- switch -- ETH -- Zonal Controller 1
//                                         \- ETH -- Zonal Controller 2
//   ZC1: CAN (FD) bus with N endpoint ECUs
//   ZC2: 10BASE-T1S multidrop segment with M endpoint ECUs
//
// The topology owns all simulation objects; gateway logic (forwarding and
// security protocol processing) is layered on top by avsec::secproto.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "avsec/netsim/can.hpp"
#include "avsec/netsim/ethernet.hpp"
#include "avsec/netsim/t1s.hpp"

namespace avsec::netsim {

struct ZonalTopologyConfig {
  int can_endpoints = 3;
  int t1s_endpoints = 3;
  std::int64_t backbone_bitrate = 1'000'000'000;  // 1000BASE-T1
  core::SimTime backbone_propagation = core::nanoseconds(50);
  CanBusConfig can;      // zone 1 bus parameters
  T1sConfig t1s;         // zone 2 segment parameters
  bool can_use_fd = true;
};

/// Instantiated Fig. 3 network. All raw pointers remain owned by this
/// object and are valid for its lifetime.
class ZonalTopology {
 public:
  ZonalTopology(core::Scheduler& sim, const ZonalTopologyConfig& config);

  core::Scheduler& sim() { return *sim_; }

  // Backbone.
  EthNic& cc_nic() { return *cc_nic_; }
  EthNic& zc1_nic() { return *zc1_nic_; }
  EthNic& zc2_nic() { return *zc2_nic_; }

  // Zone 1: CAN.
  CanBus& can_bus() { return *can_bus_; }
  /// Node index of the zonal controller on the CAN bus.
  int zc1_can_node() const { return zc1_can_node_; }
  /// Node index of endpoint `i` (0-based) on the CAN bus.
  int can_endpoint_node(int i) const { return can_endpoint_nodes_.at(i); }
  int can_endpoint_count() const {
    return static_cast<int>(can_endpoint_nodes_.size());
  }

  // Zone 2: 10BASE-T1S.
  T1sBus& t1s_bus() { return *t1s_bus_; }
  int zc2_t1s_node() const { return zc2_t1s_node_; }
  int t1s_endpoint_node(int i) const { return t1s_endpoint_nodes_.at(i); }
  int t1s_endpoint_count() const {
    return static_cast<int>(t1s_endpoint_nodes_.size());
  }

  /// MACs for convenience when composing frames.
  const MacAddress& cc_mac() const;
  const MacAddress& zc1_mac() const;
  const MacAddress& zc2_mac() const;

 private:
  core::Scheduler* sim_;
  std::unique_ptr<EthSwitch> switch_;
  std::vector<std::unique_ptr<EthLink>> links_;
  std::unique_ptr<EthNic> cc_nic_, zc1_nic_, zc2_nic_;
  std::unique_ptr<CanBus> can_bus_;
  std::unique_ptr<T1sBus> t1s_bus_;
  int zc1_can_node_ = -1;
  int zc2_t1s_node_ = -1;
  std::vector<int> can_endpoint_nodes_;
  std::vector<int> t1s_endpoint_nodes_;
};

}  // namespace avsec::netsim
