// The 2oo3 replica world: the executable form of the resilience claim
// (DESIGN.md "Chaos campaigns"). Three replicas publish one ground-truth
// signal behind a 2oo3 RedundancyVoter; a HeartbeatMonitor watches their
// heartbeats, the SafetySupervisor walks the NOMINAL -> DEGRADED ->
// LIMP_HOME -> SAFE_STOP ladder through a DegradationManager, and the
// voter reports suspects to an AlertCorrelator. A FaultInjector drives
// ReplicaFaults (lying or mute replicas) from a FaultPlan.
//
// One world serves the health chaos example, its acceptance test and the
// campaign-engine bench:
//
//   ReplicaWorld w(ctx.sim(), seed);
//   return w.run(w.chaos_plan());
//
// The world lives in fault/ rather than health/ because it needs the
// injector and the replica adapter; health cannot depend on fault.
#pragma once

#include <cstdint>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/fault/resilience.hpp"
#include "avsec/health/heartbeat.hpp"
#include "avsec/health/replica.hpp"
#include "avsec/health/supervisor.hpp"
#include "avsec/health/voting.hpp"
#include "avsec/ids/correlation.hpp"
#include "avsec/ids/response.hpp"

namespace avsec::fault {

class ReplicaWorld {
 public:
  /// Builds the world on `sim` and starts the monitor and supervisor
  /// ticks. `seed` seeds the stream chaos_plan() and the replicas' sensor
  /// noise draw from.
  ReplicaWorld(core::Scheduler& sim, std::uint64_t seed);

  ReplicaWorld(const ReplicaWorld&) = delete;
  ReplicaWorld& operator=(const ReplicaWorld&) = delete;

  /// Four sequential single-replica windows, one every 350 ms from
  /// 100 ms: each picks a replica, lies (bias 5..50) or goes mute, for
  /// 50..250 ms. Windows never overlap: 2oo3 masking is claimed for one
  /// faulty replica at a time.
  FaultPlan chaos_plan();

  /// Runs the world once for 2 s under `plan`: publishes and votes every
  /// 10 ms, chains the ambient campaign guard onto the scheduler
  /// (fault::supervise) and returns max_fused_err, quorum_losses,
  /// nominal_at_end, safe_stop, recoveries, escalations, faults_applied
  /// and suspect_incidents. Call it once per world.
  Metrics run(const FaultPlan& plan);

  const health::SafetySupervisor& supervisor() const { return supervisor_; }
  const ids::AlertCorrelator& correlator() const { return correlator_; }

 private:
  // Construction order is registration order: trace tracks and scheduler
  // event ids depend on it.
  core::Scheduler& sim_;
  core::Rng rng_;
  health::RedundancyVoter voter_;
  ids::AlertCorrelator correlator_;
  health::HeartbeatMonitor monitor_;
  ids::DegradationManager dm_;
  health::SafetySupervisor supervisor_;
  std::vector<health::ReplicaPort> ports_;
  std::vector<ReplicaFault> targets_;
  FaultInjector injector_;
};

}  // namespace avsec::fault
