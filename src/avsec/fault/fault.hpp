// Deterministic fault injection for the simulator (paper §VIII: autonomous
// systems must be "self-resilient and capable of proactive measures" —
// which is only testable if faults, not just attacks, are executable).
//
// A FaultPlan is a list of timed FaultEvents against named targets. The
// FaultInjector binds target names to adapters (a CAN node, a flaky link,
// a skewed clock) and arms the plan on the scheduler. Transient events
// (duration > 0) schedule their own recovery event; recovery handles are
// retained so a later fault — or plan cancellation — can cancel a pending
// recovery (e.g. a node that crashes again while its bus-off recovery
// timer is running).
//
// All randomness (random plan generation, babbling-idiot corruption) is
// drawn from seeded core::Rng streams, so a (plan, seed) pair replays
// bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/health/replica.hpp"
#include "avsec/netsim/can.hpp"
#include "avsec/obs/trace.hpp"
#include "avsec/netsim/flaky.hpp"

namespace avsec::fault {

enum class FaultKind : std::uint8_t {
  kNodeCrash,      // ECU powers off; duration > 0 auto-restarts
  kNodeRestart,    // explicit restart
  kBabblingIdiot,  // node floods top-priority (often malformed) frames
  kBabblingStop,
  kLinkDrop,       // magnitude = drop probability
  kLinkCorrupt,    // magnitude = corruption probability
  kLinkDelay,      // delta = added one-way delay
  kLinkPartition,  // both directions dead; duration > 0 auto-heals
  kLinkHeal,
  kClockSkew,        // magnitude = ppm drift, delta = step offset
  kByzantineValue,   // replica publishes biased values (magnitude = bias)
  kReplicaMute,      // replica publishes nothing: values and heartbeats stop
};

struct FaultEvent {
  core::SimTime at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  std::string target;
  /// Transient faults revert after `duration`; 0 = permanent (until an
  /// explicit reverse event such as kNodeRestart / kLinkHeal).
  core::SimTime duration = 0;
  double magnitude = 1.0;   // kind-specific intensity
  core::SimTime delta = 0;  // kind-specific time parameter
};

/// Something faults can be applied to. Adapters translate generic events
/// into concrete simulator mutations.
class FaultTarget {
 public:
  virtual ~FaultTarget() = default;
  /// Applies `ev`; returns false if the kind is unsupported by this target.
  virtual bool apply(const FaultEvent& ev) = 0;
  /// Undoes a transient `ev` (called at ev.at + ev.duration).
  virtual void revert(const FaultEvent& ev) = 0;
};

/// Adapter: faults against one node of a CanBus. Supports kNodeCrash,
/// kNodeRestart, kBabblingIdiot and kBabblingStop. The babbling idiot
/// keeps `queue_target` frames of priority `babble_id` enqueued and, with
/// probability `magnitude`, marks each as corrupted on the wire — so the
/// babbler both saturates arbitration and drives its own TEC toward
/// bus-off, exactly the failure mode ISO 11898 confinement exists for.
class CanNodeFault : public FaultTarget {
 public:
  CanNodeFault(core::Scheduler& sim, netsim::CanBus& bus, int node,
               std::uint64_t seed = 1);

  bool apply(const FaultEvent& ev) override;
  void revert(const FaultEvent& ev) override;

  bool babbling() const { return babbling_; }
  std::uint64_t babble_frames() const { return babble_frames_; }

  std::uint32_t babble_id = 0x000;  // wins every arbitration
  core::SimTime babble_period = core::microseconds(100);
  int queue_target = 2;

 private:
  void babble_tick();

  core::Scheduler& sim_;
  netsim::CanBus& bus_;
  int node_;
  core::Rng rng_;
  bool babbling_ = false;
  double corrupt_prob_ = 1.0;
  std::uint64_t babble_frames_ = 0;
};

/// Adapter: faults against a FlakyChannel. Supports kLinkDrop,
/// kLinkCorrupt, kLinkDelay, kLinkPartition and kLinkHeal; revert restores
/// the pre-fault impairment values.
class ChannelFault : public FaultTarget {
 public:
  explicit ChannelFault(netsim::FlakyChannel& channel);

  bool apply(const FaultEvent& ev) override;
  void revert(const FaultEvent& ev) override;

 private:
  netsim::FlakyChannel& channel_;
  double saved_drop_ = 0.0;
  double saved_corrupt_ = 0.0;
  core::SimTime saved_delay_ = 0;
};

/// A local clock derived from simulation time with injectable drift and
/// step offset — the clock-skew fault surface (freshness windows, timeout
/// computation). local_now() = origin + (now - origin) * (1 + ppm*1e-6)
/// + offset.
class SkewedClock {
 public:
  explicit SkewedClock(core::Scheduler& sim) : sim_(sim) {}

  core::SimTime local_now() const;
  void set_skew_ppm(double ppm);
  void set_offset(core::SimTime offset) { offset_ = offset; }

 private:
  core::Scheduler& sim_;
  core::SimTime origin_ = 0;  // rebased on each skew change
  core::SimTime base_local_ = 0;
  double ppm_ = 0.0;
  core::SimTime offset_ = 0;
};

/// Adapter: faults against one replica's publication path
/// (health::ReplicaPort). kByzantineValue biases every published value by
/// `magnitude` while the heartbeat keeps beating — a lying replica the
/// voter must mask; kReplicaMute silences values *and* heartbeats — a dead
/// replica the watchdog must catch. Both revert to the pre-fault surface.
class ReplicaFault : public FaultTarget {
 public:
  explicit ReplicaFault(health::ReplicaPort& port) : port_(port) {}

  bool apply(const FaultEvent& ev) override;
  void revert(const FaultEvent& ev) override;

 private:
  health::ReplicaPort& port_;
};

/// Adapter: kClockSkew against a SkewedClock.
class ClockFault : public FaultTarget {
 public:
  explicit ClockFault(SkewedClock& clock) : clock_(clock) {}

  bool apply(const FaultEvent& ev) override;
  void revert(const FaultEvent& ev) override;

 private:
  SkewedClock& clock_;
};

/// An ordered, deterministic schedule of fault events.
class FaultPlan {
 public:
  FaultPlan& add(FaultEvent ev);
  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Seeded random plan: `count` events over [start, end) drawn across
  /// `targets` x `kinds`, with durations in [min_duration, max_duration]
  /// and magnitudes in [magnitude_lo, magnitude_hi]. Identical seeds yield
  /// identical plans.
  struct RandomConfig {
    core::SimTime start = 0;
    core::SimTime end = core::seconds(1);
    std::size_t count = 4;
    std::vector<std::string> targets;
    std::vector<FaultKind> kinds;
    core::SimTime min_duration = core::milliseconds(10);
    core::SimTime max_duration = core::milliseconds(100);
    double magnitude_lo = 0.25;
    double magnitude_hi = 1.0;
  };
  static FaultPlan random(const RandomConfig& config, std::uint64_t seed);

 private:
  std::vector<FaultEvent> events_;
};

/// Structured record of every injection/revert the injector performed.
struct InjectionRecord {
  core::SimTime time = 0;
  FaultEvent event;
  bool reverted = false;  // true for the recovery half of a transient fault
  bool applied = false;   // false if the target rejected the event
};

/// Binds targets and arms plans on the scheduler.
class FaultInjector {
 public:
  explicit FaultInjector(core::Scheduler& sim) : sim_(sim) {
    AVSEC_OBS_REGISTER_TRACK(obs_track_, "fault-injector");
  }

  /// Registers a target (non-owning) under `name`.
  void add_target(const std::string& name, FaultTarget* target);

  /// Arms every event of `plan`. Unknown targets throw std::out_of_range.
  void arm(const FaultPlan& plan);

  /// Cancels all not-yet-fired fault and recovery events (e.g. scenario
  /// teardown mid-campaign). Returns how many were cancelled.
  std::size_t cancel_pending();

  std::size_t applied() const { return applied_; }
  std::size_t rejected() const { return rejected_; }
  const std::vector<InjectionRecord>& log() const { return log_; }

 private:
  void fire(const FaultEvent& ev);

  core::Scheduler& sim_;
  obs::TrackId obs_track_ = 0;  // virtual trace track for the injector
  std::map<std::string, FaultTarget*> targets_;
  std::vector<core::EventHandle> pending_;
  std::vector<InjectionRecord> log_;
  std::size_t applied_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace avsec::fault
