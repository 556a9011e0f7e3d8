#include "avsec/serve/registry.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "avsec/core/scheduler.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/fault/resilience.hpp"
#include "avsec/health/heartbeat.hpp"
#include "avsec/netsim/can.hpp"
#include "avsec/netsim/flaky.hpp"
#include "avsec/secproto/session.hpp"

namespace avsec::serve {
namespace {

// Every builtin scales the same way: the smoke horizon is the full one
// cut to its first fraction, so a degraded run exercises the same world
// at lower cost and stays a pure function of (seed, scale).
core::SimTime horizon(Scale scale, core::SimTime full, core::SimTime smoke) {
  return scale == Scale::kFull ? full : smoke;
}

// CAN segment under randomized node faults: a sensor feed, a latent
// babbler, and a crash/babble schedule drawn from the seed. Trimmed from
// examples/fault_campaign.cpp to the serving-cost sweet spot.
fault::Metrics run_ivn_can(fault::SimContext& ctx, std::uint64_t seed,
                           Scale scale) {
  const core::SimTime end = horizon(scale, core::milliseconds(600),
                                    core::milliseconds(80));
  core::Scheduler& sim = ctx.sim();
  fault::supervise(sim);

  netsim::CanBus bus(sim, {});
  const int sensor = bus.attach("lidar-ecu", nullptr);
  const int babbler = bus.attach("infotainment-ecu", nullptr);

  std::uint64_t feed_frames = 0;
  core::SimTime last_feed = 0;
  core::SimTime worst_gap = 0;
  bus.attach("gateway", [&](int src, const netsim::CanFrame& f,
                            core::SimTime now) {
    if (src != sensor || f.id != 0x300) return;
    ++feed_frames;
    worst_gap = std::max(worst_gap, now - last_feed);
    last_feed = now;
  });

  netsim::CanFrame feed;
  feed.id = 0x300;
  feed.payload = core::Bytes(8, 0x3D);
  std::function<void()> tick = [&] {
    bus.send(sensor, feed);
    if (sim.now() < end) sim.schedule_in(core::milliseconds(10), tick);
  };
  sim.schedule_at(0, tick);

  fault::CanNodeFault sensor_fault(sim, bus, sensor, seed + 1);
  fault::CanNodeFault babbler_fault(sim, bus, babbler, seed + 2);
  fault::FaultInjector injector(sim);
  injector.add_target("lidar-ecu", &sensor_fault);
  injector.add_target("infotainment-ecu", &babbler_fault);

  fault::FaultPlan::RandomConfig rnd;
  rnd.start = core::milliseconds(20);
  rnd.end = end * 3 / 4;
  rnd.count = 3;
  rnd.min_duration = core::milliseconds(10);
  rnd.max_duration = end / 5;
  rnd.targets = {"lidar-ecu", "infotainment-ecu"};
  rnd.kinds = {fault::FaultKind::kNodeCrash, fault::FaultKind::kBabblingIdiot};
  injector.arm(fault::FaultPlan::random(rnd, seed));

  sim.run();

  fault::Metrics m;
  m["feed_frames"] = static_cast<double>(feed_frames);
  m["worst_feed_gap_ms"] = core::to_microseconds(worst_gap) / 1000.0;
  m["bus_off_events"] = static_cast<double>(bus.bus_off_events());
  m["error_frames"] = static_cast<double>(bus.error_frames());
  m["faults_applied"] = static_cast<double>(injector.applied());
  m["feed_up_at_end"] = bus.is_down(sensor) ? 0.0 : 1.0;
  return m;
}

// Robust TLS session over a partitioning link: handshakes and periodic
// rekeys keep protocol exchanges in flight while link faults land.
fault::Metrics run_secure_uplink(fault::SimContext& ctx, std::uint64_t seed,
                                 Scale scale) {
  const core::SimTime end = horizon(scale, core::milliseconds(900),
                                    core::milliseconds(150));
  core::Scheduler& sim = ctx.sim();
  fault::supervise(sim);

  netsim::FlakyChannel uplink(sim, {});
  const secproto::TlsCa ca(core::Bytes(32, 0x55));
  secproto::TlsResponder responder(sim, uplink, seed ^ 0x9E37, ca, "backend");
  secproto::RobustSessionConfig scfg;
  scfg.retry.max_retries = 3;
  scfg.reconnect_delay = core::milliseconds(30);
  scfg.max_reconnects = 0;  // keep trying for the whole scenario
  secproto::RobustTlsSession session(sim, uplink, seed ^ 0xC2B2,
                                     ca.public_key(), scfg);
  session.connect();

  std::function<void()> rekey_tick = [&] {
    session.rekey();
    if (sim.now() < end - core::milliseconds(100)) {
      sim.schedule_in(core::milliseconds(150), rekey_tick);
    }
  };
  if (end > core::milliseconds(250)) {
    sim.schedule_at(core::milliseconds(150), rekey_tick);
  }

  fault::ChannelFault uplink_fault(uplink);
  fault::FaultInjector injector(sim);
  injector.add_target("uplink", &uplink_fault);
  fault::FaultPlan::RandomConfig rnd;
  rnd.start = core::milliseconds(10);
  rnd.end = end * 2 / 3;
  rnd.count = 3;
  rnd.min_duration = core::milliseconds(10);
  rnd.max_duration = end / 6;
  rnd.targets = {"uplink"};
  rnd.kinds = {fault::FaultKind::kLinkPartition, fault::FaultKind::kLinkDrop};
  injector.arm(fault::FaultPlan::random(rnd, seed));

  sim.run();

  fault::Metrics m;
  m["session_up_at_end"] = session.established() ? 1.0 : 0.0;
  m["reconnects"] = static_cast<double>(session.reconnects());
  m["datagrams_sent"] = static_cast<double>(uplink.sent());
  m["datagrams_dropped"] = static_cast<double>(uplink.dropped());
  m["faults_applied"] = static_cast<double>(injector.applied());
  return m;
}

// Multi-source liveness tracking with a seed-derived outage window: one
// source goes silent mid-run and resumes, the monitor must declare it
// down and then recovered.
fault::Metrics run_heartbeat_net(fault::SimContext& ctx, std::uint64_t seed,
                                 Scale scale) {
  const core::SimTime end = horizon(scale, core::milliseconds(400),
                                    core::milliseconds(60));
  core::Scheduler& sim = ctx.sim();
  fault::supervise(sim);

  health::HeartbeatMonitor monitor(sim, {});
  const char* names[3] = {"brake-ecu", "steer-ecu", "lidar-ecu"};
  for (const char* n : names) monitor.register_source(n);

  // Outage window for one source, drawn from the seed: starts in the
  // first half, lasts a quarter of the horizon.
  core::Rng rng(seed);
  const int victim = static_cast<int>(rng.next() % 3);
  const core::SimTime outage_start =
      core::milliseconds(20) +
      static_cast<core::SimTime>(rng.next() % 100) * (end / 2) / 100;
  const core::SimTime outage_end = outage_start + end / 4;

  // The self-rescheduling closures must outlive sim.run() below.
  std::function<void()> beats[3];
  for (int i = 0; i < 3; ++i) {
    beats[i] = [&, i] {
      const core::SimTime now = sim.now();
      const bool silent =
          i == victim && now >= outage_start && now < outage_end;
      if (!silent) monitor.heartbeat(names[i]);
      if (now < end) sim.schedule_in(core::milliseconds(8), beats[i]);
    };
    sim.schedule_at(core::milliseconds(i), beats[i]);
  }
  monitor.start();
  sim.run_until(end);
  monitor.stop();
  sim.run();

  std::size_t misses = 0, downs = 0, recoveries = 0;
  for (const health::HeartbeatEvent& e : monitor.events()) {
    misses += e.kind == health::HeartbeatEventKind::kMiss;
    downs += e.kind == health::HeartbeatEventKind::kDown;
    recoveries += e.kind == health::HeartbeatEventKind::kRecovered;
  }
  fault::Metrics m;
  m["misses"] = static_cast<double>(misses);
  m["downs"] = static_cast<double>(downs);
  m["recoveries"] = static_cast<double>(recoveries);
  m["victim_alive_at_end"] =
      monitor.state(names[victim]) == health::SourceState::kAlive ? 1.0 : 0.0;
  return m;
}

// Diagnostic: fails every attempt, exercising the retry -> quarantine
// path end to end (the serving twin of a campaign poison seed).
fault::Metrics run_poison_crash(fault::SimContext& /*ctx*/, std::uint64_t seed,
                                Scale /*scale*/) {
  throw std::runtime_error("poisoned scenario (seed " + std::to_string(seed) +
                           "): deterministic crash");
}

// Diagnostic: pumps scheduler events until something stops it — under the
// server's RunGuard that is the sim-event budget (kBudgetExhausted);
// standalone, the 30 s sim horizon bounds it.
fault::Metrics run_busy_loop(fault::SimContext& ctx, std::uint64_t /*seed*/,
                             Scale /*scale*/) {
  core::Scheduler& sim = ctx.sim();
  fault::supervise(sim);
  std::function<void()> spin = [&] { sim.schedule_in(core::microseconds(1), spin); };
  sim.schedule_at(0, spin);
  sim.run_until(core::seconds(30));
  fault::Metrics m;
  m["events"] = static_cast<double>(sim.dispatched());
  return m;
}

}  // namespace

const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kFull: return "full";
    case Scale::kSmoke: return "smoke";
  }
  return "?";
}

ScenarioRegistry& ScenarioRegistry::add(Scenario s) {
  scenarios_[s.name] = std::move(s);
  return *this;
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, s] : scenarios_) out.push_back(name);
  return out;
}

ScenarioRegistry ScenarioRegistry::builtin() {
  ScenarioRegistry r;
  r.add({"ivn-can", "CAN segment under randomized node faults", run_ivn_can,
         /*cost_hint_ms_per_seed=*/2.0, /*default_max_events=*/5'000'000});
  r.add({"secure-uplink", "robust TLS session over a partitioning link",
         run_secure_uplink, 2.0, 5'000'000});
  r.add({"heartbeat-net", "multi-source liveness with an outage window",
         run_heartbeat_net, 1.0, 5'000'000});
  r.add({"poison-crash", "diagnostic: crashes every attempt",
         run_poison_crash, 0.1, 1'000'000});
  r.add({"busy-loop", "diagnostic: pumps events until the budget trips",
         run_busy_loop, 1.0, 2'000'000});
  return r;
}

}  // namespace avsec::serve
