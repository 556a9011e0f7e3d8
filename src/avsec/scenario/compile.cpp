#include "avsec/scenario/compile.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "avsec/fault/fault.hpp"
#include "avsec/fault/resilience.hpp"
#include "avsec/health/heartbeat.hpp"
#include "avsec/netsim/can.hpp"
#include "avsec/netsim/ethernet.hpp"
#include "avsec/netsim/flaky.hpp"
#include "avsec/netsim/t1s.hpp"
#include "avsec/obs/trace.hpp"
#include "avsec/secproto/cansec.hpp"
#include "avsec/secproto/macsec.hpp"
#include "avsec/secproto/secoc.hpp"
#include "avsec/secproto/session.hpp"

namespace avsec::scenario {

std::string CompileError::to_string() const {
  return file + ":" + std::to_string(line) + ": " + message;
}

// --- the validity matrix -------------------------------------------------

const std::vector<Protocol>& valid_protocols(Topology t) {
  static const std::vector<Protocol> kCan = {Protocol::kNone, Protocol::kSecOc,
                                             Protocol::kCansec};
  static const std::vector<Protocol> kT1s = {Protocol::kNone,
                                             Protocol::kMacsec};
  static const std::vector<Protocol> kLink = {Protocol::kNone, Protocol::kTls};
  static const std::vector<Protocol> kHb = {Protocol::kNone};
  switch (t) {
    case Topology::kCan: return kCan;
    case Topology::kT1s: return kT1s;
    case Topology::kLink: return kLink;
    case Topology::kHeartbeat: return kHb;
  }
  return kHb;
}

const std::vector<AttackKind>& valid_attacks(Topology t) {
  static const std::vector<AttackKind> kCan = {
      AttackKind::kNodeCrash, AttackKind::kBabblingIdiot, AttackKind::kBusOff,
      AttackKind::kReplay,    AttackKind::kTamper,        AttackKind::kForge};
  static const std::vector<AttackKind> kT1s = {
      AttackKind::kReplay, AttackKind::kTamper, AttackKind::kForge,
      AttackKind::kMute};
  static const std::vector<AttackKind> kLink = {
      AttackKind::kLinkDrop, AttackKind::kLinkCorrupt, AttackKind::kLinkDelay,
      AttackKind::kLinkPartition};
  static const std::vector<AttackKind> kHb = {AttackKind::kMute};
  switch (t) {
    case Topology::kCan: return kCan;
    case Topology::kT1s: return kT1s;
    case Topology::kLink: return kLink;
    case Topology::kHeartbeat: return kHb;
  }
  return kHb;
}

const std::vector<DefenseConfig>& valid_postures(Topology t) {
  static const std::vector<DefenseConfig> kAll = {
      {false, false}, {true, false}, {false, true}, {true, true}};
  // T1S has no recovery lowering; heartbeat is meaningless unmonitored.
  static const std::vector<DefenseConfig> kNoRecovery = {{false, false},
                                                         {true, false}};
  static const std::vector<DefenseConfig> kMonitored = {{true, false},
                                                        {true, true}};
  switch (t) {
    case Topology::kCan: return kAll;
    case Topology::kT1s: return kNoRecovery;
    case Topology::kLink: return kAll;
    case Topology::kHeartbeat: return kMonitored;
  }
  return kAll;
}

const std::vector<std::string>& metric_names(Topology t) {
  static const std::vector<std::string> kCan = {
      "attack_accepted",  "attack_frames",   "attack_rejected",
      "bus_off_events",   "error_frames",    "faults_applied",
      "feed_up_at_end",   "frames_ok",       "frames_sent",
      "monitor_downs",    "monitor_recoveries", "worst_gap_ms"};
  static const std::vector<std::string> kT1s = {
      "attack_accepted", "attack_frames",      "attack_rejected",
      "frames_ok",       "frames_sent",        "monitor_downs",
      "monitor_recoveries", "worst_gap_ms"};
  static const std::vector<std::string> kLink = {
      "datagrams_delivered", "datagrams_dropped", "datagrams_sent",
      "faults_applied",      "handshakes",        "monitor_downs",
      "monitor_recoveries",  "msgs_ok",           "reconnects",
      "session_up_at_end"};
  static const std::vector<std::string> kHb = {
      "alive_at_end", "beats_sent",      "downs",
      "misses",       "probes_answered", "recoveries"};
  switch (t) {
    case Topology::kCan: return kCan;
    case Topology::kT1s: return kT1s;
    case Topology::kLink: return kLink;
    case Topology::kHeartbeat: return kHb;
  }
  return kHb;
}

bool posture_valid(Topology t, const DefenseConfig& d) {
  for (const DefenseConfig& p : valid_postures(t)) {
    if (p.monitor == d.monitor && p.recovery == d.recovery) return true;
  }
  return false;
}

namespace {

template <class T>
bool contains(const std::vector<T>& v, const T& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

bool is_protocol_attack(AttackKind k) {
  return k == AttackKind::kReplay || k == AttackKind::kTamper ||
         k == AttackKind::kForge;
}

fault::FaultKind lower_fault_kind(AttackKind k) {
  switch (k) {
    case AttackKind::kNodeCrash: return fault::FaultKind::kNodeCrash;
    case AttackKind::kBabblingIdiot: return fault::FaultKind::kBabblingIdiot;
    case AttackKind::kLinkDrop: return fault::FaultKind::kLinkDrop;
    case AttackKind::kLinkCorrupt: return fault::FaultKind::kLinkCorrupt;
    case AttackKind::kLinkDelay: return fault::FaultKind::kLinkDelay;
    case AttackKind::kLinkPartition: return fault::FaultKind::kLinkPartition;
    default: return fault::FaultKind::kNodeCrash;  // unreachable post-compile
  }
}

/// True for kinds that lower onto fault::FaultPlan events.
bool is_plan_kind(AttackKind k) {
  switch (k) {
    case AttackKind::kNodeCrash:
    case AttackKind::kBabblingIdiot:
    case AttackKind::kLinkDrop:
    case AttackKind::kLinkCorrupt:
    case AttackKind::kLinkDelay:
    case AttackKind::kLinkPartition:
      return true;
    default:
      return false;
  }
}

struct MonitorTally {
  std::uint64_t downs = 0;
  std::uint64_t recoveries = 0;
};

MonitorTally tally(const health::HeartbeatMonitor& monitor) {
  MonitorTally t;
  for (const health::HeartbeatEvent& e : monitor.events()) {
    t.downs += e.kind == health::HeartbeatEventKind::kDown;
    t.recoveries += e.kind == health::HeartbeatEventKind::kRecovered;
  }
  return t;
}

health::HeartbeatConfig monitor_config(core::SimTime period) {
  health::HeartbeatConfig cfg;
  cfg.check_period = period;
  cfg.deadline = 3 * period;
  cfg.miss_budget = 2;
  return cfg;
}

/// Appends the spec's plan-lowerable attacks and random injects to `plan`.
/// `target_name` maps an entry's target index to an injector target name.
void build_plan(const ScenarioSpec& spec, std::uint64_t seed,
                const std::function<std::string(int)>& target_name,
                const std::vector<std::string>& all_targets,
                fault::FaultPlan& plan) {
  for (const AttackEntry& a : spec.attacks) {
    if (!is_plan_kind(a.kind)) continue;
    fault::FaultEvent ev;
    ev.at = a.at;
    ev.kind = lower_fault_kind(a.kind);
    ev.target = target_name(a.target);
    ev.duration = a.duration;
    ev.magnitude = a.magnitude;
    ev.delta = a.delta;
    plan.add(ev);
  }
  std::uint64_t inject_index = 0;
  for (const RandomInject& r : spec.injects) {
    fault::FaultPlan::RandomConfig rnd;
    rnd.start = r.window_start;
    rnd.end = r.window_end;
    rnd.count = r.count;
    rnd.targets = all_targets;
    for (const AttackKind k : r.kinds) rnd.kinds.push_back(lower_fault_kind(k));
    rnd.min_duration = r.min_duration;
    rnd.max_duration = r.max_duration;
    const fault::FaultPlan drawn =
        fault::FaultPlan::random(rnd, seed ^ (0xA5A5ULL + inject_index));
    for (const fault::FaultEvent& ev : drawn.events()) plan.add(ev);
    ++inject_index;
  }
}

// --- the four worlds -----------------------------------------------------
//
// Each builds on the caller's scheduler, runs to `end`, and returns the
// topology's full metric set (every name in metric_names(), zeros where a
// feature is off). Everything is a pure function of (spec, seed, end).

fault::Metrics run_can_world(const ScenarioSpec& spec, core::Scheduler& sim,
                             std::uint64_t seed, core::SimTime end) {
  fault::supervise(sim);
  AVSEC_METRIC_INC("scenario.runs", 1);

  const int n = spec.nodes;
  netsim::CanBusConfig bcfg;
  bcfg.auto_bus_off_recovery = spec.defense.recovery;
  netsim::CanBus bus(sim, bcfg);

  const netsim::CanProtocol frame_proto =
      spec.protocol == Protocol::kNone
          ? netsim::CanProtocol::kClassic
          : (spec.protocol == Protocol::kSecOc ? netsim::CanProtocol::kFd
                                               : netsim::CanProtocol::kXl);

  std::vector<int> eps;
  for (int i = 0; i < n; ++i) {
    eps.push_back(bus.attach("ecu" + std::to_string(i), nullptr));
  }
  const int attacker = bus.attach("attacker", nullptr);

  // One key for the segment; senders per endpoint, one receiver state at
  // the gateway (freshness / counters are per data id / association).
  const core::Bytes key(16, 0x5C);
  std::vector<secproto::SecOcSender> secoc_tx;
  std::unique_ptr<secproto::SecOcReceiver> secoc_rx;
  std::vector<secproto::CansecAssociation> cansec_tx;
  std::vector<secproto::CansecAssociation> cansec_rx;
  if (spec.protocol == Protocol::kSecOc) {
    for (int i = 0; i < n; ++i) secoc_tx.emplace_back(key);
    secoc_rx = std::make_unique<secproto::SecOcReceiver>(key);
  } else if (spec.protocol == Protocol::kCansec) {
    for (int i = 0; i < n; ++i) {
      secproto::CansecConfig ccfg;
      ccfg.association_id = static_cast<std::uint16_t>(i + 1);
      cansec_tx.emplace_back(key, ccfg);
      cansec_rx.emplace_back(key, ccfg);
    }
  }

  // The attacker records the feed's latest on-wire frame for replay/tamper.
  netsim::CanFrame captured;
  bool have_captured = false;
  bus.set_rx(attacker, [&](int src, const netsim::CanFrame& f, core::SimTime) {
    if (src == eps[0]) {
      captured = f;
      have_captured = true;
    }
  });

  health::HeartbeatMonitor monitor(sim, monitor_config(spec.period));
  if (spec.defense.monitor) monitor.register_source("feed");

  std::uint64_t frames_sent = 0, frames_ok = 0;
  std::uint64_t attack_frames = 0, attack_accepted = 0, attack_rejected = 0;
  core::SimTime last_feed = 0, worst_gap = 0;
  bus.attach("gateway", [&](int src, const netsim::CanFrame& f,
                            core::SimTime now) {
    const bool from_attacker = src == attacker;
    const int idx = (f.id >= 0x100 && f.id < 0x100 + static_cast<std::uint32_t>(n))
                        ? static_cast<int>(f.id) - 0x100
                        : -1;
    bool ok = false;
    if (idx >= 0) {
      switch (spec.protocol) {
        case Protocol::kSecOc:
          ok = secoc_rx->verify(static_cast<std::uint16_t>(f.id), f.payload)
                   .has_value();
          break;
        case Protocol::kCansec:
          ok = cansec_rx[static_cast<std::size_t>(idx)].unprotect(f).has_value();
          break;
        default:
          ok = true;  // plaintext: the gateway cannot tell
          break;
      }
    }
    if (from_attacker) {
      ++attack_frames;
      (ok ? attack_accepted : attack_rejected) += 1;
      return;
    }
    if (!ok) return;
    ++frames_ok;
    if (idx == 0) {
      if (last_feed > 0) worst_gap = std::max(worst_gap, now - last_feed);
      last_feed = now;
      if (spec.defense.monitor) monitor.heartbeat("feed");
    }
  });

  // Periodic application traffic from every endpoint, staggered starts.
  std::vector<std::function<void()>> ticks(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ticks[static_cast<std::size_t>(i)] = [&, i] {
      netsim::CanFrame f;
      f.id = 0x100 + static_cast<std::uint32_t>(i);
      f.protocol = frame_proto;
      const core::Bytes payload(spec.payload,
                                static_cast<std::uint8_t>(0x20 + i));
      if (spec.protocol == Protocol::kSecOc) {
        f.payload = secoc_tx[static_cast<std::size_t>(i)].protect(
            static_cast<std::uint16_t>(f.id), payload);
      } else if (spec.protocol == Protocol::kCansec) {
        netsim::CanFrame plain = f;
        plain.payload = payload;
        f = cansec_tx[static_cast<std::size_t>(i)].protect(plain);
      } else {
        f.payload = payload;
      }
      bus.send(eps[static_cast<std::size_t>(i)], f);
      ++frames_sent;
      if (sim.now() + spec.period < end) {
        sim.schedule_in(spec.period,
                        [t = &ticks[static_cast<std::size_t>(i)]] { (*t)(); });
      }
    };
    sim.schedule_at(core::microseconds(137) * i,
                    [t = &ticks[static_cast<std::size_t>(i)]] { (*t)(); });
  }

  // Scheduled protocol-layer attacks and targeted error injection.
  for (const AttackEntry& a : spec.attacks) {
    if (a.kind == AttackKind::kBusOff) {
      sim.schedule_at(a.at, [&, a] {
        bus.inject_errors_on(eps[static_cast<std::size_t>(a.target)],
                             static_cast<int>(a.count));
      });
      continue;
    }
    if (!is_protocol_attack(a.kind)) continue;
    for (std::uint32_t k = 0; k < a.count; ++k) {
      sim.schedule_at(a.at + a.delta * k, [&, a] {
        netsim::CanFrame f;
        switch (a.kind) {
          case AttackKind::kReplay:
            if (!have_captured) return;
            f = captured;
            break;
          case AttackKind::kTamper:
            if (!have_captured || captured.payload.empty()) return;
            f = captured;
            f.payload[0] ^= 0xFF;
            break;
          default: {  // kForge: fabricate on the feed's protected id
            f.id = 0x100;
            f.protocol = frame_proto;
            std::size_t len = spec.payload;
            if (spec.protocol == Protocol::kSecOc) {
              len += secoc_tx[0].overhead_bytes();
            } else if (spec.protocol == Protocol::kCansec) {
              len += cansec_tx[0].overhead_bytes();
              f.sdu_type = secproto::kCansecSduType;
            }
            f.payload = core::Bytes(len, 0xEE);
            break;
          }
        }
        bus.send(attacker, f);
      });
    }
  }

  // Node-level attacks and random injects, via the fault plan.
  std::vector<std::unique_ptr<fault::CanNodeFault>> node_faults;
  fault::FaultInjector injector(sim);
  std::vector<std::string> targets;
  for (int i = 0; i < n; ++i) {
    node_faults.push_back(std::make_unique<fault::CanNodeFault>(
        sim, bus, eps[static_cast<std::size_t>(i)], seed + 11 + i));
    targets.push_back("ecu" + std::to_string(i));
    injector.add_target(targets.back(), node_faults.back().get());
  }
  fault::FaultPlan plan;
  build_plan(spec, seed,
             [](int t) { return "ecu" + std::to_string(t); }, targets, plan);
  injector.arm(plan);

  if (spec.defense.monitor) monitor.start();
  sim.run_until(end);
  if (spec.defense.monitor) monitor.stop();

  const MonitorTally mt = tally(monitor);
  fault::Metrics m;
  m["frames_sent"] = static_cast<double>(frames_sent);
  m["frames_ok"] = static_cast<double>(frames_ok);
  m["worst_gap_ms"] = core::to_microseconds(worst_gap) / 1000.0;
  m["attack_frames"] = static_cast<double>(attack_frames);
  m["attack_accepted"] = static_cast<double>(attack_accepted);
  m["attack_rejected"] = static_cast<double>(attack_rejected);
  m["bus_off_events"] = static_cast<double>(bus.bus_off_events());
  m["error_frames"] = static_cast<double>(bus.error_frames());
  m["feed_up_at_end"] =
      (!bus.is_down(eps[0]) && !bus.is_bus_off(eps[0])) ? 1.0 : 0.0;
  m["faults_applied"] = static_cast<double>(injector.applied());
  m["monitor_downs"] = static_cast<double>(mt.downs);
  m["monitor_recoveries"] = static_cast<double>(mt.recoveries);
  return m;
}

fault::Metrics run_t1s_world(const ScenarioSpec& spec, core::Scheduler& sim,
                             std::uint64_t seed, core::SimTime end) {
  fault::supervise(sim);
  AVSEC_METRIC_INC("scenario.runs", 1);
  (void)seed;  // traffic and attacks are schedule-driven on this topology

  const int n = spec.nodes;
  netsim::T1sBus bus(sim, {});
  std::vector<int> eps;
  std::vector<std::string> names;
  std::vector<netsim::MacAddress> macs;
  for (int i = 0; i < n; ++i) {
    names.push_back("node" + std::to_string(i));
    macs.push_back(netsim::mac_from_index(static_cast<std::uint16_t>(i)));
    eps.push_back(bus.attach(names.back(), nullptr));
  }
  const int attacker = bus.attach("attacker", nullptr);

  const core::Bytes sak(16, 0x4D);
  std::vector<std::unique_ptr<secproto::MacsecChannel>> mac_tx, mac_rx;
  if (spec.protocol == Protocol::kMacsec) {
    for (int i = 0; i < n; ++i) {
      mac_tx.push_back(std::make_unique<secproto::MacsecChannel>(
          sak, static_cast<std::uint64_t>(i + 1)));
      mac_rx.push_back(std::make_unique<secproto::MacsecChannel>(
          sak, static_cast<std::uint64_t>(i + 1)));
    }
  }

  // Attacker taps the segment for the feed's latest secured frame.
  netsim::EthFrame captured;
  bool have_captured = false;
  bus.set_rx(attacker, [&](int src, const netsim::EthFrame& f, core::SimTime) {
    if (src == eps[0]) {
      captured = f;
      have_captured = true;
    }
  });

  health::HeartbeatMonitor monitor(sim, monitor_config(spec.period));
  if (spec.defense.monitor) {
    for (const std::string& name : names) monitor.register_source(name);
  }

  // Source index from the frame's src MAC (attacker-replayed frames keep
  // the victim's MAC — provenance comes from the PLCA node id).
  const auto mac_index = [&](const netsim::MacAddress& mac) -> int {
    for (int i = 0; i < n; ++i) {
      if (mac == macs[static_cast<std::size_t>(i)]) return i;
    }
    return -1;
  };

  std::uint64_t frames_sent = 0, frames_ok = 0;
  std::uint64_t attack_frames = 0, attack_accepted = 0, attack_rejected = 0;
  core::SimTime last_feed = 0, worst_gap = 0;
  const int receiver = bus.attach(
      "receiver", [&](int src, const netsim::EthFrame& f, core::SimTime now) {
        if (src != attacker && !contains(eps, src)) return;
        const int idx = mac_index(f.src);
        bool ok = false;
        if (idx >= 0) {
          ok = spec.protocol != Protocol::kMacsec ||
               mac_rx[static_cast<std::size_t>(idx)]->unprotect(f).has_value();
        }
        if (src == attacker) {
          ++attack_frames;
          (ok ? attack_accepted : attack_rejected) += 1;
          return;
        }
        if (!ok) return;
        ++frames_ok;
        if (idx == 0) {
          if (last_feed > 0) worst_gap = std::max(worst_gap, now - last_feed);
          last_feed = now;
        }
        if (spec.defense.monitor) {
          monitor.heartbeat(names[static_cast<std::size_t>(idx)]);
        }
      });
  (void)receiver;

  // Mute windows: a muted publisher skips its tick inside the window.
  std::vector<std::pair<core::SimTime, core::SimTime>> mutes(
      static_cast<std::size_t>(n), {end + 1, end + 1});
  for (const AttackEntry& a : spec.attacks) {
    if (a.kind != AttackKind::kMute) continue;
    mutes[static_cast<std::size_t>(a.target)] = {
        a.at, a.duration > 0 ? a.at + a.duration : end + 1};
  }

  std::vector<std::function<void()>> ticks(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ticks[static_cast<std::size_t>(i)] = [&, i] {
      const auto& mute = mutes[static_cast<std::size_t>(i)];
      if (sim.now() < mute.first || sim.now() >= mute.second) {
        netsim::EthFrame f;
        f.src = macs[static_cast<std::size_t>(i)];
        f.dst = netsim::mac_from_index(200);
        f.payload = core::Bytes(spec.payload,
                                static_cast<std::uint8_t>(0x20 + i));
        if (spec.protocol == Protocol::kMacsec) {
          f = mac_tx[static_cast<std::size_t>(i)]->protect(f);
        }
        bus.send(eps[static_cast<std::size_t>(i)], std::move(f));
        ++frames_sent;
      }
      if (sim.now() + spec.period < end) {
        sim.schedule_in(spec.period,
                        [t = &ticks[static_cast<std::size_t>(i)]] { (*t)(); });
      }
    };
    sim.schedule_at(core::microseconds(137) * i,
                    [t = &ticks[static_cast<std::size_t>(i)]] { (*t)(); });
  }

  for (const AttackEntry& a : spec.attacks) {
    if (!is_protocol_attack(a.kind)) continue;
    for (std::uint32_t k = 0; k < a.count; ++k) {
      sim.schedule_at(a.at + a.delta * k, [&, a] {
        netsim::EthFrame f;
        switch (a.kind) {
          case AttackKind::kReplay:
            if (!have_captured) return;
            f = captured;
            break;
          case AttackKind::kTamper:
            if (!have_captured || captured.payload.empty()) return;
            f = captured;
            f.payload[0] ^= 0xFF;
            break;
          default: {  // kForge
            f.src = netsim::mac_from_index(0);
            f.dst = netsim::mac_from_index(200);
            std::size_t len = spec.payload;
            if (spec.protocol == Protocol::kMacsec) {
              len += secproto::MacsecChannel::kOverhead;
              f.ethertype = netsim::kEtherTypeMacsec;
            }
            f.payload = core::Bytes(len, 0xEE);
            break;
          }
        }
        bus.send(attacker, f);
      });
    }
  }

  bus.start();
  if (spec.defense.monitor) monitor.start();
  sim.run_until(end);
  if (spec.defense.monitor) monitor.stop();

  const MonitorTally mt = tally(monitor);
  fault::Metrics m;
  m["frames_sent"] = static_cast<double>(frames_sent);
  m["frames_ok"] = static_cast<double>(frames_ok);
  m["worst_gap_ms"] = core::to_microseconds(worst_gap) / 1000.0;
  m["attack_frames"] = static_cast<double>(attack_frames);
  m["attack_accepted"] = static_cast<double>(attack_accepted);
  m["attack_rejected"] = static_cast<double>(attack_rejected);
  m["monitor_downs"] = static_cast<double>(mt.downs);
  m["monitor_recoveries"] = static_cast<double>(mt.recoveries);
  m["access_mean_us"] = bus.access_latency().mean();
  m["access_max_us"] = bus.access_latency().max();
  return m;
}

fault::Metrics run_link_world(const ScenarioSpec& spec, core::Scheduler& sim,
                              std::uint64_t seed, core::SimTime end) {
  fault::supervise(sim);
  AVSEC_METRIC_INC("scenario.runs", 1);

  netsim::FlakyChannelConfig ccfg;
  ccfg.name = "uplink";
  ccfg.seed = seed ^ 0x7F4AULL;
  netsim::FlakyChannel link(sim, ccfg);

  health::HeartbeatMonitor monitor(sim, monitor_config(spec.period));
  if (spec.defense.monitor) monitor.register_source("uplink");

  std::uint64_t msgs_ok = 0;
  std::unique_ptr<secproto::TlsResponder> responder;
  std::unique_ptr<secproto::RobustTlsSession> session;
  const secproto::TlsCa ca(core::Bytes(32, 0x55));
  std::function<void()> tick;        // sender (plaintext) or liveness poll
  std::function<void()> rekey_tick;  // TLS only

  if (spec.protocol == Protocol::kTls) {
    responder = std::make_unique<secproto::TlsResponder>(
        sim, link, seed ^ 0x9E37ULL, ca, "backend");
    secproto::RobustSessionConfig scfg;
    scfg.retry.max_retries = 3;
    scfg.reconnect_delay = core::milliseconds(30);
    scfg.max_reconnects = 8;
    scfg.auto_reconnect = spec.defense.recovery;
    session = std::make_unique<secproto::RobustTlsSession>(
        sim, link, seed ^ 0xC2B2ULL, ca.public_key(), scfg);
    session->connect();

    rekey_tick = [&] {
      if (session->established()) session->rekey();
      if (sim.now() + end / 4 < end) {
        sim.schedule_in(end / 4, [&rekey_tick] { rekey_tick(); });
      }
    };
    sim.schedule_at(end / 4, [&rekey_tick] { rekey_tick(); });

    tick = [&] {  // monitor liveness poll
      if (spec.defense.monitor && session->established()) {
        monitor.heartbeat("uplink");
      }
      if (sim.now() + spec.period < end) {
        sim.schedule_in(spec.period, [&tick] { tick(); });
      }
    };
  } else {
    // Plaintext datagrams: 8-byte sequence + pattern body; a corrupted
    // body fails the integrity check at the far end.
    std::uint64_t seq = 0;
    link.bind(netsim::FlakyChannel::End::kB,
              [&](const core::Bytes& d, core::SimTime) {
                if (d.size() != 8 + spec.payload) return;
                bool intact = true;
                for (std::size_t i = 8; i < d.size(); ++i) {
                  intact = intact && d[i] == 0x3C;
                }
                if (!intact) return;
                ++msgs_ok;
                if (spec.defense.monitor) monitor.heartbeat("uplink");
              });
    tick = [&, seq]() mutable {
      core::Bytes d(8 + spec.payload, 0x3C);
      for (int b = 0; b < 8; ++b) {
        d[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(seq >> (8 * b));
      }
      ++seq;
      link.send(netsim::FlakyChannel::End::kA, std::move(d));
      if (sim.now() + spec.period < end) {
        sim.schedule_in(spec.period, [&tick] { tick(); });
      }
    };
  }
  sim.schedule_at(0, [&tick] { tick(); });

  fault::ChannelFault link_fault(link);
  fault::FaultInjector injector(sim);
  injector.add_target("uplink", &link_fault);
  fault::FaultPlan plan;
  build_plan(spec, seed, [](int) { return std::string("uplink"); },
             {"uplink"}, plan);
  injector.arm(plan);

  if (spec.defense.monitor) monitor.start();
  sim.run_until(end);
  if (spec.defense.monitor) monitor.stop();

  const MonitorTally mt = tally(monitor);
  fault::Metrics m;
  m["datagrams_sent"] = static_cast<double>(link.sent());
  m["datagrams_delivered"] = static_cast<double>(link.delivered());
  m["datagrams_dropped"] = static_cast<double>(link.dropped());
  m["msgs_ok"] = static_cast<double>(msgs_ok);
  m["session_up_at_end"] =
      (session != nullptr && session->established()) ? 1.0 : 0.0;
  m["reconnects"] =
      session != nullptr ? static_cast<double>(session->reconnects()) : 0.0;
  m["handshakes"] = session != nullptr
                        ? static_cast<double>(session->handshakes_completed())
                        : 0.0;
  m["faults_applied"] = static_cast<double>(injector.applied());
  m["monitor_downs"] = static_cast<double>(mt.downs);
  m["monitor_recoveries"] = static_cast<double>(mt.recoveries);
  return m;
}

fault::Metrics run_heartbeat_world(const ScenarioSpec& spec,
                                   core::Scheduler& sim, std::uint64_t seed,
                                   core::SimTime end) {
  fault::supervise(sim);
  AVSEC_METRIC_INC("scenario.runs", 1);

  const int n = spec.nodes;
  health::HeartbeatMonitor monitor(sim, monitor_config(spec.period));
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back("src" + std::to_string(i));
  for (const std::string& name : names) monitor.register_source(name);

  // Challenge-response probes are the recovery lowering on this topology.
  std::vector<std::unique_ptr<netsim::FlakyChannel>> probe_ch;
  std::vector<std::unique_ptr<health::ChallengeResponder>> responders;
  if (spec.defense.recovery) {
    for (int i = 0; i < n; ++i) {
      netsim::FlakyChannelConfig pcfg;
      pcfg.name = "probe" + std::to_string(i);
      pcfg.seed = seed ^ (0x50ULL + static_cast<std::uint64_t>(i));
      probe_ch.push_back(std::make_unique<netsim::FlakyChannel>(sim, pcfg));
      responders.push_back(
          std::make_unique<health::ChallengeResponder>(*probe_ch.back()));
      monitor.attach_probe(names[static_cast<std::size_t>(i)], *probe_ch.back(),
                           seed ^ (0x60ULL + static_cast<std::uint64_t>(i)));
    }
  }

  // Mute windows. A "hard" mute (magnitude >= 0.5) also takes the probe
  // responder offline, so challenge-response cannot mask it.
  std::vector<std::pair<core::SimTime, core::SimTime>> mutes(
      static_cast<std::size_t>(n), {end + 1, end + 1});
  for (const AttackEntry& a : spec.attacks) {
    if (a.kind != AttackKind::kMute) continue;
    const core::SimTime stop = a.duration > 0 ? a.at + a.duration : end + 1;
    mutes[static_cast<std::size_t>(a.target)] = {a.at, stop};
    if (a.magnitude >= 0.5 && spec.defense.recovery) {
      sim.schedule_at(a.at, [&, a] {
        responders[static_cast<std::size_t>(a.target)]->set_online(false);
      });
      if (a.duration > 0) {
        sim.schedule_at(stop, [&, a] {
          responders[static_cast<std::size_t>(a.target)]->set_online(true);
        });
      }
    }
  }

  std::uint64_t beats_sent = 0;
  std::vector<std::function<void()>> beats(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    beats[static_cast<std::size_t>(i)] = [&, i] {
      const auto& mute = mutes[static_cast<std::size_t>(i)];
      if (sim.now() < mute.first || sim.now() >= mute.second) {
        monitor.heartbeat(names[static_cast<std::size_t>(i)]);
        ++beats_sent;
      }
      if (sim.now() + spec.period < end) {
        sim.schedule_in(spec.period,
                        [b = &beats[static_cast<std::size_t>(i)]] { (*b)(); });
      }
    };
    sim.schedule_at(core::microseconds(137) * i,
                    [b = &beats[static_cast<std::size_t>(i)]] { (*b)(); });
  }

  monitor.start();
  sim.run_until(end);
  monitor.stop();

  std::uint64_t misses = 0, downs = 0, recoveries = 0;
  for (const health::HeartbeatEvent& e : monitor.events()) {
    misses += e.kind == health::HeartbeatEventKind::kMiss;
    downs += e.kind == health::HeartbeatEventKind::kDown;
    recoveries += e.kind == health::HeartbeatEventKind::kRecovered;
  }
  std::uint64_t answered = 0;
  for (const auto& r : responders) answered += r->challenges_answered();
  bool all_alive = true;
  for (const std::string& name : names) {
    all_alive = all_alive && monitor.state(name) == health::SourceState::kAlive;
  }
  fault::Metrics m;
  m["beats_sent"] = static_cast<double>(beats_sent);
  m["misses"] = static_cast<double>(misses);
  m["downs"] = static_cast<double>(downs);
  m["recoveries"] = static_cast<double>(recoveries);
  m["probes_answered"] = static_cast<double>(answered);
  m["alive_at_end"] = all_alive ? 1.0 : 0.0;
  return m;
}

std::string oracle_name(const Oracle& o) {
  return o.metric + " " + oracle_op_name(o.op) + " " + double_literal(o.value);
}

}  // namespace

// --- CompiledScenario ----------------------------------------------------

core::SimTime CompiledScenario::smoke_horizon() const {
  return std::max(spec_.horizon / 5, core::milliseconds(10));
}

fault::Metrics CompiledScenario::run(core::Scheduler& sim, std::uint64_t seed,
                                     serve::Scale scale) const {
  const core::SimTime end =
      scale == serve::Scale::kFull ? spec_.horizon : smoke_horizon();
  switch (spec_.topology) {
    case Topology::kCan: return run_can_world(spec_, sim, seed, end);
    case Topology::kT1s: return run_t1s_world(spec_, sim, seed, end);
    case Topology::kLink: return run_link_world(spec_, sim, seed, end);
    case Topology::kHeartbeat:
      return run_heartbeat_world(spec_, sim, seed, end);
  }
  return {};
}

fault::CampaignConfig CompiledScenario::campaign_config(
    std::size_t workers) const {
  fault::CampaignConfig cfg;
  cfg.runs = spec_.runs;
  cfg.base_seed = spec_.seed;
  cfg.workers = workers;
  cfg.supervision.max_events = 20'000'000;
  return cfg;
}

fault::Campaign CompiledScenario::campaign(
    std::size_t workers, const std::string& manifest_path) const {
  fault::CampaignConfig cfg = campaign_config(workers);
  cfg.manifest_path = manifest_path;
  fault::Campaign c(cfg);
  for (const Oracle& o : spec_.oracles) {
    c.require(oracle_name(o), [o](const fault::Metrics& m) {
      const auto it = m.find(o.metric);
      return it != m.end() && oracle_holds(o.op, it->second, o.value);
    });
  }
  return c;
}

std::vector<std::string> CompiledScenario::oracle_failures(
    const fault::Metrics& m) const {
  std::vector<std::string> out;
  for (const Oracle& o : spec_.oracles) {
    const auto it = m.find(o.metric);
    if (it == m.end() || !oracle_holds(o.op, it->second, o.value)) {
      out.push_back(oracle_name(o));
    }
  }
  return out;
}

serve::Scenario CompiledScenario::serve_entry() const {
  serve::Scenario s;
  s.name = spec_.name;
  s.description = spec_.description.empty()
                      ? std::string("scenario ") + topology_name(spec_.topology)
                      : spec_.description;
  s.run_ctx = [self = *this](fault::SimContext& ctx, std::uint64_t seed,
                             serve::Scale scale) {
    return self.run(ctx.sim(), seed, scale);
  };
  s.cost_hint_ms_per_seed =
      1.0 + core::to_microseconds(spec_.horizon) / 400'000.0;
  s.default_max_events = 20'000'000;
  return s;
}

// --- compile() -----------------------------------------------------------

namespace {

CompileResult fail(const ScenarioSpec& spec, int line, std::string message) {
  CompileResult r;
  r.error.file = spec.source_file;
  r.error.line = line;
  r.error.message = std::move(message);
  return r;
}

}  // namespace

CompileResult compile(const ScenarioSpec& spec) {
  const Topology topo = spec.topology;

  if (!contains(valid_protocols(topo), spec.protocol)) {
    return fail(spec, spec.protocol_line,
                std::string("protocol ") + protocol_name(spec.protocol) +
                    " is not valid on topology " + topology_name(topo));
  }
  if (!posture_valid(topo, spec.defense)) {
    return fail(spec, spec.topology_line,
                std::string("posture ") + posture_name(spec.defense) +
                    " is not valid on topology " + topology_name(topo));
  }
  if (topo == Topology::kCan) {
    const std::size_t limit =
        spec.protocol == Protocol::kNone
            ? netsim::can_max_payload(netsim::CanProtocol::kClassic)
            : (spec.protocol == Protocol::kSecOc
                   ? netsim::can_max_payload(netsim::CanProtocol::kFd) - 4
                   : 64);
    if (spec.payload > limit) {
      return fail(spec, spec.topology_line,
                  "payload " + std::to_string(spec.payload) + " exceeds the " +
                      protocol_name(spec.protocol) + "-over-can limit of " +
                      std::to_string(limit));
    }
  }

  for (const AttackEntry& a : spec.attacks) {
    const char* section =
        a.provenance == Provenance::kAttack ? "attack" : "fault";
    if (!contains(valid_attacks(topo), a.kind)) {
      return fail(spec, a.line,
                  std::string(section) + " " + attack_kind_name(a.kind) +
                      " is not valid on topology " + topology_name(topo));
    }
    if (topo != Topology::kLink && a.target >= spec.nodes) {
      return fail(spec, a.line,
                  "target " + std::to_string(a.target) +
                      " out of range for " + std::to_string(spec.nodes) +
                      " nodes");
    }
    if (a.kind == AttackKind::kBabblingIdiot && a.duration == 0) {
      return fail(spec, a.line,
                  "babbling-idiot requires a finite duration (> 0)");
    }
  }

  for (const RandomInject& r : spec.injects) {
    if (topo != Topology::kCan && topo != Topology::kLink) {
      return fail(spec, r.line,
                  std::string("inject random is not valid on topology ") +
                      topology_name(topo));
    }
    for (const AttackKind k : r.kinds) {
      if (!is_plan_kind(k) || !contains(valid_attacks(topo), k)) {
        return fail(spec, r.line,
                    std::string("inject kind ") + attack_kind_name(k) +
                        " is not valid on topology " + topology_name(topo));
      }
      if (k == AttackKind::kBabblingIdiot && r.min_duration == 0) {
        return fail(spec, r.line,
                    "inject with babbling-idiot requires durations > 0");
      }
    }
  }

  for (const Oracle& o : spec.oracles) {
    if (!contains(metric_names(topo), o.metric)) {
      return fail(spec, o.line,
                  "unknown metric '" + o.metric + "' for topology " +
                      topology_name(topo));
    }
  }

  CompileResult r;
  r.ok = true;
  r.compiled.spec_ = spec;
  return r;
}

}  // namespace avsec::scenario
