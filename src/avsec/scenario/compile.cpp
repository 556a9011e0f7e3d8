#include "avsec/scenario/compile.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
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
      "access_max_us",   "access_mean_us",     "attack_accepted",
      "attack_frames",   "attack_rejected",    "frames_ok",
      "frames_sent",     "monitor_downs",      "monitor_recoveries",
      "worst_gap_ms"};
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

/// The fault::FaultPlan kind `k` lowers onto; none for the kinds a world
/// lowers itself.
std::optional<fault::FaultKind> plan_kind(AttackKind k) {
  switch (k) {
    case AttackKind::kNodeCrash: return fault::FaultKind::kNodeCrash;
    case AttackKind::kBabblingIdiot: return fault::FaultKind::kBabblingIdiot;
    case AttackKind::kLinkDrop: return fault::FaultKind::kLinkDrop;
    case AttackKind::kLinkCorrupt: return fault::FaultKind::kLinkCorrupt;
    case AttackKind::kLinkDelay: return fault::FaultKind::kLinkDelay;
    case AttackKind::kLinkPartition: return fault::FaultKind::kLinkPartition;
    default: return std::nullopt;
  }
}

struct MonitorTally {
  std::uint64_t misses = 0;
  std::uint64_t downs = 0;
  std::uint64_t recoveries = 0;
};

MonitorTally tally(const health::HeartbeatMonitor& monitor) {
  MonitorTally t;
  for (const health::HeartbeatEvent& e : monitor.events()) {
    t.misses += e.kind == health::HeartbeatEventKind::kMiss;
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
    if (!plan_kind(a.kind)) continue;
    fault::FaultEvent ev;
    ev.at = a.at;
    ev.kind = *plan_kind(a.kind);
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
    for (const AttackKind k : r.kinds) rnd.kinds.push_back(*plan_kind(k));
    rnd.min_duration = r.min_duration;
    rnd.max_duration = r.max_duration;
    const fault::FaultPlan drawn =
        fault::FaultPlan::random(rnd, seed ^ (0xA5A5ULL + inject_index));
    for (const fault::FaultEvent& ev : drawn.events()) plan.add(ev);
    ++inject_index;
  }
}

/// `spec.nodes` staggered periodic publishers: publisher i ticks at
/// 137 µs·i, then every period before `end`, and calls send(i) on every
/// tick outside its `mute` window. Each event body is {this, i}, stored in
/// place, so no tick allocates; the object must outlive the run.
template <class Send>
struct Publishers {
  Publishers(core::Scheduler& s, const ScenarioSpec& spec, core::SimTime e,
             Send f)
      : sim(s), period(spec.period), end(e), send(std::move(f)),
        mutes(static_cast<std::size_t>(spec.nodes), {e + 1, e + 1}) {
    for (const AttackEntry& a : spec.attacks) {
      if (a.kind != AttackKind::kMute) continue;
      mutes[static_cast<std::size_t>(a.target)] = {
          a.at, a.duration > 0 ? a.at + a.duration : e + 1};
    }
    for (int i = 0; i < spec.nodes; ++i) {
      sim.schedule_at(core::microseconds(137) * i, [this, i] { tick(i); });
    }
  }
  Publishers(const Publishers&) = delete;  // events point at this object
  void tick(int i) {
    const auto& [from, until] = mutes[static_cast<std::size_t>(i)];
    if (sim.now() < from || sim.now() >= until) send(i);
    if (sim.now() + period < end) {
      sim.schedule_in(period, [this, i] { tick(i); });
    }
  }
  core::Scheduler& sim;
  const core::SimTime period, end;
  Send send;
  std::vector<std::pair<core::SimTime, core::SimTime>> mutes;
};

// --- the worlds ----------------------------------------------------------
//
// Each builds on the caller's scheduler, runs to `end`, and returns the
// topology's full metric set (every name in metric_names(), zeros where a
// feature is off). Everything is a pure function of (spec, seed, end).
//
// CAN and 10BASE-T1S are one attacked segment, run_segment_world: node 0
// of the publishers is the feed, an attacker taps the feed's latest frame
// for replay/tamper/forge, and one receiver verifies every frame through
// the stack. A Segment policy supplies only the bus, the stack, the
// monitored sources and its extras; the template calls it directly, so
// the per-frame paths dispatch statically.

struct CanSegment {
  using Frame = netsim::CanFrame;
  static constexpr const char* kReceiver = "gateway";

  CanSegment(const ScenarioSpec& s, core::Scheduler& scheduler)
      : spec(s), sim(scheduler), bus(scheduler, bus_config(s)),
        proto(s.protocol == Protocol::kNone    ? netsim::CanProtocol::kClassic
              : s.protocol == Protocol::kSecOc ? netsim::CanProtocol::kFd
                                               : netsim::CanProtocol::kXl) {}
  CanSegment(const CanSegment&) = delete;  // bus-off events point at this
  static netsim::CanBusConfig bus_config(const ScenarioSpec& s) {
    netsim::CanBusConfig cfg;
    cfg.auto_bus_off_recovery = s.defense.recovery;
    return cfg;
  }
  static std::string node_name(int i) { return "ecu" + std::to_string(i); }
  std::vector<std::string> watched() const { return {"feed"}; }

  /// One key for the segment; senders per endpoint, one receiver state at
  /// the gateway (freshness / counters are per data id / association).
  void secure() {
    const core::Bytes key(16, 0x5C);
    for (int i = 0; i < spec.nodes; ++i) {
      if (spec.protocol == Protocol::kSecOc) secoc_tx.emplace_back(key);
      if (spec.protocol != Protocol::kCansec) continue;
      secproto::CansecConfig ccfg;
      ccfg.association_id = static_cast<std::uint16_t>(i + 1);
      cansec_tx.emplace_back(key, ccfg);
      cansec_rx.emplace_back(key, ccfg);
    }
    if (spec.protocol == Protocol::kSecOc) secoc_rx.emplace(key);
  }

  /// Publisher i sends on gateway id 0x100+i.
  int source_of(const Frame& f) const {
    const std::uint32_t n = static_cast<std::uint32_t>(spec.nodes);
    return f.id >= 0x100 && f.id < 0x100 + n ? static_cast<int>(f.id) - 0x100
                                             : -1;
  }
  bool verify(std::size_t i, const Frame& f) {
    switch (spec.protocol) {
      case Protocol::kSecOc:
        return secoc_rx->verify(static_cast<std::uint16_t>(f.id), f.payload)
            .has_value();
      case Protocol::kCansec: return cansec_rx[i].unprotect(f).has_value();
      default: return true;  // plaintext: the gateway cannot tell
    }
  }
  Frame publish(std::size_t i, core::Bytes payload) {
    Frame f;
    f.id = 0x100 + static_cast<std::uint32_t>(i);
    f.protocol = proto;
    f.payload = std::move(payload);
    if (spec.protocol == Protocol::kSecOc) {
      f.payload =
          secoc_tx[i].protect(static_cast<std::uint16_t>(f.id), f.payload);
    } else if (spec.protocol == Protocol::kCansec) {
      f = cansec_tx[i].protect(f);
    }
    return f;
  }
  /// A fabricated frame on the feed's protected id.
  Frame forge() const {
    Frame f;
    f.id = 0x100;
    f.protocol = proto;
    std::size_t len = spec.payload;
    if (spec.protocol == Protocol::kSecOc) {
      len += secoc_tx[0].overhead_bytes();
    } else if (spec.protocol == Protocol::kCansec) {
      len += cansec_tx[0].overhead_bytes();
      f.sdu_type = secproto::kCansecSduType;
    }
    f.payload = core::Bytes(len, 0xEE);
    return f;
  }

  /// Bus-off: targeted error injection on the victim's transmissions.
  void schedule_extra(const AttackEntry& a) {
    if (a.kind != AttackKind::kBusOff) return;
    sim.schedule_at(a.at, [this, &a] {
      bus.inject_errors_on(eps[static_cast<std::size_t>(a.target)],
                           static_cast<int>(a.count));
    });
  }
  /// Node-level attacks and random injects, via the fault plan.
  void arm(std::uint64_t seed) {
    injector.emplace(sim);
    std::vector<std::string> targets;
    for (int i = 0; i < spec.nodes; ++i) {
      node_faults.push_back(std::make_unique<fault::CanNodeFault>(
          sim, bus, eps[static_cast<std::size_t>(i)], seed + 11 + i));
      targets.push_back(node_name(i));
      injector->add_target(targets.back(), node_faults.back().get());
    }
    fault::FaultPlan plan;
    build_plan(spec, seed, node_name, targets, plan);
    injector->arm(plan);
  }
  void add_metrics(fault::Metrics& m) const {
    m["bus_off_events"] = static_cast<double>(bus.bus_off_events());
    m["error_frames"] = static_cast<double>(bus.error_frames());
    m["feed_up_at_end"] =
        (!bus.is_down(eps[0]) && !bus.is_bus_off(eps[0])) ? 1.0 : 0.0;
    m["faults_applied"] = static_cast<double>(injector->applied());
  }

  const ScenarioSpec& spec;
  core::Scheduler& sim;
  netsim::CanBus bus;
  const netsim::CanProtocol proto;
  std::vector<int> eps;  // publisher i's node id
  std::vector<secproto::SecOcSender> secoc_tx;
  std::optional<secproto::SecOcReceiver> secoc_rx;
  std::vector<secproto::CansecAssociation> cansec_tx, cansec_rx;
  std::vector<std::unique_ptr<fault::CanNodeFault>> node_faults;
  std::optional<fault::FaultInjector> injector;  // built by arm()
};

struct T1sSegment {
  using Frame = netsim::EthFrame;
  static constexpr const char* kReceiver = "receiver";

  T1sSegment(const ScenarioSpec& s, core::Scheduler& sim)
      : spec(s), bus(sim, {}) {}
  static std::string node_name(int i) { return "node" + std::to_string(i); }
  std::vector<std::string> watched() const {
    std::vector<std::string> names;
    for (int i = 0; i < spec.nodes; ++i) names.push_back(node_name(i));
    return names;
  }

  void secure() {
    const core::Bytes sak(16, 0x4D);
    for (int i = 0; i < spec.nodes; ++i) {
      macs.push_back(netsim::mac_from_index(static_cast<std::uint16_t>(i)));
      if (spec.protocol != Protocol::kMacsec) continue;
      const auto sci = static_cast<std::uint64_t>(i + 1);
      mac_tx.push_back(std::make_unique<secproto::MacsecChannel>(sak, sci));
      mac_rx.push_back(std::make_unique<secproto::MacsecChannel>(sak, sci));
    }
  }

  /// Source index from the frame's src MAC (attacker-replayed frames keep
  /// the victim's MAC — provenance comes from the PLCA node id).
  int source_of(const Frame& f) const {
    for (std::size_t i = 0; i < macs.size(); ++i) {
      if (f.src == macs[i]) return static_cast<int>(i);
    }
    return -1;
  }
  bool verify(std::size_t i, const Frame& f) {
    return spec.protocol != Protocol::kMacsec ||
           mac_rx[i]->unprotect(f).has_value();
  }
  Frame publish(std::size_t i, core::Bytes payload) {
    Frame f;
    f.src = macs[i];
    f.dst = netsim::mac_from_index(200);
    f.payload = std::move(payload);
    if (spec.protocol == Protocol::kMacsec) return mac_tx[i]->protect(f);
    return f;
  }
  Frame forge() const {
    Frame f;
    f.src = netsim::mac_from_index(0);
    f.dst = netsim::mac_from_index(200);
    std::size_t len = spec.payload;
    if (spec.protocol == Protocol::kMacsec) {
      len += secproto::MacsecChannel::kOverhead;
      f.ethertype = netsim::kEtherTypeMacsec;
    }
    f.payload = core::Bytes(len, 0xEE);
    return f;
  }

  void schedule_extra(const AttackEntry&) {}  // mute is the publishers'
  void arm(std::uint64_t) { bus.start(); }    // no seeded draws here
  void add_metrics(fault::Metrics& m) const {
    m["access_mean_us"] = bus.access_latency().mean();
    m["access_max_us"] = bus.access_latency().max();
  }

  const ScenarioSpec& spec;
  netsim::T1sBus bus;
  std::vector<int> eps;  // publisher i's node id (its PLCA id)
  std::vector<netsim::MacAddress> macs;
  std::vector<std::unique_ptr<secproto::MacsecChannel>> mac_tx, mac_rx;
};

template <class Segment>
fault::Metrics run_segment_world(const ScenarioSpec& spec,
                                 core::Scheduler& sim, std::uint64_t seed,
                                 core::SimTime end) {
  using Frame = typename Segment::Frame;
  AVSEC_METRIC_INC("scenario.runs", 1);

  Segment seg(spec, sim);
  for (int i = 0; i < spec.nodes; ++i) {
    seg.eps.push_back(seg.bus.attach(Segment::node_name(i), nullptr));
  }
  const int attacker = seg.bus.attach("attacker", nullptr);
  seg.secure();

  // The attacker records the feed's latest on-wire frame for replay/tamper.
  std::optional<Frame> captured;
  seg.bus.set_rx(attacker, [&](int src, const Frame& f, core::SimTime) {
    if (src == seg.eps[0]) captured = f;
  });

  health::HeartbeatMonitor monitor(sim, monitor_config(spec.period));
  const std::vector<std::string> watched = seg.watched();
  if (spec.defense.monitor) {
    for (const std::string& name : watched) monitor.register_source(name);
  }

  std::uint64_t frames_sent = 0, frames_ok = 0;
  std::uint64_t attack_accepted = 0, attack_rejected = 0;
  core::SimTime last_feed = 0, worst_gap = 0;
  seg.bus.attach(Segment::kReceiver, [&](int src, const Frame& f,
                                         core::SimTime now) {
    const int idx = seg.source_of(f);
    const auto i = static_cast<std::size_t>(idx);
    const bool ok = idx >= 0 && seg.verify(i, f);
    if (src == attacker) {
      ++(ok ? attack_accepted : attack_rejected);
      return;
    }
    if (!ok) return;
    ++frames_ok;
    if (idx == 0) {
      if (last_feed > 0) worst_gap = std::max(worst_gap, now - last_feed);
      last_feed = now;
    }
    if (spec.defense.monitor && i < watched.size()) {
      monitor.heartbeat(watched[i]);
    }
  });

  Publishers publishers(sim, spec, end, [&](int i) {
    const auto payload_byte = static_cast<std::uint8_t>(0x20 + i);
    const auto n = static_cast<std::size_t>(i);
    seg.bus.send(seg.eps[n],
                 seg.publish(n, core::Bytes(spec.payload, payload_byte)));
    ++frames_sent;
  });

  // Protocol-layer attacks, and the bus's own, in spec order.
  const auto fire = [&](const AttackEntry& a) {
    Frame f;
    switch (a.kind) {
      case AttackKind::kReplay:
        if (!captured) return;
        f = *captured;
        break;
      case AttackKind::kTamper:
        if (!captured || captured->payload.empty()) return;
        f = *captured;
        f.payload[0] ^= 0xFF;
        break;
      default:  // kForge
        f = seg.forge();
        break;
    }
    seg.bus.send(attacker, std::move(f));
  };
  for (const AttackEntry& a : spec.attacks) {
    if (!is_protocol_attack(a.kind)) {
      seg.schedule_extra(a);
      continue;
    }
    for (std::uint32_t k = 0; k < a.count; ++k) {
      sim.schedule_at(a.at + a.delta * k, [&fire, &a] { fire(a); });
    }
  }

  seg.arm(seed);
  if (spec.defense.monitor) monitor.start();
  sim.run_until(end);
  if (spec.defense.monitor) monitor.stop();

  const MonitorTally mt = tally(monitor);
  fault::Metrics m;
  m["frames_sent"] = static_cast<double>(frames_sent);
  m["frames_ok"] = static_cast<double>(frames_ok);
  m["worst_gap_ms"] = core::to_microseconds(worst_gap) / 1000.0;
  m["attack_frames"] = static_cast<double>(attack_accepted + attack_rejected);
  m["attack_accepted"] = static_cast<double>(attack_accepted);
  m["attack_rejected"] = static_cast<double>(attack_rejected);
  m["monitor_downs"] = static_cast<double>(mt.downs);
  m["monitor_recoveries"] = static_cast<double>(mt.recoveries);
  seg.add_metrics(m);
  return m;
}

fault::Metrics run_link_world(const ScenarioSpec& spec, core::Scheduler& sim,
                              std::uint64_t seed, core::SimTime end) {
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

  // A "hard" mute (magnitude >= 0.5) also takes the probe responder
  // offline, so challenge-response cannot mask it.
  for (const AttackEntry& a : spec.attacks) {
    if (a.kind != AttackKind::kMute || a.magnitude < 0.5) continue;
    if (!spec.defense.recovery) continue;
    auto* r = responders[static_cast<std::size_t>(a.target)].get();
    sim.schedule_at(a.at, [r] { r->set_online(false); });
    if (a.duration > 0) {
      sim.schedule_at(a.at + a.duration, [r] { r->set_online(true); });
    }
  }

  std::uint64_t beats_sent = 0;
  Publishers beats(sim, spec, end, [&](int i) {
    monitor.heartbeat(names[static_cast<std::size_t>(i)]);
    ++beats_sent;
  });

  monitor.start();
  sim.run_until(end);
  monitor.stop();

  const MonitorTally mt = tally(monitor);
  std::uint64_t answered = 0;
  for (const auto& r : responders) answered += r->challenges_answered();
  bool all_alive = true;
  for (const std::string& name : names) {
    all_alive = all_alive && monitor.state(name) == health::SourceState::kAlive;
  }
  fault::Metrics m;
  m["beats_sent"] = static_cast<double>(beats_sent);
  m["misses"] = static_cast<double>(mt.misses);
  m["downs"] = static_cast<double>(mt.downs);
  m["recoveries"] = static_cast<double>(mt.recoveries);
  m["probes_answered"] = static_cast<double>(answered);
  m["alive_at_end"] = all_alive ? 1.0 : 0.0;
  return m;
}

/// Sim-event budget of one run, for campaign sweeps and serve alike.
constexpr std::uint64_t kMaxEventsPerRun = 20'000'000;

std::string oracle_name(const Oracle& o) {
  return o.metric + " " + oracle_op_name(o.op) + " " + double_literal(o.value);
}

/// An oracle on a metric the run did not report fails.
bool oracle_passes(const Oracle& o, const fault::Metrics& m) {
  const auto it = m.find(o.metric);
  return it != m.end() && oracle_holds(o.op, it->second, o.value);
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
    case Topology::kCan:
      return run_segment_world<CanSegment>(spec_, sim, seed, end);
    case Topology::kT1s:
      return run_segment_world<T1sSegment>(spec_, sim, seed, end);
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
  cfg.supervision.max_events = kMaxEventsPerRun;
  return cfg;
}

fault::Campaign CompiledScenario::campaign(
    std::size_t workers, const std::string& manifest_path) const {
  fault::CampaignConfig cfg = campaign_config(workers);
  cfg.manifest_path = manifest_path;
  fault::Campaign c(cfg);
  for (const Oracle& o : spec_.oracles) {
    c.require(oracle_name(o),
              [o](const fault::Metrics& m) { return oracle_passes(o, m); });
  }
  return c;
}

std::vector<std::string> CompiledScenario::oracle_failures(
    const fault::Metrics& m) const {
  std::vector<std::string> out;
  for (const Oracle& o : spec_.oracles) {
    if (!oracle_passes(o, m)) out.push_back(oracle_name(o));
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
  s.default_max_events = kMaxEventsPerRun;
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
      if (!plan_kind(k) || !contains(valid_attacks(topo), k)) {
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
