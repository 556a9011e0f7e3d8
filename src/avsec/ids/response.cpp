#include "avsec/ids/response.hpp"

#include <memory>

#include "avsec/core/scheduler.hpp"
#include "avsec/netsim/traffic.hpp"

namespace avsec::ids {

const char* response_action_name(ResponseAction a) {
  switch (a) {
    case ResponseAction::kLogOnly: return "log only";
    case ResponseAction::kRateLimitId: return "rate-limit ID";
    case ResponseAction::kRekeySession: return "rekey session";
    case ResponseAction::kIsolateEcu: return "isolate ECU";
    case ResponseAction::kLimpHomeMode: return "limp-home mode";
  }
  return "?";
}

ResponseEngine::ResponseEngine(ResponseEngineConfig config)
    : config_(config) {}

double ResponseEngine::effectiveness(ResponseAction action, AlertType type) {
  // How well each response neutralizes each attack class.
  // A silenced sender (bus-off attack) cannot be helped by throttling or
  // isolating anything — only degraded operation preserves safety.
  if (type == AlertType::kUnexpectedSilence) {
    switch (action) {
      case ResponseAction::kLimpHomeMode: return 0.9;
      case ResponseAction::kIsolateEcu: return 0.2;
      case ResponseAction::kRekeySession: return 0.05;
      default: return 0.0;
    }
  }
  switch (action) {
    case ResponseAction::kLogOnly:
      return 0.0;
    case ResponseAction::kRateLimitId:
      return type == AlertType::kRateAnomaly ? 0.7 : 0.2;
    case ResponseAction::kRekeySession:
      // Helps against replay/key-compromise; masquerade via raw CAN ID
      // spoofing is unaffected (no authentication to rekey).
      return type == AlertType::kPayloadAnomaly ? 0.5 : 0.3;
    case ResponseAction::kIsolateEcu:
      return type == AlertType::kWrongSource ? 0.95 : 0.6;
    case ResponseAction::kLimpHomeMode:
      return 0.9;  // blunt but nearly always effective
  }
  return 0.0;
}

double ResponseEngine::cost(ResponseAction action, Criticality criticality) {
  const double crit = criticality == Criticality::kSafety     ? 1.0
                      : criticality == Criticality::kDriving  ? 0.6
                                                              : 0.3;
  switch (action) {
    case ResponseAction::kLogOnly:
      return 0.0;
    case ResponseAction::kRateLimitId:
      return 0.05 + 0.05 * crit;
    case ResponseAction::kRekeySession:
      return 0.1;
    case ResponseAction::kIsolateEcu:
      // Isolating a safety ECU is itself dangerous.
      return 0.15 + 0.5 * crit;
    case ResponseAction::kLimpHomeMode:
      // Flat cost: limp-home *is* the safe degradation path, so its cost
      // does not grow with the asset's criticality the way isolation does.
      return 0.5;
  }
  return 0.0;
}

ResponseDecision ResponseEngine::decide(const Alert& alert,
                                        Criticality criticality) const {
  ResponseDecision best;
  best.action = ResponseAction::kLogOnly;
  best.rationale = "confidence below action floor";

  if (alert.confidence < config_.action_confidence_floor) return best;

  // Risk at stake grows with asset criticality.
  const double risk = criticality == Criticality::kSafety     ? 1.0
                      : criticality == Criticality::kDriving  ? 0.7
                                                              : 0.3;
  best.utility = 0.0;
  for (ResponseAction a :
       {ResponseAction::kLogOnly, ResponseAction::kRateLimitId,
        ResponseAction::kRekeySession, ResponseAction::kIsolateEcu,
        ResponseAction::kLimpHomeMode}) {
    const double reduction =
        effectiveness(a, alert.type) * risk * alert.confidence;
    const double c = cost(a, criticality);
    const double utility = reduction - c;
    if (utility > best.utility) {
      best.action = a;
      best.expected_risk_reduction = reduction;
      best.availability_cost = c;
      best.utility = utility;
      best.rationale = std::string(response_action_name(a)) +
                       ": reduction " + std::to_string(reduction) +
                       " vs cost " + std::to_string(c);
    }
  }
  return best;
}

// --- DegradationManager ---

DegradationManager::DegradationManager(DegradationConfig config,
                                       ResponseEngineConfig engine_config)
    : config_(config), engine_(engine_config) {}

void DegradationManager::register_service(ServiceSpec spec) {
  Service s;
  s.spec = std::move(spec);
  s.active = s.spec.providers.empty() ? "" : s.spec.providers.front();
  services_[s.spec.name] = std::move(s);
}

void DegradationManager::map_provider_node(const std::string& provider,
                                           int node) {
  node_to_provider_[node] = provider;
}

void DegradationManager::emit(core::SimTime now, DegradationEventKind kind,
                              const std::string& service,
                              std::string detail) {
  events_.push_back(
      DegradationEvent{now, kind, service, std::move(detail)});
}

DegradationManager::Service* DegradationManager::service_by_id(
    std::uint32_t can_id) {
  for (auto& [name, s] : services_) {
    if (s.spec.can_id == can_id) return &s;
  }
  return nullptr;
}

void DegradationManager::reselect_provider(Service& s, core::SimTime now) {
  const std::string previous = s.active;
  s.active.clear();
  for (const std::string& p : s.spec.providers) {
    if (s.down.count(p) == 0) {
      s.active = p;
      break;
    }
  }
  if (s.active.empty()) {
    if (!s.lost) {
      s.lost = true;
      emit(now, DegradationEventKind::kServiceLost, s.spec.name,
           "no provider available (was " + previous + ")");
      if (s.spec.criticality == Criticality::kSafety && !limp_home_) {
        limp_home_ = true;
        limp_home_since_ = now;
        emit(now, DegradationEventKind::kLimpHomeEntered, s.spec.name,
             "sole provider of a safety function lost");
      }
    }
    return;
  }
  if (s.lost) {
    s.lost = false;
    emit(now, DegradationEventKind::kServiceRestored, s.spec.name,
         "provider " + s.active);
  }
  if (!previous.empty() && s.active != previous) {
    const bool to_primary =
        !s.spec.providers.empty() && s.active == s.spec.providers.front();
    emit(now,
         to_primary ? DegradationEventKind::kFailback
                    : DegradationEventKind::kFailover,
         s.spec.name, previous + " -> " + s.active);
  }
}

ResponseDecision DegradationManager::on_alert(const Alert& alert,
                                              core::SimTime now) {
  Service* s = service_by_id(alert.can_id);
  const Criticality crit =
      s ? s->spec.criticality : Criticality::kDriving;
  const ResponseDecision decision = engine_.decide(alert, crit);

  if (alert.type == AlertType::kUnexpectedSilence && s && !s->active.empty()) {
    // The service's PDU went silent: its active provider is de facto down
    // (bus-off attack, crashed ECU, severed harness).
    on_provider_down(s->active, now);
  } else if (decision.action == ResponseAction::kIsolateEcu) {
    // Isolating the offending ECU removes it as a provider; if it was the
    // sole provider of a safety function this cascades into limp-home.
    const auto it = node_to_provider_.find(alert.observed_source);
    if (it != node_to_provider_.end()) on_provider_down(it->second, now);
  } else if (decision.action == ResponseAction::kLimpHomeMode &&
             !limp_home_) {
    limp_home_ = true;
    limp_home_since_ = now;
    emit(now, DegradationEventKind::kLimpHomeEntered,
         s ? s->spec.name : "", "response engine selected limp-home");
  }
  poll(now);
  return decision;
}

void DegradationManager::on_provider_down(const std::string& provider,
                                          core::SimTime now) {
  for (auto& [name, s] : services_) {
    bool provides = false;
    for (const std::string& p : s.spec.providers) provides |= p == provider;
    if (!provides || s.down.count(provider)) continue;
    s.down.insert(provider);
    if (s.active == provider || s.active.empty()) reselect_provider(s, now);
  }
}

void DegradationManager::on_provider_up(const std::string& provider,
                                        core::SimTime now) {
  for (auto& [name, s] : services_) {
    if (s.down.erase(provider) == 0) continue;
    reselect_provider(s, now);
  }
  poll(now);
}

void DegradationManager::on_service_heard(std::uint32_t can_id,
                                          core::SimTime now) {
  Service* s = service_by_id(can_id);
  if (s == nullptr) return;
  if (s->lost) {
    // Traffic proves some provider is alive again; clear health state.
    s->down.clear();
    reselect_provider(*s, now);
  }
  poll(now);
}

void DegradationManager::poll(core::SimTime now) {
  if (!limp_home_) return;
  if (now - limp_home_since_ < config_.min_limp_home_duration) return;
  for (const auto& [name, s] : services_) {
    if (s.spec.criticality == Criticality::kSafety && s.lost) return;
  }
  limp_home_ = false;
  emit(now, DegradationEventKind::kLimpHomeExited, "",
       "all safety services restored");
}

bool DegradationManager::service_available(const std::string& service) const {
  const auto it = services_.find(service);
  return it != services_.end() && !it->second.lost;
}

std::string DegradationManager::active_provider(
    const std::string& service) const {
  const auto it = services_.find(service);
  return it == services_.end() ? "" : it->second.active;
}

MasqueradeExperimentResult run_masquerade_experiment(
    const MasqueradeExperimentConfig& config) {
  core::Scheduler sim;
  netsim::CanBusConfig bus_cfg;
  netsim::CanBus bus(sim, bus_cfg);

  MasqueradeExperimentResult result;
  CanIds ids;
  ResponseEngine engine;

  // Nodes: ECU 0 legitimately owns victim_id; the last node is the
  // compromised one that will masquerade.
  std::vector<int> nodes;
  for (int i = 0; i < config.n_ecus; ++i) {
    nodes.push_back(bus.attach("ecu-" + std::to_string(i), nullptr));
  }
  const int attacker = nodes.back();
  const int monitor = bus.attach("ids-tap", nullptr);
  (void)monitor;

  core::SimTime first_attack_frame = -1;
  core::SimTime detected_at = -1;
  bool response_applied = false;
  std::uint64_t clean_frames = 0, clean_alerts = 0;

  // IDS tap: the gateway sees every frame with its source.
  bus.set_rx(nodes[1], [&](int src, const netsim::CanFrame& f,
                           core::SimTime now) {
    CanObservation obs{f.id, src, now, f.payload};
    if (!ids.frozen()) {
      ids.learn(obs);
      return;
    }
    // Response simulation: an isolated attacker's frames are discarded
    // before application delivery (here: not counted as accepted).
    const bool malicious = src == attacker && f.id == config.victim_id;
    if (response_applied && malicious &&
        (result.response.action == ResponseAction::kIsolateEcu ||
         result.response.action == ResponseAction::kLimpHomeMode)) {
      return;  // blocked
    }
    const auto alerts = ids.monitor(obs);
    if (!malicious) {
      ++clean_frames;
      clean_alerts += alerts.size();
    }
    if (malicious) {
      if (detected_at < 0) ++result.malicious_frames_before_detection;
      if (response_applied) ++result.malicious_frames_accepted_after_response;
    }
    if (!alerts.empty() && detected_at < 0 && malicious) {
      detected_at = now;
      result.detected = true;
      result.first_alert_type = alerts.front().type;
      result.detection_latency =
          first_attack_frame >= 0 ? now - first_attack_frame : 0;
      result.response = engine.decide(alerts.front(), config.criticality);
      response_applied = true;
    }
  });

  // Legitimate periodic senders: ECU i sends ID 0x100 + i.
  std::vector<std::unique_ptr<netsim::PeriodicSource>> sources;
  for (int i = 0; i + 1 < config.n_ecus; ++i) {
    const std::uint32_t id = 0x100 + static_cast<std::uint32_t>(i);
    const int node = nodes[std::size_t(i)];
    sources.push_back(std::make_unique<netsim::PeriodicSource>(
        sim, config.victim_period,
        [&, id, node](std::uint64_t seq) {
          netsim::CanFrame f;
          f.id = id;
          f.payload = {static_cast<std::uint8_t>(seq & 0x1F), 0xA5, 0x01};
          bus.send(node, std::move(f));
        },
        0, core::microseconds(50), config.seed + std::uint64_t(i)));
    sources.back()->start(core::microseconds(100 * (i + 1)));
  }

  // Train, then freeze and start the masquerade.
  sim.schedule_at(config.train_duration, [&] { ids.freeze(); });
  sources.push_back(std::make_unique<netsim::PeriodicSource>(
      sim, config.attack_period,
      [&](std::uint64_t) {
        if (first_attack_frame < 0) first_attack_frame = sim.now();
        netsim::CanFrame f;
        f.id = config.victim_id;       // impersonate the victim ID
        f.payload = {0xFF, 0xFF, 0xFF};  // hostile command payload
        bus.send(attacker, std::move(f));
      },
      0, core::microseconds(50), config.seed + 100));
  sources.back()->start(config.train_duration + core::milliseconds(1));

  sim.run_until(config.train_duration + config.attack_duration);

  result.clean_false_positive_rate =
      clean_frames == 0 ? 0.0
                        : static_cast<double>(clean_alerts) /
                              static_cast<double>(clean_frames);
  return result;
}

FloodExperimentResult run_flood_experiment(const FloodExperimentConfig& config) {
  core::Scheduler sim;
  netsim::CanBus bus(sim, {});
  FloodExperimentResult result;

  const int victim = bus.attach("victim", nullptr);
  const int attacker = bus.attach("attacker", nullptr);
  const int gateway = bus.attach("gateway", nullptr);

  CanIds ids;
  ResponseEngine engine;
  bool rate_limited = false;

  // Phase boundaries.
  const core::SimTime t_train_end = config.phase;
  const core::SimTime t_attack_start = 2 * config.phase;
  const core::SimTime t_end = 3 * config.phase;

  core::Samples before, during, after;
  netsim::LatencyProbe probe(sim);

  bus.set_rx(gateway, [&](int src, const netsim::CanFrame& f,
                          core::SimTime now) {
    // Gateway-enforced rate limiting: flood frames are dropped post-bus in
    // this model (a real gateway would throttle at the ingress port; the
    // observable effect — restored victim service — is modeled below by
    // silencing the attacker queue).
    const CanObservation obs{f.id, src, now, f.payload};
    if (!ids.frozen()) {
      ids.learn(obs);
    } else {
      const auto alerts = ids.monitor(obs);
      if (!alerts.empty() && src == attacker && !rate_limited) {
        // Early low-confidence alerts (first unknown-ID sightings) only
        // log; the engine re-evaluates as the flood evidence hardens.
        result.detected = true;
        const auto decision =
            engine.decide(alerts.front(), Criticality::kDriving);
        if (!result.detected || decision.utility > result.response.utility ||
            result.response.rationale.empty()) {
          result.response = decision;
        }
        if (config.respond &&
            (decision.action == ResponseAction::kRateLimitId ||
             decision.action == ResponseAction::kIsolateEcu)) {
          result.response = decision;
          rate_limited = true;
        }
      }
    }
    if (f.id == config.victim_id) {
      const double us = probe.mark_received(core::read_be(f.payload, 0, 8));
      if (us < 0) return;
      if (now < t_attack_start) {
        before.add(us);
      } else if (!rate_limited) {
        during.add(us);
      } else {
        after.add(us);
      }
    }
  });

  // Victim: periodic low-priority application PDUs.
  std::uint64_t seq = 0;
  netsim::PeriodicSource victim_src(
      sim, config.victim_period,
      [&](std::uint64_t) {
        netsim::CanFrame f;
        f.id = config.victim_id;
        core::append_be(f.payload, seq, 8);
        probe.mark_sent(seq++);
        bus.send(victim, std::move(f));
      },
      0);
  victim_src.start(core::microseconds(500));

  sim.schedule_at(t_train_end, [&] { ids.freeze(); });

  // Attacker: saturating flood of top-priority frames. Modeled as a
  // self-rescheduling sender that keeps two frames in its queue unless the
  // gateway has rate-limited it.
  std::function<void()> flood = [&] {
    if (sim.now() >= t_end) return;
    if (!rate_limited && bus.queue_depth(attacker) < 2) {
      netsim::CanFrame f;
      f.id = config.flood_id;
      f.payload = core::Bytes(8, 0xEE);
      bus.send(attacker, std::move(f));
    }
    sim.schedule_in(core::microseconds(50), [f = &flood] { (*f)(); });
  };
  sim.schedule_at(t_attack_start, [f = &flood] { (*f)(); });

  sim.run_until(t_end);

  result.victim_p99_before_us = before.quantile(0.99);
  result.victim_p99_during_us = during.quantile(0.99);
  result.victim_p99_after_us = after.quantile(0.99);
  result.victim_lost_during = probe.in_flight();
  return result;
}

}  // namespace avsec::ids
