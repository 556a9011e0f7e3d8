// Autonomous intrusion response (paper §VIII: systems must be
// "self-resilient and capable of proactive measures"; modeled after the
// REACT response-selection idea: pick the response whose expected risk
// reduction best justifies its availability cost).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "avsec/ids/can_ids.hpp"

namespace avsec::ids {

enum class ResponseAction : std::uint8_t {
  kLogOnly,
  kRateLimitId,     // throttle the offending CAN ID at the gateway
  kRekeySession,    // rotate session keys (counters masquerade w/ stolen key)
  kIsolateEcu,      // disconnect the offending node
  kLimpHomeMode,    // degrade to minimal safe functionality
};

const char* response_action_name(ResponseAction a);

/// Asset criticality of the attacked function.
enum class Criticality : std::uint8_t { kComfort, kDriving, kSafety };

struct ResponseDecision {
  ResponseAction action = ResponseAction::kLogOnly;
  double expected_risk_reduction = 0.0;
  double availability_cost = 0.0;
  double utility = 0.0;
  std::string rationale;
};

struct ResponseEngineConfig {
  /// Confidence below which only logging is justified.
  double action_confidence_floor = 0.5;
};

/// Utility-based response selection.
class ResponseEngine {
 public:
  explicit ResponseEngine(ResponseEngineConfig config = {});

  /// Chooses the best response for an alert on an asset of the given
  /// criticality.
  ResponseDecision decide(const Alert& alert, Criticality criticality) const;

  /// Effectiveness of `action` against the attack class behind `type`
  /// (0..1 — probability the attack is neutralized).
  static double effectiveness(ResponseAction action, AlertType type);

  /// Availability cost of `action` given the asset criticality (0..1).
  static double cost(ResponseAction action, Criticality criticality);

 private:
  ResponseEngineConfig config_;
};

// --- Graceful degradation (fault-aware response) ---

enum class DegradationEventKind : std::uint8_t {
  kServiceLost,      // no provider of the service is available
  kFailover,         // active provider switched to a backup
  kFailback,         // active provider switched back to the primary
  kLimpHomeEntered,  // a safety service has no provider: degrade globally
  kServiceRestored,  // the service is being provided again
  kLimpHomeExited,
};

/// Structured degradation event, emitted in order.
struct DegradationEvent {
  core::SimTime time = 0;
  DegradationEventKind kind{};
  std::string service;
  std::string detail;
};

/// A vehicle function and the ECUs able to provide it. providers[0] is the
/// primary; later entries are failover backups.
struct ServiceSpec {
  std::string name;
  std::uint32_t can_id = 0;  // PDU that carries the service
  Criticality criticality = Criticality::kDriving;
  std::vector<std::string> providers;
};

struct DegradationConfig {
  /// Limp-home is sticky: it is not exited before this much time has
  /// passed since entry, even if the service recovers sooner.
  core::SimTime min_limp_home_duration = core::milliseconds(50);
};

/// Tracks service -> provider health, selects failovers, and enters/exits
/// limp-home mode when a safety function loses its last provider. Faults
/// reach it three ways: IDS alerts (on_alert — e.g. unexpected silence of
/// a service PDU, or an isolate-ECU response that removes a provider),
/// explicit provider health transitions (on_provider_down/up — wired to
/// fault-injection node crashes), and live traffic (on_service_heard).
class DegradationManager {
 public:
  explicit DegradationManager(DegradationConfig config = {},
                              ResponseEngineConfig engine_config = {});

  void register_service(ServiceSpec spec);
  /// Associates a bus node index with a provider name so alert sources can
  /// be mapped back to providers.
  void map_provider_node(const std::string& provider, int node);

  /// Feeds an IDS alert: selects a response via the ResponseEngine using
  /// the owning service's criticality, and applies its fault-relevant
  /// consequences (silence -> provider down; isolate -> provider removed,
  /// with failover or limp-home if it was the sole provider).
  ResponseDecision on_alert(const Alert& alert, core::SimTime now);

  void on_provider_down(const std::string& provider, core::SimTime now);
  void on_provider_up(const std::string& provider, core::SimTime now);
  /// A frame carrying `can_id` was seen: the service is provably alive.
  void on_service_heard(std::uint32_t can_id, core::SimTime now);
  /// Re-evaluates limp-home exit (call periodically or on any heartbeat).
  void poll(core::SimTime now);

  bool in_limp_home() const { return limp_home_; }
  bool service_available(const std::string& service) const;
  /// Currently active provider ("" if none).
  std::string active_provider(const std::string& service) const;
  const std::vector<DegradationEvent>& events() const { return events_; }
  ResponseEngine& engine() { return engine_; }

 private:
  struct Service {
    ServiceSpec spec;
    std::set<std::string> down;  // providers currently unavailable
    std::string active;          // "" when lost
    bool lost = false;
  };

  void emit(core::SimTime now, DegradationEventKind kind,
            const std::string& service, std::string detail);
  void reselect_provider(Service& s, core::SimTime now);
  Service* service_by_id(std::uint32_t can_id);

  DegradationConfig config_;
  ResponseEngine engine_;
  std::map<std::string, Service> services_;
  std::map<int, std::string> node_to_provider_;
  std::vector<DegradationEvent> events_;
  bool limp_home_ = false;
  core::SimTime limp_home_since_ = 0;
};

/// End-to-end masquerade experiment on a CAN bus: train the IDS on clean
/// periodic traffic, start a masquerade injector, detect, respond, and
/// report what happened.
struct MasqueradeExperimentConfig {
  int n_ecus = 4;
  std::uint32_t victim_id = 0x100;
  core::SimTime train_duration = core::milliseconds(500);
  core::SimTime attack_duration = core::milliseconds(500);
  core::SimTime victim_period = core::milliseconds(10);
  core::SimTime attack_period = core::milliseconds(10);
  Criticality criticality = Criticality::kDriving;
  std::uint64_t seed = 1;
};

struct MasqueradeExperimentResult {
  bool detected = false;
  core::SimTime detection_latency = 0;  // from first malicious frame
  AlertType first_alert_type = AlertType::kRateAnomaly;
  ResponseDecision response;
  std::uint64_t malicious_frames_before_detection = 0;
  std::uint64_t malicious_frames_accepted_after_response = 0;
  double clean_false_positive_rate = 0.0;  // alerts per clean frame
};

MasqueradeExperimentResult run_masquerade_experiment(
    const MasqueradeExperimentConfig& config);

/// Flood (denial-of-service) experiment: an attacker spams the highest-
/// priority CAN ID so that lower-priority safety traffic starves in
/// arbitration. The IDS flags the unknown/high-rate ID; the rate-limit
/// response throttles it at the gateway and service recovers.
struct FloodExperimentConfig {
  std::uint32_t flood_id = 0x000;   // wins every arbitration
  std::uint32_t victim_id = 0x300;  // periodic application traffic
  core::SimTime victim_period = core::milliseconds(10);
  core::SimTime phase = core::milliseconds(300);  // per-phase duration
  bool respond = true;
  std::uint64_t seed = 1;
};

struct FloodExperimentResult {
  double victim_p99_before_us = 0.0;   // healthy bus
  double victim_p99_during_us = 0.0;   // under flood (until response)
  double victim_p99_after_us = 0.0;    // after the response (if any)
  std::uint64_t victim_lost_during = 0;  // PDUs still queued at phase end
  bool detected = false;
  ResponseDecision response;
};

FloodExperimentResult run_flood_experiment(const FloodExperimentConfig& config);

}  // namespace avsec::ids
