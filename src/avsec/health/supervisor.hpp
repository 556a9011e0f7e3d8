// Safety supervision state machine (paper §IV–§VI: supervised recovery —
// the system must degrade predictably, recover within bounded time, and
// stop escalating only when it is actually safe again).
//
//   NOMINAL -> DEGRADED -> LIMP_HOME -> SAFE_STOP
//
// Inputs: watchdog down/recovered edges (HeartbeatMonitor), redundancy
// vote outcomes (RedundancyVoter), and IDS alerts. Any trouble in NOMINAL
// enters DEGRADED and starts a *bounded* recovery: the restart handler is
// invoked (restart-with-checkpoint in a real system) and a per-source
// Watchdog is armed — if the source is not back before the recovery
// deadline, or recoveries repeat faster than the escalation window allows,
// the supervisor escalates one level (escalate-on-repeat). LIMP_HOME
// drives the ids::DegradationManager so service failover and global
// limp-home stay consistent with the supervisor's view. SAFE_STOP is
// terminal. Recovery is stepwise: after `clear_after` of trouble-free
// operation the supervisor steps down exactly one level per dwell, so a
// flapping fault cannot bounce straight from LIMP_HOME to NOMINAL.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/health/heartbeat.hpp"
#include "avsec/health/voting.hpp"
#include "avsec/ids/response.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::health {

enum class SafetyState : std::uint8_t {
  kNominal,
  kDegraded,
  kLimpHome,
  kSafeStop,
};

const char* safety_state_name(SafetyState s);

struct SupervisorConfig {
  /// Evaluation tick for stepping back toward NOMINAL.
  core::SimTime tick_period = core::milliseconds(10);
  /// Trouble-free dwell before stepping down one state level.
  core::SimTime clear_after = core::milliseconds(50);
  /// Deadline for a started recovery to report the source back.
  core::SimTime recovery_deadline = core::milliseconds(300);
  /// Escalate when this many recoveries start within `escalate_window`.
  int repeats_to_escalate = 3;
  core::SimTime escalate_window = core::milliseconds(500);
  /// IDS alerts below this confidence are counted but cause no transition.
  double alert_confidence_floor = 0.7;
  /// When > 0: this many consecutive minority-bearing votes (quorum still
  /// met) count as trouble. 0 = masked disagreement never degrades.
  int disagreements_to_degrade = 0;
};

enum class SupervisorEventKind : std::uint8_t {
  kTransition,
  kRecoveryStarted,
  kRecoverySucceeded,
  kRecoveryTimedOut,
  kEscalated,
};

const char* supervisor_event_kind_name(SupervisorEventKind k);

struct SupervisorEvent {
  core::SimTime time = 0;
  SupervisorEventKind kind{};
  SafetyState from = SafetyState::kNominal;
  SafetyState to = SafetyState::kNominal;
  std::string detail;
};

class SafetySupervisor {
 public:
  /// Restart-with-checkpoint hook: returns false if the restart could not
  /// even be attempted (escalates immediately).
  using RestartFn = std::function<bool(const std::string& source)>;

  SafetySupervisor(core::Scheduler& sim, SupervisorConfig config = {},
                   ids::DegradationManager* dm = nullptr);

  void start();
  void stop();
  void set_restart_handler(RestartFn fn) { restart_ = std::move(fn); }

  // --- inputs ---
  void on_source_down(const std::string& source, core::SimTime now);
  void on_source_recovered(const std::string& source, core::SimTime now);
  void on_vote(const VoteOutcome& outcome, core::SimTime now);
  void on_ids_alert(const ids::Alert& alert, core::SimTime now);

  SafetyState state() const { return state_; }
  const std::vector<SupervisorEvent>& events() const { return events_; }
  std::uint64_t recoveries() const { return recoveries_; }
  std::uint64_t escalations() const { return escalations_; }

 private:
  void tick();
  void trouble(core::SimTime now, const std::string& detail);
  void escalate(core::SimTime now, const std::string& detail);
  void begin_recovery(const std::string& source, core::SimTime now);
  void transition(SafetyState to, core::SimTime now,
                  const std::string& detail);
  void emit(core::SimTime now, SupervisorEventKind kind,
            const std::string& detail);
  bool recovery_pending() const;

  core::Scheduler& sim_;
  SupervisorConfig config_;
  ids::DegradationManager* dm_;
  obs::TrackId obs_track_ = 0;  // virtual trace track for the supervisor
  RestartFn restart_;
  SafetyState state_ = SafetyState::kNominal;
  std::set<std::string> unhealthy_;
  std::map<std::string, std::unique_ptr<Watchdog>> recovery_watchdogs_;
  std::deque<core::SimTime> recovery_starts_;
  core::SimTime last_trouble_ = 0;
  int consecutive_disagreements_ = 0;
  std::vector<SupervisorEvent> events_;
  std::uint64_t recoveries_ = 0;
  std::uint64_t escalations_ = 0;
  core::EventHandle tick_;
  bool running_ = false;
};

}  // namespace avsec::health
