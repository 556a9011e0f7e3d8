// Liveness supervision (paper §IV–§VI: an autonomous system must *keep
// operating* under component failure — which starts with knowing, within a
// bounded delay, which components are alive).
//
// Two layers:
//  - Watchdog: a single-deadline countdown — kick() before the deadline or
//    the expiry callback fires. The SafetySupervisor arms one per recovery
//    to bound recovery time.
//  - HeartbeatMonitor: scheduler-driven multi-source liveness tracking with
//    per-source deadlines and miss budgets. A source that misses its
//    deadline becomes suspect; after `miss_budget` consecutive misses it is
//    declared down. Optionally a suspect source is actively challenged with
//    a nonce over a netsim::FlakyChannel (challenge-response probe): a
//    correct echo counts as proof of life even if the periodic publisher is
//    wedged, so a congested-but-healthy node is not declared dead.
//
// All timing is simulation-driven and deterministic; the event trace is
// asserted by tests and printed by the chaos example.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/netsim/flaky.hpp"

namespace avsec::health {

/// Single-deadline watchdog. arm() starts the countdown, kick() restarts
/// it, disarm() stops it. If the deadline passes without a kick the expiry
/// callback fires exactly once per arming.
class Watchdog {
 public:
  using ExpiredFn = std::function<void(core::SimTime now)>;

  Watchdog(core::Scheduler& sim, core::SimTime deadline, ExpiredFn on_expired);

  void arm();
  void kick();    // restart the countdown (no-op when not armed)
  void disarm();  // cancel without firing
  bool armed() const { return armed_; }
  std::uint64_t expirations() const { return expirations_; }

 private:
  core::Scheduler& sim_;
  core::SimTime deadline_;
  ExpiredFn on_expired_;
  core::EventHandle timer_;
  bool armed_ = false;
  std::uint64_t expirations_ = 0;
};

enum class SourceState : std::uint8_t {
  kAlive,    // heard within its deadline
  kSuspect,  // missed at least one deadline, budget not yet exhausted
  kDown,     // miss budget exhausted
};

struct HeartbeatConfig {
  /// Supervision tick: how often deadlines are evaluated.
  core::SimTime check_period = core::milliseconds(10);
  /// Default per-source silence deadline (overridable per source).
  core::SimTime deadline = core::milliseconds(30);
  /// Consecutive missed checks before a source is declared down.
  int miss_budget = 2;
};

enum class HeartbeatEventKind : std::uint8_t {
  kMiss,           // a check tick found the source past its deadline
  kDown,           // miss budget exhausted
  kRecovered,      // a down source was heard again
  kProbeSent,      // challenge nonce sent to a suspect source
  kProbeAnswered,  // the nonce came back: proof of life
};

struct HeartbeatEvent {
  core::SimTime time = 0;
  HeartbeatEventKind kind{};
  std::string source;
  int misses = 0;  // consecutive misses after this event
};

/// Echo endpoint for challenge-response probes: binds end B of a channel
/// and echoes every datagram back while online. Scenario code toggles
/// online() to model the probed node crashing.
class ChallengeResponder {
 public:
  explicit ChallengeResponder(netsim::FlakyChannel& channel);

  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }
  std::uint64_t challenges_answered() const { return answered_; }

 private:
  netsim::FlakyChannel& channel_;
  bool online_ = true;
  std::uint64_t answered_ = 0;
};

/// Multi-source liveness tracker driven by the scheduler.
class HeartbeatMonitor {
 public:
  using StateFn = std::function<void(const std::string& source,
                                     core::SimTime now)>;

  HeartbeatMonitor(core::Scheduler& sim, HeartbeatConfig config = {});

  /// Registers a source under the default deadline / miss budget.
  void register_source(const std::string& name);
  /// Registers a source with its own deadline and miss budget.
  void register_source(const std::string& name, core::SimTime deadline,
                       int miss_budget);

  /// Attaches a challenge-response probe for `name`: on a missed deadline a
  /// nonce is sent on end A of `channel`; an echo arriving before the miss
  /// budget is exhausted counts as a heartbeat.
  void attach_probe(const std::string& name, netsim::FlakyChannel& channel,
                    std::uint64_t seed = 1);

  /// A liveness proof for `name` at the current simulation time.
  void heartbeat(const std::string& name);

  /// Starts / stops the periodic deadline evaluation.
  void start();
  void stop();

  void on_down(StateFn fn) { on_down_ = std::move(fn); }
  void on_recovered(StateFn fn) { on_recovered_ = std::move(fn); }

  SourceState state(const std::string& name) const;
  int consecutive_misses(const std::string& name) const;
  const std::vector<HeartbeatEvent>& events() const { return events_; }
  std::size_t sources() const { return sources_.size(); }

 private:
  struct Source {
    core::SimTime deadline = 0;
    int miss_budget = 0;
    core::SimTime last_beat = 0;
    int misses = 0;
    SourceState state = SourceState::kAlive;
    netsim::FlakyChannel* probe = nullptr;
    std::uint64_t next_nonce = 0;
    std::uint64_t outstanding_nonce = 0;
    bool probe_outstanding = false;
  };

  void check_tick();
  void emit(HeartbeatEventKind kind, const std::string& source, int misses);
  Source& at(const std::string& name);
  const Source& at(const std::string& name) const;

  core::Scheduler& sim_;
  HeartbeatConfig config_;
  std::map<std::string, Source> sources_;
  std::vector<HeartbeatEvent> events_;
  StateFn on_down_;
  StateFn on_recovered_;
  core::EventHandle tick_;
  bool running_ = false;
};

}  // namespace avsec::health
