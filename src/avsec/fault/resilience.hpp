// Run-level supervision for campaign sweeps and serve requests (paper
// §VIII: a system that demonstrates graceful degradation should itself
// degrade gracefully).
//
// Campaign sweeps and serve requests treat every scenario run as an
// untrusted unit of work, and both execute it through run_supervised(),
// the one retry loop: a RunGuard wraps each attempt with a sim-time event
// budget (a wedged scheduler loop becomes a structured outcome, not a hung
// sweep) and an optional wall-clock deadline, exceptions become crash-
// family statuses instead of aborting the caller, transiently-failing runs
// are retried on a core::RetryPolicy backoff schedule, and seeds that fail
// every allowed attempt are quarantined — enumerated in the report, never
// silently dropped.
//
// The guard reaches the scenario's private Scheduler through the same
// ambient-install idiom as obs::TraceScope: run_supervised() installs the
// guard thread-locally around each attempt, and the scenario opts in with
// one line — fault::supervise(sim) — after building its scheduler. The
// guard stacks on top of whatever DispatchObserver is already installed
// (e.g. an obs::SchedulerTracer), so supervision and tracing compose.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "avsec/core/retry.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/context.hpp"

namespace avsec::fault {

/// Named scalar results of one scenario run.
using Metrics = std::map<std::string, double>;

/// Terminal classification of one campaign run. The first two mean the
/// run produced metrics; the rest mean the seed is quarantined (it failed
/// every allowed attempt) and a resume will re-execute it.
enum class RunStatus : std::uint8_t {
  kPassed,           // metrics produced, every invariant held
  kViolated,         // metrics produced, >= 1 invariant failed
  kCrashed,          // the scenario threw (what() preserved in the outcome)
  kTimedOut,         // wall-clock deadline exceeded
  kBudgetExhausted,  // sim-time event budget exceeded
};

const char* run_status_name(RunStatus s);

/// Parses the wire name written by the manifest; false on unknown names.
bool parse_run_status(std::string_view name, RunStatus& out);

/// True for the crash-family statuses: the run never produced metrics,
/// its seed is quarantined, and resume re-executes it.
inline bool is_quarantined(RunStatus s) {
  return s == RunStatus::kCrashed || s == RunStatus::kTimedOut ||
         s == RunStatus::kBudgetExhausted;
}

/// Per-run supervision policy: every campaign and serve run executes
/// under it.
struct SupervisionConfig {
  /// Sim-time event budget per attempt: the run is aborted with
  /// kBudgetExhausted after dispatching this many scheduler events.
  /// Only real dispatches count: an idle T1S bus adds none.
  /// 0 = unlimited. Deterministic (a pure function of the seed).
  std::uint64_t max_events = 0;
  /// Wall-clock deadline per attempt, milliseconds; 0 = unlimited. The
  /// one intentionally nondeterministic knob — it exists to catch runs
  /// that wedge without pumping events. Keep it 0 when byte-identical
  /// reports across machines matter more than liveness.
  std::int64_t wall_deadline_ms = 0;
  /// Backoff schedule between attempts of a failing run. The policy's
  /// SimTime fields are read as wall-clock durations here (a retry sleeps
  /// timeout_for(attempt) on the worker thread, capped at 250 ms);
  /// retry.max_retries is the N in "quarantine after N retries".
  core::RetryPolicy retry = {/*initial_timeout=*/core::milliseconds(1),
                             /*backoff_factor=*/2.0,
                             /*max_timeout=*/core::milliseconds(100),
                             /*jitter=*/0.0,
                             /*max_retries=*/1};
};

/// Thrown out of the scenario by the guard when a budget trips.
/// run_supervised() catches it and records the structured status;
/// scenarios that swallow exceptions wholesale should let this one through.
class RunAborted : public std::runtime_error {
 public:
  RunAborted(RunStatus kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  RunStatus kind() const { return kind_; }

 private:
  RunStatus kind_;
};

/// Supervises one run attempt: counts scheduler dispatches against the
/// event budget and polls the wall clock against the deadline, aborting
/// the run with RunAborted when either trips. Stacks over the scheduler's
/// existing dispatch observer so tracing keeps working underneath.
class RunGuard : public core::Scheduler::DispatchObserver {
 public:
  /// Captures the wall-clock start; `config` must outlive the guard.
  explicit RunGuard(const SupervisionConfig& config);

  /// Chains onto `sim`'s dispatch stream. May be called for several
  /// schedulers in one run; the budget covers their combined dispatches.
  /// The guard must outlive every scheduler it attaches to.
  void attach(core::Scheduler& sim);

  void on_dispatch(core::SimTime now, std::uint64_t dispatched) override;

  /// Dispatches observed by this guard so far (across attached schedulers).
  std::uint64_t events() const { return events_; }

 private:
  /// Budget / deadline checks for dispatch `n`; re-arms next_check_.
  void slow_check(std::uint64_t n);

  const SupervisionConfig& config_;
  core::Scheduler::DispatchObserver* next_ = nullptr;
  std::uint64_t events_ = 0;
  /// First dispatch count that needs a budget or wall-clock check; the
  /// hot path is one increment and one compare against this.
  std::uint64_t next_check_ = 0;
  std::int64_t wall_deadline_ns_ = 0;  // absolute steady-clock ns; 0 = none
};

// --- ambient per-thread guard -------------------------------------------
//
// Mirrors the obs ambient-recorder idiom: run_supervised() installs the
// guard around each attempt on the worker thread; the scenario's
// supervise(sim) call attaches it to the world's scheduler without the run
// signature changing.

/// The guard supervising the current thread's run (nullptr = none).
RunGuard* current_guard();

/// Installs `g` as the ambient guard; returns the previous one.
RunGuard* install_guard(RunGuard* g);

/// RAII install/restore of the ambient guard around one run attempt.
class GuardScope {
 public:
  explicit GuardScope(RunGuard& g) : prev_(install_guard(&g)) {}
  ~GuardScope() { install_guard(prev_); }
  GuardScope(const GuardScope&) = delete;
  GuardScope& operator=(const GuardScope&) = delete;

 private:
  RunGuard* prev_;
};

/// Scenario opt-in: attaches the ambient RunGuard (if any) to `sim`.
/// No-op outside a supervised run, so scenarios stay runnable standalone.
/// Call it once per scheduler, after construction.
void supervise(core::Scheduler& sim);

/// How a supervised run ended.
struct SupervisedRun {
  Metrics metrics;  // the completed attempt's; empty when quarantined
  /// kPassed when an attempt completed, else the last attempt's
  /// crash-family status (the seed is quarantined).
  RunStatus status = RunStatus::kPassed;
  std::uint32_t attempts = 0;  // 1 = first try; > 1 means retried
  std::string error;           // what() of the last failing attempt
};

/// The retry loop every campaign and serve run goes through. Each attempt
/// resets `ctx`, installs a fresh RunGuard(sup) as the ambient guard and,
/// with `trace`, ctx.recorder() as the ambient recorder, then calls
/// run(ctx). A throw ends the attempt with a crash-family status; the loop
/// sleeps the retry policy's backoff and tries again, up to
/// retry.max_retries + 1 attempts. Never throws. After a completed
/// attempt, ctx.recorder() holds that attempt's trace.
SupervisedRun run_supervised(const SupervisionConfig& sup, SimContext& ctx,
                             bool trace,
                             const std::function<Metrics(SimContext&)>& run);

}  // namespace avsec::fault
