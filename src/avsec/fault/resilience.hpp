// Run-level supervision for campaign sweeps and serve requests (paper
// §VIII: a system that demonstrates graceful degradation should itself
// degrade gracefully).
//
// Campaign sweeps and serve requests treat every scenario run as an
// untrusted unit of work, and both execute it through run_supervised(),
// the one retry loop: each attempt runs under a sim-time event budget (a
// wedged scheduler loop becomes a structured outcome, not a hung sweep)
// and an optional wall-clock deadline, exceptions become crash-family
// statuses instead of aborting the caller, transiently-failing runs are
// retried on a core::RetryPolicy backoff schedule, and seeds that fail
// every allowed attempt are quarantined — enumerated in the report, never
// silently dropped.
//
// Every run executes on its context's scheduler, ctx.sim(), so the
// supervisor attaches there itself: a scenario cannot opt out of it and
// needs no call to opt in. A scenario that builds a scheduler of its own
// is unsupervised on that scheduler, as it is outside a sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "avsec/core/retry.hpp"
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

/// Thrown out of the scenario's scheduler when a budget trips.
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
/// resets `ctx`, installs the attempt's budget and deadline as ctx.sim()'s
/// dispatch observer (removed again when the attempt ends) and, with
/// `trace`, ctx.recorder() as the ambient recorder, then calls run(ctx).
/// A throw ends the attempt with a crash-family status; the loop sleeps
/// the retry policy's backoff and tries again, up to retry.max_retries + 1
/// attempts. Never throws. After a completed attempt, ctx.recorder() holds
/// that attempt's trace.
SupervisedRun run_supervised(const SupervisionConfig& sup, SimContext& ctx,
                             bool trace,
                             const std::function<Metrics(SimContext&)>& run);

}  // namespace avsec::fault
