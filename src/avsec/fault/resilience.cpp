#include "avsec/fault/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "avsec/obs/trace.hpp"

namespace avsec::fault {
namespace {

// The wall-clock deadline is the one supervision feature that cannot be
// simulated: it exists to catch runs that wedge without pumping sim
// events, so it must read the host clock.
// AVSEC-LINT-ALLOW(R5): the wedge deadline is deliberately wall-clock; it times out stuck runs and never feeds sim state or reports
std::int64_t wall_now_ns() {
  using wall_clock = std::chrono::steady_clock;  // AVSEC-LINT-ALLOW(R1): wall-clock run deadline must read the host clock
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             wall_clock::now().time_since_epoch())
      .count();
}

// Poll the wall clock once per this many dispatches: frequent enough to
// trip a deadline within microseconds of real work, rare enough that the
// clock read never shows up in profiles.
constexpr std::uint64_t kWallPollStride = 512;

// Hard cap on the wall-clock sleep between attempts of a failing run.
constexpr std::int64_t kMaxBackoffNs = 250'000'000;

thread_local RunGuard* tl_guard = nullptr;

}  // namespace

const char* run_status_name(RunStatus s) {
  switch (s) {
    case RunStatus::kPassed: return "passed";
    case RunStatus::kViolated: return "violated";
    case RunStatus::kCrashed: return "crashed";
    case RunStatus::kTimedOut: return "timed_out";
    case RunStatus::kBudgetExhausted: return "budget_exhausted";
  }
  return "?";
}

bool parse_run_status(std::string_view name, RunStatus& out) {
  for (RunStatus s : {RunStatus::kPassed, RunStatus::kViolated,
                      RunStatus::kCrashed, RunStatus::kTimedOut,
                      RunStatus::kBudgetExhausted}) {
    if (name == run_status_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

RunGuard::RunGuard(const SupervisionConfig& config) : config_(config) {
  if (config_.wall_deadline_ms > 0) {
    wall_deadline_ns_ = wall_now_ns() + config_.wall_deadline_ms * 1'000'000;
  }
  next_check_ = UINT64_MAX;
  if (config_.max_events != 0) next_check_ = config_.max_events + 1;
  if (wall_deadline_ns_ != 0 && kWallPollStride < next_check_) {
    next_check_ = kWallPollStride;
  }
}

void RunGuard::attach(core::Scheduler& sim) {
  if (sim.dispatch_observer() == this) return;  // already attached
  next_ = sim.dispatch_observer();
  sim.set_dispatch_observer(this);
}

void RunGuard::on_dispatch(core::SimTime now, std::uint64_t dispatched) {
  const std::uint64_t n = ++events_;
  if (n >= next_check_) slow_check(n);
  if (next_ != nullptr) next_->on_dispatch(now, dispatched);
}

void RunGuard::slow_check(std::uint64_t n) {
  if (config_.max_events != 0 && n > config_.max_events) {
    throw RunAborted(RunStatus::kBudgetExhausted,
                     "sim event budget exhausted after " +
                         std::to_string(config_.max_events) + " dispatches");
  }
  if (wall_deadline_ns_ != 0 && n % kWallPollStride == 0 &&
      wall_now_ns() > wall_deadline_ns_) {
    throw RunAborted(RunStatus::kTimedOut,
                     "wall-clock deadline (" +
                         std::to_string(config_.wall_deadline_ms) +
                         " ms) exceeded");
  }
  // Re-arm: the earlier of the budget trip and the next wall-clock poll.
  next_check_ = UINT64_MAX;
  if (config_.max_events != 0) next_check_ = config_.max_events + 1;
  if (wall_deadline_ns_ != 0) {
    const std::uint64_t poll = (n / kWallPollStride + 1) * kWallPollStride;
    if (poll < next_check_) next_check_ = poll;
  }
}

RunGuard* current_guard() { return tl_guard; }

RunGuard* install_guard(RunGuard* g) {
  RunGuard* prev = tl_guard;
  tl_guard = g;
  return prev;
}

void supervise(core::Scheduler& sim) {
  if (tl_guard != nullptr) tl_guard->attach(sim);
}

SupervisedRun run_supervised(const SupervisionConfig& sup, SimContext& ctx,
                             bool trace,
                             const std::function<Metrics(SimContext&)>& run) {
  SupervisedRun r;
  const int max_attempts = std::max(sup.retry.max_retries, 0) + 1;
  for (int attempt = 0;; ++attempt) {
    r.attempts = static_cast<std::uint32_t>(attempt + 1);
    try {
      RunGuard guard(sup);
      GuardScope scope(guard);  // the scenario's supervise(sim) finds it
      // Every attempt, retries included, starts from the reset-determinism
      // baseline: scheduler rewound, recorder emptied.
      ctx.reset();
      if (trace) {
        obs::TraceScope ts(ctx.recorder());
        r.metrics = run(ctx);
      } else {
        r.metrics = run(ctx);
      }
      r.status = RunStatus::kPassed;
      r.error.clear();
      return r;
    } catch (const RunAborted& e) {
      r.status = e.kind();
      r.error = e.what();
    } catch (const std::exception& e) {
      r.status = RunStatus::kCrashed;
      r.error = e.what();
    } catch (...) {
      r.status = RunStatus::kCrashed;
      r.error = "unknown exception";
    }
    r.metrics.clear();
    if (attempt + 1 >= max_attempts) return r;  // quarantined
    // The backoff paces retries and never touches the result, so it may
    // be wall-clock: RetryPolicy's SimTime (picoseconds) read as a pause.
    const std::int64_t pause_ns =
        std::min(sup.retry.timeout_for(attempt) / 1000, kMaxBackoffNs);
    if (pause_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(pause_ns));
    }
  }
}

}  // namespace avsec::fault
