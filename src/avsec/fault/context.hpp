// Reusable per-worker simulation context: the warm home of a campaign
// worker's runs.
//
// Every campaign and serve run executes on one: fault::Campaign builds one
// per sweep worker, serve::Server one per worker slot, and each resets it
// before every attempt. Building a fresh world per seed instead (a new
// Scheduler heap and a new trace recorder, all grown from empty) measured
// at half the throughput on the event-heavy T1S sweeps. A SimContext
// bundles what a worker should build once and reuse per seed: a Scheduler
// whose vectors keep their capacity across reset(), and a TraceRecorder
// whose ring and intern table persist across runs. reset() returns the
// whole bundle to a state indistinguishable from freshly constructed —
// the reset-determinism contract tests/fault/campaign_context_test.cpp
// enforces byte-for-byte on whole CampaignReports against scenarios that
// build a fresh world per run.
//
// Like the Scheduler it wraps, a SimContext is thread-confined, never
// shared: one context per worker thread, reset() rebinds confinement to
// the calling thread (the build-on-main / run-on-worker handoff).
#pragma once

#include <cstdint>

#include "avsec/core/scheduler.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::fault {

class SimContext {
 public:
  SimContext() = default;

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  /// The scheduler for the current run.
  core::Scheduler& sim() { return sim_; }
  /// Persistent recorder: ring and intern table survive reset().
  obs::TraceRecorder& recorder() { return recorder_; }

  /// Rewinds everything between seeds: scheduler back to its
  /// freshly-constructed state (capacity kept), then the recorder (counts
  /// and tracks rewound, intern cache kept). Also rebinds thread
  /// confinement to the caller, so the first reset() on a worker thread
  /// doubles as the ownership handoff.
  void reset();

  /// reset() calls over the context's lifetime (for tests and benches).
  std::uint64_t resets() const { return resets_; }

 private:
  core::Scheduler sim_;
  obs::TraceRecorder recorder_;
  std::uint64_t resets_ = 0;
};

}  // namespace avsec::fault
