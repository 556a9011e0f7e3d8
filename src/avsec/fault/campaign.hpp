// Fault-injection campaigns: sweep a scenario across seeded runs and
// check user-supplied invariants on each run's metrics.
//
// A campaign is the executable form of a resilience claim: "under any
// fault schedule drawn from this family, the bus recovers / the session
// re-establishes / latency stays bounded." The runner derives one seed per
// run from the base seed, calls the user's scenario function (which builds
// its world on the context's scheduler, arms a FaultPlan, runs it and
// returns named metrics), and evaluates every invariant against those
// metrics.
//
// Every run executes on its worker's warm SimContext (a scheduler whose
// vectors keep their capacity, a persistent trace recorder), reset before
// each attempt instead of rebuilt. Sweeps fan out through
// core::parallel_for when `workers > 1`: each worker thread claims run
// indices one at a time and runs them on its own context. The runs are
// independent worlds by construction (reset scheduler, fresh RNG stream,
// seed derived per run index), so the parallel sweep produces a report
// byte-identical to the serial one: outcomes are stored by run index, and
// aggregation folds through a fixed merge tree over run-order blocks whose
// boundaries depend only on the run count — never on workers (see
// DESIGN.md §8). The scenario function must be safe to
// call concurrently; it must not touch shared mutable state outside its
// own context.
//
// Every run executes under supervision (fault::run_supervised, shared
// with serve): a throwing run becomes a structured RunOutcome (kCrashed /
// kTimedOut / kBudgetExhausted) instead of aborting the sweep, failing
// runs are retried on the policy's backoff schedule, and seeds that fail
// every attempt are quarantined — enumerated in the report, never
// dropped. With `config.manifest_path` set, the sweep journals every
// completed run to a crash-tolerant manifest that Campaign::resume() uses
// to re-run only the missing or quarantined runs; the merged report is
// byte-identical to an uninterrupted sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "avsec/core/stats.hpp"
#include "avsec/fault/context.hpp"
#include "avsec/fault/resilience.hpp"

namespace avsec::fault {

/// Per-run trace capture policy for a sweep. Capture installs the worker
/// context's obs::TraceRecorder (emptied by the reset before each attempt)
/// as the ambient recorder around the run, scoped to the worker thread.
enum class TraceCapture : std::uint8_t {
  kOff,          // no recorder installed (default; zero overhead)
  kFailingRuns,  // record every run, keep the dump only when it fails
  kAllRuns,      // keep every run's dump
};

struct CampaignConfig {
  std::size_t runs = 10;
  std::uint64_t base_seed = 1;
  /// Worker threads for the sweep: 1 = serial (default), 0 = one per
  /// hardware thread. Any value yields the same report bit-for-bit.
  std::size_t workers = 1;
  /// Per-run trace capture (auto-records the failing seed's forensics).
  TraceCapture trace = TraceCapture::kOff;
  /// Run-level supervision of every run: budgets, crash capture, retry,
  /// quarantine.
  SupervisionConfig supervision;
  /// When non-empty, sweep() journals every completed run to this
  /// newline-JSON manifest (atomic per-line appends, fsync every 8 runs),
  /// and resume() reads it back.
  std::string manifest_path;
};

struct RunOutcome {
  std::uint64_t seed = 0;
  /// Terminal classification; crash-family statuses mean `metrics` is
  /// empty and the seed is quarantined.
  RunStatus status = RunStatus::kPassed;
  /// Execution attempts consumed (1 = first try; > 1 means retried).
  std::uint32_t attempts = 1;
  /// what() of the final failing attempt (empty unless crash-family).
  std::string error;
  Metrics metrics;
  std::vector<std::string> violated;  // names of failed invariants
  /// Sorted text dump of the run's trace (empty unless captured). A pure
  /// function of the seed, so byte-identical at any worker count.
  std::string trace;
};

struct CampaignReport {
  std::size_t runs = 0;
  std::size_t failed_runs = 0;
  /// Runs whose seed failed every allowed attempt (crash-family status).
  std::size_t quarantined_runs = 0;
  /// Runs that needed more than one attempt (including quarantined ones).
  std::size_t runs_retried = 0;
  /// Violation count per invariant name.
  std::map<std::string, std::size_t> violations;
  /// Streaming stats per metric across all runs.
  std::map<std::string, core::Accumulator> aggregate;
  std::vector<RunOutcome> outcomes;

  bool all_passed() const { return failed_runs == 0 && quarantined_runs == 0; }
  /// Seeds of invariant-violating runs, for replay.
  std::vector<std::uint64_t> failing_seeds() const;
  /// Seeds quarantined after exhausting their attempts, for replay.
  std::vector<std::uint64_t> quarantined_seeds() const;
};

/// What resume() skipped vs re-executed. Kept outside CampaignReport so a
/// resumed report stays byte-identical to an uninterrupted sweep's.
struct ResumeStats {
  std::size_t loaded = 0;         // completed runs taken from the manifest
  std::size_t reran = 0;          // missing/quarantined runs re-executed
  std::size_t dropped_lines = 0;  // torn/corrupt manifest lines discarded
};

/// Exact equality of two reports (bitwise on all doubles). Parallel and
/// serial sweeps — and resumed vs uninterrupted sweeps — of the same
/// campaign must satisfy this.
bool identical(const CampaignReport& a, const CampaignReport& b);

class Campaign {
 public:
  /// A scenario: runs inside the worker's pooled SimContext, which
  /// arrives freshly reset() — build the world on ctx.sim(). Everything
  /// the run returns must be a pure function of the seed.
  using CtxRunFn = std::function<Metrics(SimContext& ctx, std::uint64_t seed)>;
  using Check = std::function<bool(const Metrics&)>;

  explicit Campaign(CampaignConfig config = {}) : config_(config) {}

  /// Adds an invariant every run must satisfy.
  Campaign& require(std::string name, Check check);

  /// Runs the sweep, serially or across config.workers threads, each run
  /// on its worker's pooled SimContext. Seeds are derived deterministically
  /// from base_seed, so a failing seed can be replayed in isolation; the
  /// report does not depend on worker count. An exception thrown by a
  /// run becomes a structured outcome, never a throw out of sweep().
  CampaignReport sweep(const CtxRunFn& run) const;

  /// Re-runs only the runs a previous sweep's manifest is missing (or
  /// quarantined), merging loaded and fresh outcomes into a report
  /// byte-identical to an uninterrupted sweep. Newly executed runs are
  /// appended to the same manifest. A manifest whose header does not
  /// match this campaign (runs / base_seed / invariant names) throws
  /// std::invalid_argument; a missing or headerless manifest degrades to
  /// a fresh sweep that rewrites it.
  CampaignReport resume(const CtxRunFn& run, const std::string& manifest_path,
                        ResumeStats* stats = nullptr) const;

  /// The seed the sweep uses for run `i` (exposed for replay tooling).
  std::uint64_t seed_for_run(std::size_t i) const;

  const CampaignConfig& config() const { return config_; }
  /// Invariant names in registration order (the manifest header records
  /// them so resume can refuse a mismatched campaign).
  std::vector<std::string> invariant_names() const;

 private:
  CampaignConfig config_;
  std::vector<std::pair<std::string, Check>> invariants_;
};

}  // namespace avsec::fault
