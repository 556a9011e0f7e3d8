// Scenario compiler: lowers a validated ScenarioSpec onto the existing
// fault / netsim / secproto / health machinery as a Campaign-compatible
// run function (DESIGN.md §15, "Lowering rules").
//
// compile() performs whole-spec semantic validation (protocol/topology
// compatibility, attack-kind validity, target ranges, payload limits,
// oracle metric names) against the same validity matrix the coverage map
// enumerates, and returns either a CompiledScenario or a CompileError
// carrying the offending file:line. A CompiledScenario is immutable and
// cheap to copy: it owns only the spec, and run() builds the world on the
// scheduler it is handed — a pure function of (seed, scale), which is what
// lets campaign sweeps stay byte-identical at any worker count and lets
// avsec-serve serve compiled specs like built-in scenarios.
#pragma once

#include <string>
#include <vector>

#include "avsec/fault/campaign.hpp"
#include "avsec/scenario/spec.hpp"
#include "avsec/serve/registry.hpp"

namespace avsec::scenario {

/// First semantic error of a failed compile, with its source position.
struct CompileError {
  std::string file;
  int line = 0;  // 1-based; 0 = spec-level error with no source anchor
  std::string message;

  /// "file:line: message" — same diagnostic shape as ParseError.
  std::string to_string() const;
};

// --- the validity matrix (also the coverage-cell universe) ---------------

/// Protocol stacks a topology can carry (Table I rows; kNone always valid).
const std::vector<Protocol>& valid_protocols(Topology t);

/// Attack kinds a topology can schedule.
const std::vector<AttackKind>& valid_attacks(Topology t);

/// Defense postures a topology supports (can/link: all four; t1s has no
/// recovery lowering; heartbeat requires the monitor by definition).
const std::vector<DefenseConfig>& valid_postures(Topology t);

/// Metric names a topology's run function emits (sorted). Oracle metric
/// names are validated against this set at compile time.
const std::vector<std::string>& metric_names(Topology t);

bool posture_valid(Topology t, const DefenseConfig& d);

struct CompileResult;
CompileResult compile(const ScenarioSpec& spec);

/// A validated spec bound to its run machinery.
class CompiledScenario {
 public:
  const ScenarioSpec& spec() const { return spec_; }

  /// Builds the world on `sim`, runs it to the (scale-dependent) horizon
  /// and returns the topology's full metric set. Pure function of
  /// (seed, scale). Campaign and server runs pass ctx.sim(), where their
  /// budgets already watch every dispatch. Leaves pending events (e.g. the T1S beacon cycle) on
  /// the scheduler — reset it (or discard it) before reusing.
  fault::Metrics run(core::Scheduler& sim, std::uint64_t seed,
                     serve::Scale scale = serve::Scale::kFull) const;

  /// Campaign over the spec's runs/seed with one invariant per oracle
  /// (named by the oracle's canonical text) and a 20M-event budget per
  /// run; journals its sweeps to `manifest_path` when that is non-empty.
  fault::Campaign campaign(std::size_t workers = 1,
                           const std::string& manifest_path = "") const;
  fault::CampaignConfig campaign_config(std::size_t workers = 1) const;

  /// Names of oracles `m` violates, in file order (empty = all pass).
  std::vector<std::string> oracle_failures(const fault::Metrics& m) const;

  /// serve::registry entry serving this spec by name: run_ctx runs it on
  /// the worker context's scheduler, cost hint scaled from the horizon.
  serve::Scenario serve_entry() const;

  /// The reduced horizon a kSmoke run uses (horizon/5, floor 10ms).
  core::SimTime smoke_horizon() const;

 private:
  friend CompileResult compile(const ScenarioSpec& spec);
  ScenarioSpec spec_;
};

/// Outcome of compile(); `compiled` is meaningful only when `ok`. compile()
/// validates the spec against the validity matrix and binds it to its run
/// machinery; it never throws — all failures are CompileErrors.
struct CompileResult {
  bool ok = false;
  CompiledScenario compiled;
  CompileError error;
};

}  // namespace avsec::scenario
