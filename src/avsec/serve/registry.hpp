// Scenario registry: the serving layer's name -> simulation mapping.
//
// A Scenario wraps a world-building function of the shape fault::Campaign
// sweeps — it runs on the worker's pooled fault::SimContext, with a Scale
// added — plus the static metadata admission control needs: a per-seed
// cost floor (so a deadline below it is rejected deterministically,
// before any load estimate enters the picture) and a default sim-event
// budget for the RunGuard.
//
// Every scenario takes a Scale: kFull is the real workload, kSmoke is the
// reduced-horizon variant the load-shedding ladder degrades to under
// sustained overload. Both are pure functions of (seed, scale), which is
// what keeps degraded replies as reproducible as nominal ones.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "avsec/fault/campaign.hpp"

namespace avsec::serve {

/// Workload scale of one run. The ladder degrades NOMINAL -> DEGRADED by
/// switching admissions from kFull to kSmoke before shedding outright.
enum class Scale : std::uint8_t {
  kFull,
  kSmoke,
};

const char* scale_name(Scale s);

struct Scenario {
  std::string name;
  std::string description;
  /// Builds the world on ctx.sim() (the worker's warm context, freshly
  /// reset before every attempt), runs it, returns named metrics. Must be
  /// safe to call concurrently (no shared mutable state) and should call
  /// fault::supervise(sim) so the server's RunGuard budgets attach.
  std::function<fault::Metrics(fault::SimContext& ctx, std::uint64_t seed,
                               Scale scale)>
      run_ctx;
  /// Static per-seed wall-cost floor, milliseconds. Admission rejects a
  /// request whose deadline is below `cost_hint_ms_per_seed * seeds` as
  /// kInfeasible — a pure function of the request, so the decision is
  /// byte-identical regardless of load or worker count.
  double cost_hint_ms_per_seed = 1.0;
  /// Default RunGuard sim-event budget per attempt (0 = unlimited).
  std::uint64_t default_max_events = 20'000'000;
};

/// Ordered name -> Scenario map. Immutable once handed to a Server.
class ScenarioRegistry {
 public:
  /// Adds (or replaces) a scenario under its name.
  ScenarioRegistry& add(Scenario s);

  /// nullptr when no scenario is registered under `name`.
  const Scenario* find(const std::string& name) const;

  /// Registered names in lexicographic order.
  std::vector<std::string> names() const;

  std::size_t size() const { return scenarios_.size(); }

  /// The built-in catalog served by the avsec-serve daemon:
  ///   ivn-can       CAN segment under randomized node faults
  ///   secure-uplink robust TLS session over a partitioning link
  ///   heartbeat-net multi-source liveness tracking with an outage window
  ///   poison-crash  diagnostic: throws on every attempt (quarantine path)
  ///   busy-loop     diagnostic: pumps events forever (budget-trip path)
  static ScenarioRegistry builtin();

 private:
  std::map<std::string, Scenario> scenarios_;
};

}  // namespace avsec::serve
