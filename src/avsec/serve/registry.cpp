#include "avsec/serve/registry.hpp"

#include <functional>
#include <stdexcept>

#include "avsec/core/scheduler.hpp"
#include "avsec/fault/resilience.hpp"

namespace avsec::serve {
namespace {

// Diagnostic: fails every attempt, exercising the retry -> quarantine
// path end to end (the serving twin of a campaign poison seed).
fault::Metrics run_poison_crash(fault::SimContext& /*ctx*/, std::uint64_t seed,
                                Scale /*scale*/) {
  throw std::runtime_error("poisoned scenario (seed " + std::to_string(seed) +
                           "): deterministic crash");
}

// Diagnostic: pumps scheduler events until something stops it — under the
// server's supervision that is the sim-event budget (kBudgetExhausted);
// standalone, the 30 s sim horizon bounds it.
fault::Metrics run_busy_loop(fault::SimContext& ctx, std::uint64_t /*seed*/,
                             Scale /*scale*/) {
  core::Scheduler& sim = ctx.sim();
  std::function<void()> spin = [&] {
    sim.schedule_in(core::microseconds(1), [f = &spin] { (*f)(); });
  };
  sim.schedule_at(0, [f = &spin] { (*f)(); });
  sim.run_until(core::seconds(30));
  fault::Metrics m;
  m["events"] = static_cast<double>(sim.dispatched());
  return m;
}

}  // namespace

const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kFull: return "full";
    case Scale::kSmoke: return "smoke";
  }
  return "?";
}

ScenarioRegistry& ScenarioRegistry::add(Scenario s) {
  scenarios_[s.name] = std::move(s);
  return *this;
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, s] : scenarios_) out.push_back(name);
  return out;
}

ScenarioRegistry ScenarioRegistry::diagnostics() {
  ScenarioRegistry r;
  r.add({"poison-crash", "diagnostic: crashes every attempt",
         run_poison_crash, /*cost_hint_ms_per_seed=*/0.1,
         /*default_max_events=*/1'000'000});
  r.add({"busy-loop", "diagnostic: pumps events until the budget trips",
         run_busy_loop, 1.0, 2'000'000});
  return r;
}

}  // namespace avsec::serve
