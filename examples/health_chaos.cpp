// Health-supervision chaos campaign: three redundant replicas behind a
// 2oo3 voter, a heartbeat watchdog, and the safety supervisor, swept
// across seeded fault schedules of lying (Byzantine-value) and dead
// (mute) replicas.
//
// Two parts, both on one fault::ReplicaWorld per run:
//  - a deterministic escalation showcase: one persistent mute walks the
//    supervisor NOMINAL -> DEGRADED -> LIMP_HOME; a second concurrent
//    mute forces SAFE_STOP — the full ladder, event by event;
//  - a seeded chaos campaign (runs and base seed from argv, so CI can pin
//    them) checking the resilience invariants: the voter masks every
//    single-replica lie, the supervisor always walks back to NOMINAL, and
//    nothing ever escalates to SAFE_STOP under transient single faults.
#include <cstdio>

#include "avsec/core/table.hpp"
#include "avsec/fault/cli.hpp"
#include "avsec/fault/replica_world.hpp"

using namespace avsec;

namespace {

void escalation_ladder() {
  core::Scheduler sim;
  fault::ReplicaWorld w(sim, 1);
  // replica-0 goes permanently mute at 100 ms: detected, restart attempted,
  // recovery deadline (400 ms) expires -> LIMP_HOME. replica-1 goes mute at
  // 700 ms and also never returns -> SAFE_STOP.
  fault::FaultPlan plan;
  plan.add({core::milliseconds(100), fault::FaultKind::kReplicaMute,
            "replica-0"});
  plan.add({core::milliseconds(700), fault::FaultKind::kReplicaMute,
            "replica-1"});
  w.run(plan);

  core::Table t({"Time (ms)", "Event", "From", "To", "Detail"});
  for (const auto& ev : w.supervisor().events()) {
    const bool transition =
        ev.kind == health::SupervisorEventKind::kTransition;
    t.add_row({core::Table::num(core::to_microseconds(ev.time) / 1000.0, 0),
               health::supervisor_event_kind_name(ev.kind),
               transition ? health::safety_state_name(ev.from) : "",
               transition ? health::safety_state_name(ev.to) : "",
               ev.detail});
  }
  t.print("Escalation ladder: persistent mute -> LIMP_HOME, "
          "second mute -> SAFE_STOP");
  std::printf("final state: %s, correlator incidents: %zu\n\n",
              health::safety_state_name(w.supervisor().state()),
              w.correlator().incidents().size());
}

fault::Metrics run_chaos(fault::SimContext& ctx, std::uint64_t seed) {
  fault::ReplicaWorld w(ctx.sim(), seed);
  return w.run(w.chaos_plan());
}

}  // namespace

int main(int argc, char** argv) {
  fault::cli::CampaignMain campaign;
  campaign.title = "avsec health chaos: supervision, voting & recovery";
  campaign.config.runs = 20;
  campaign.config.base_seed = 2026;
  // Crashing/runaway seeds are quarantined instead of aborting the chaos
  // campaign. Wall deadline off for determinism.
  campaign.config.supervision.max_events = 50'000'000;
  campaign.config.supervision.retry.max_retries = 1;
  campaign.invariants = {
      {"2oo3 voter masks single-replica faults",
       [](const fault::Metrics& m) { return m.at("max_fused_err") <= 0.5; }},
      {"supervisor back to NOMINAL at end",
       [](const fault::Metrics& m) { return m.at("nominal_at_end") == 1.0; }},
      {"no spurious SAFE_STOP",
       [](const fault::Metrics& m) { return m.at("safe_stop") == 0.0; }},
  };
  campaign.run = run_chaos;
  campaign.prologue = escalation_ladder;
  return fault::cli::campaign_main(argc, argv, campaign);
}
