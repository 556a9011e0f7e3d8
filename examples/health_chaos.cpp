// Health-supervision chaos campaign: three redundant replicas behind a
// 2oo3 voter, a heartbeat watchdog, and the safety supervisor, swept
// across seeded fault schedules of lying (Byzantine-value) and dead
// (mute) replicas.
//
// Two parts:
//  - a deterministic escalation showcase: one persistent mute walks the
//    supervisor NOMINAL -> DEGRADED -> LIMP_HOME; a second concurrent
//    mute forces SAFE_STOP — the full ladder, event by event;
//  - a seeded chaos campaign (runs and base seed from argv, so CI can pin
//    them) checking the resilience invariants: the voter masks every
//    single-replica lie, the supervisor always walks back to NOMINAL, and
//    nothing ever escalates to SAFE_STOP under transient single faults.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "avsec/core/table.hpp"
#include "avsec/core/thread_pool.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/health/replica.hpp"
#include "avsec/health/supervisor.hpp"
#include "avsec/ids/correlation.hpp"
#include "avsec/obs/obs.hpp"

using namespace avsec;

namespace {

// Three replicas + voter + monitor + supervisor, shared by both parts.
struct World {
  core::Scheduler& sim;
  health::RedundancyVoter voter;
  ids::AlertCorrelator correlator;
  health::HeartbeatMonitor monitor;
  ids::DegradationManager dm;
  health::SafetySupervisor supervisor;
  std::vector<health::ReplicaPort> ports;
  std::vector<fault::ReplicaFault> targets;
  fault::FaultInjector injector;

  explicit World(core::Scheduler& scheduler)
      : sim(scheduler),
        voter(
            [] {
              health::VoterConfig v;
              v.tolerance = 0.5;
              v.quorum = 2;
              v.max_age = core::milliseconds(25);
              return v;
            }(),
            3),
        monitor(sim,
                [] {
                  health::HeartbeatConfig h;
                  h.check_period = core::milliseconds(10);
                  h.deadline = core::milliseconds(25);
                  h.miss_budget = 2;
                  return h;
                }()),
        supervisor(sim,
                   [] {
                     health::SupervisorConfig s;
                     s.tick_period = core::milliseconds(10);
                     s.clear_after = core::milliseconds(50);
                     s.recovery_deadline = core::milliseconds(400);
                     s.repeats_to_escalate = 3;
                     s.escalate_window = core::milliseconds(250);
                     return s;
                   }(),
                   &dm),
        injector(sim) {
    voter.bind_correlator(&correlator, 0x400);
    dm.register_service({"speed-feed", 0x400, ids::Criticality::kSafety,
                         {"replica-0", "replica-1", "replica-2"}});
    supervisor.set_restart_handler([](const std::string&) { return true; });
    monitor.on_down([this](const std::string& s, core::SimTime t) {
      supervisor.on_source_down(s, t);
    });
    monitor.on_recovered([this](const std::string& s, core::SimTime t) {
      supervisor.on_source_recovered(s, t);
    });
    ports.reserve(3);
    targets.reserve(3);
    for (int r = 0; r < 3; ++r) {
      ports.emplace_back("replica-" + std::to_string(r), r);
      monitor.register_source(ports.back().name());
      ports.back().connect_voter(&voter);
      ports.back().connect_monitor(&monitor);
    }
    for (auto& p : ports) {
      targets.emplace_back(p);
      injector.add_target(p.name(), &targets.back());
    }
    monitor.start();
    supervisor.start();
  }
};

void escalation_ladder() {
  core::Scheduler sim;
  World w(sim);
  core::Rng rng(1);
  constexpr core::SimTime kEnd = core::seconds(2);
  std::function<void()> publish = [&] {
    for (auto& p : w.ports) p.publish(25.0 + rng.normal(0.0, 0.05), w.sim.now());
    if (w.sim.now() < kEnd) w.sim.schedule_in(core::milliseconds(10), publish);
  };
  w.sim.schedule_at(0, publish);
  std::function<void()> vote = [&] {
    w.supervisor.on_vote(w.voter.vote(w.sim.now()), w.sim.now());
    if (w.sim.now() < kEnd) w.sim.schedule_in(core::milliseconds(10), vote);
  };
  w.sim.schedule_at(core::milliseconds(35), vote);
  w.sim.schedule_at(kEnd + core::milliseconds(1), [&] {
    w.monitor.stop();
    w.supervisor.stop();
  });

  // replica-0 goes permanently mute at 100 ms: detected, restart attempted,
  // recovery deadline (400 ms) expires -> LIMP_HOME. replica-1 goes mute at
  // 700 ms and also never returns -> SAFE_STOP.
  fault::FaultPlan plan;
  plan.add({core::milliseconds(100), fault::FaultKind::kReplicaMute,
            "replica-0"});
  plan.add({core::milliseconds(700), fault::FaultKind::kReplicaMute,
            "replica-1"});
  w.injector.arm(plan);
  w.sim.run();

  core::Table t({"Time (ms)", "Event", "From", "To", "Detail"});
  for (const auto& ev : w.supervisor.events()) {
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
              health::safety_state_name(w.supervisor.state()),
              w.correlator.incidents().size());
}

fault::Metrics run_chaos(fault::SimContext& ctx, std::uint64_t seed) {
  World w(ctx.sim());
  // Chain the campaign's supervision guard (if any) onto this world's
  // scheduler; a no-op when the scenario runs standalone.
  fault::supervise(w.sim);
  core::Rng rng(seed);
  constexpr core::SimTime kEnd = core::seconds(2);

  double max_fused_err = 0.0;
  std::uint64_t quorum_losses = 0;
  const double truth = 25.0;
  std::function<void()> publish = [&] {
    for (auto& p : w.ports) {
      p.publish(truth + rng.normal(0.0, 0.05), w.sim.now());
    }
    if (w.sim.now() < kEnd) {
      w.sim.schedule_in(core::milliseconds(10), publish);
    }
  };
  w.sim.schedule_at(0, publish);
  std::function<void()> vote = [&] {
    const health::VoteOutcome out = w.voter.vote(w.sim.now());
    w.supervisor.on_vote(out, w.sim.now());
    if (out.quorum_met) {
      max_fused_err = std::max(max_fused_err, std::abs(out.value - truth));
    } else {
      ++quorum_losses;
    }
    if (w.sim.now() < kEnd) {
      w.sim.schedule_in(core::milliseconds(10), vote);
    }
  };
  w.sim.schedule_at(core::milliseconds(35), vote);

  // Sequential single-replica fault windows: 2oo3 masking is claimed for
  // one faulty replica at a time, so windows never overlap.
  fault::FaultPlan plan;
  for (int win = 0; win < 4; ++win) {
    fault::FaultEvent ev;
    ev.at = core::milliseconds(100 + 350 * win);
    ev.target = "replica-" + std::to_string(rng.uniform_int(0, 2));
    ev.kind = rng.chance(0.5) ? fault::FaultKind::kByzantineValue
                              : fault::FaultKind::kReplicaMute;
    ev.duration = core::milliseconds(rng.uniform_int(50, 250));
    ev.magnitude = rng.uniform(5.0, 50.0);
    plan.add(std::move(ev));
  }
  w.injector.arm(plan);
  w.sim.schedule_at(kEnd + core::milliseconds(1), [&] {
    w.monitor.stop();
    w.supervisor.stop();
  });
  w.sim.run();

  fault::Metrics m;
  m["max_fused_err"] = max_fused_err;
  m["quorum_losses"] = static_cast<double>(quorum_losses);
  m["nominal_at_end"] =
      w.supervisor.state() == health::SafetyState::kNominal ? 1.0 : 0.0;
  m["safe_stop"] =
      w.supervisor.state() == health::SafetyState::kSafeStop ? 1.0 : 0.0;
  m["recoveries"] = static_cast<double>(w.supervisor.recoveries());
  m["escalations"] = static_cast<double>(w.supervisor.escalations());
  m["faults_applied"] = static_cast<double>(w.injector.applied());
  m["suspect_incidents"] =
      static_cast<double>(w.correlator.incidents().size());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("avsec health chaos: supervision, voting & recovery\n");
  std::printf("==================================================\n\n");
  escalation_ladder();

  // Positional args (runs, base_seed) stay as-is for CI pinning; the
  // --workers flag may appear anywhere.
  std::size_t workers = core::ThreadPool::default_workers();
  const char* trace_path = nullptr;  // --trace <file.json>: Perfetto export
  bool trace_failing = false;        // --trace-failing: capture failing runs
  const char* manifest_path = nullptr;  // --manifest <f>: journal the sweep
  const char* resume_path = nullptr;    // --resume <f>: resume from journal
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (workers == 0) workers = core::ThreadPool::default_workers();
      continue;
    }
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--trace-failing") == 0) {
      trace_failing = true;
      continue;
    }
    if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      manifest_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      resume_path = argv[++i];
      continue;
    }
    positional.push_back(argv[i]);
  }
  const std::size_t runs =
      positional.size() > 0
          ? static_cast<std::size_t>(std::atoll(positional[0]))
          : 20;
  const std::uint64_t base_seed =
      positional.size() > 1
          ? static_cast<std::uint64_t>(std::atoll(positional[1]))
          : 2026;

  auto make_campaign = [&](std::size_t w, const char* manifest) {
    fault::CampaignConfig cfg;
    cfg.runs = runs;
    cfg.base_seed = base_seed;
    cfg.workers = w;
    if (trace_failing) cfg.trace = fault::TraceCapture::kFailingRuns;
    // Supervised sweep: crashing/runaway seeds are quarantined instead of
    // aborting the chaos campaign. Wall deadline off for determinism.
    cfg.supervision.enabled = true;
    cfg.supervision.max_events = 50'000'000;
    cfg.supervision.retry.max_retries = 1;
    if (manifest != nullptr) cfg.manifest_path = manifest;
    fault::Campaign campaign(cfg);
    campaign
        .require("2oo3 voter masks single-replica faults",
                 [](const fault::Metrics& m) {
                   return m.at("max_fused_err") <= 0.5;
                 })
        .require("supervisor back to NOMINAL at end",
                 [](const fault::Metrics& m) {
                   return m.at("nominal_at_end") == 1.0;
                 })
        .require("no spurious SAFE_STOP", [](const fault::Metrics& m) {
          return m.at("safe_stop") == 0.0;
        });
    return campaign;
  };

  // AVSEC-LINT-ALLOW(R1): wall-clock speedup report for --workers, not sim state
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto serial_report = make_campaign(1, nullptr).sweep(run_chaos);
  const auto t1 = clock::now();
  fault::ResumeStats resume_stats;
  const auto report =
      resume_path != nullptr
          ? make_campaign(workers, nullptr)
                .resume(run_chaos, resume_path, &resume_stats)
          : make_campaign(workers, manifest_path).sweep(run_chaos);
  const auto t2 = clock::now();
  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double parallel_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  const bool reports_identical = fault::identical(serial_report, report);
  std::printf("sweep wall-clock: serial %.0f ms, %zu workers %.0f ms "
              "(speedup %.2fx), reports identical: %s\n",
              serial_ms, workers, parallel_ms,
              parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0,
              reports_identical ? "yes" : "NO");
  if (resume_path != nullptr) {
    std::printf("resumed from %s: %zu runs loaded, %zu re-run, "
                "%zu torn/corrupt lines dropped; resumed report %s fresh "
                "sweep\n",
                resume_path, resume_stats.loaded, resume_stats.reran,
                resume_stats.dropped_lines,
                reports_identical ? "IDENTICAL to" : "DIFFERS from");
  } else if (manifest_path != nullptr) {
    std::printf("sweep journaled to %s (resume with --resume %s)\n",
                manifest_path, manifest_path);
  }
  std::printf("\n");

  core::Table t({"Metric", "Mean", "Min", "Max"});
  for (const auto& [name, acc] : report.aggregate) {
    t.add_row({name, core::Table::num(acc.mean(), 2),
               core::Table::num(acc.min(), 2),
               core::Table::num(acc.max(), 2)});
  }
  t.print("Chaos campaign aggregates over " + std::to_string(report.runs) +
          " seeded runs (base seed " + std::to_string(base_seed) + ")");

  if (!report.all_passed()) {
    core::Table v({"Invariant", "Violations"});
    for (const auto& [name, count] : report.violations) {
      v.add_row({name, std::to_string(count)});
    }
    v.print("Invariant violations");
    std::printf("failing seeds (replayable):");
    for (auto s : report.failing_seeds()) {
      std::printf(" %llu", static_cast<unsigned long long>(s));
    }
    std::printf("\n");
  } else {
    std::printf("\nAll invariants held on every run (%zu/%zu passed).\n",
                report.runs - report.failed_runs, report.runs);
  }
  if (report.quarantined_runs > 0) {
    std::printf("quarantined seeds (%zu runs failed every attempt):",
                report.quarantined_runs);
    for (auto s : report.quarantined_seeds()) {
      std::printf(" %llu", static_cast<unsigned long long>(s));
    }
    std::printf("\n");
  }

  if (trace_failing) {
    std::size_t written = 0;
    for (const auto& o : report.outcomes) {
      if (o.violated.empty()) continue;
      const std::string path =
          "chaos-trace-" + std::to_string(o.seed) + ".txt";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(o.trace.data(), 1, o.trace.size(), f);
        std::fclose(f);
        std::printf("wrote failing-run trace %s (%zu bytes)\n", path.c_str(),
                    o.trace.size());
        ++written;
      }
    }
    if (written == 0) {
      std::printf("--trace-failing: no run failed, nothing captured\n");
    }
  }

  if (trace_path != nullptr) {
    // Replay one run — the first failing seed if any, else run 0 — with an
    // ambient recorder and export a Perfetto-loadable timeline.
    const auto failing = report.failing_seeds();
    const std::uint64_t seed =
        failing.empty() ? report.outcomes.front().seed : failing.front();
    fault::SimContext ctx;
    obs::TraceRecorder& rec = ctx.recorder();
    {
      obs::TraceScope scope(rec);
      run_chaos(ctx, seed);
    }
    if (obs::write_chrome_trace(rec, trace_path)) {
      std::printf("wrote Perfetto trace of seed %llu to %s "
                  "(%zu events retained, %llu dropped)\n",
                  static_cast<unsigned long long>(seed), trace_path,
                  rec.size(), static_cast<unsigned long long>(rec.dropped()));
    } else {
      std::printf("failed to write trace to %s\n", trace_path);
      return 1;
    }
  }
  return report.all_passed() && reports_identical ? 0 : 1;
}
