// PARALLEL — campaign-engine throughput: the PR 2 health chaos scenario
// swept serially and across core::parallel_for workers. Claims checked and
// measured:
//  a) determinism: the CampaignReport is byte-identical between serial
//     and parallel sweeps at every worker count, AND between a scenario
//     that builds a fresh Scheduler per run and one that runs on the
//     worker's pooled SimContext (scheduler reset between seeds) —
//     speedup_vs_fresh is what the pool buys;
//  b) scheduler cost on one reset-and-reused scheduler, in ns per event
//     scheduled: raw churn in ascending time order with in-place bodies
//     (scheduler_churn) and with bodies that capture a core::Bytes and so
//     are boxed (scheduler_churn_boxed), and a steady state shaped like a
//     PLCA segment, where pushes land inside a small heap
//     (scheduler_steady);
//  c) throughput: sweep wall-clock scales with workers (speedup vs the
//     same-mode serial arm; ~1 on a single-core host — the JSON header
//     records hardware_concurrency so the number is interpretable).
#include <cstdio>

#include "avsec/core/bytes.hpp"
#include "avsec/core/table.hpp"
#include "avsec/core/parallel.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/context.hpp"
#include "avsec/fault/replica_world.hpp"
#include "harness.hpp"

namespace {

using namespace avsec;

// One replicated-sensor chaos world per seed (fault::ReplicaWorld, the
// health chaos campaign's scenario), built on the scheduler it is handed,
// so both arms below share one body.
fault::Metrics run_chaos(core::Scheduler& sim, std::uint64_t seed) {
  fault::ReplicaWorld w(sim, seed);
  return w.run(w.chaos_plan());
}

// The pooled arm: every run on the worker context's reused scheduler, as
// every campaign scenario runs.
fault::Metrics pooled(fault::SimContext& ctx, std::uint64_t seed) {
  return run_chaos(ctx.sim(), seed);
}

// The fresh-world reference arm: ignores the context and builds a new
// Scheduler per run — the cost the pool exists to avoid.
fault::Metrics fresh_world(fault::SimContext& /*ctx*/, std::uint64_t seed) {
  core::Scheduler sim;
  return run_chaos(sim, seed);
}

fault::Campaign make_campaign(std::size_t runs, std::size_t workers) {
  fault::CampaignConfig config;
  config.runs = runs;
  config.base_seed = 2026;
  config.workers = workers;
  fault::Campaign campaign(config);
  campaign
      .require("voter masks single-replica faults",
               [](const fault::Metrics& m) {
                 return m.at("max_fused_err") <= 0.5;
               })
      .require("supervisor nominal at end", [](const fault::Metrics& m) {
        return m.at("nominal_at_end") == 1.0;
      });
  return campaign;
}

// Raw scheduler event churn (schedule + cancel half + drain): the
// pattern a campaign run hammers, isolated from simulated work.
// `body(i)` makes the i-th event body.
template <class MakeBody>
void churn(core::Scheduler& sim, std::size_t events, MakeBody body) {
  std::vector<core::EventHandle> handles;
  handles.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    handles.push_back(sim.schedule_at(static_cast<core::SimTime>(i), body(i)));
  }
  for (std::size_t i = 0; i < events; i += 2) sim.cancel(handles[i]);
  sim.run();
}

// A steady state shaped like plca-bus: 8 self-rescheduling timers with
// staggered phases and periods, and one wake that every tick cancels and
// re-arms a little ahead, as T1sBus re-arms its wake. The heap holds about
// 10 events (the timers, the wake and a few tombstones), and the re-armed
// wake sifts up past most timers. Runs `ticks` timer ticks, then drains.
class SteadyTimers {
 public:
  static constexpr std::size_t kTimers = 8;

  SteadyTimers(core::Scheduler& sim, std::size_t ticks)
      : sim_(sim), left_(ticks) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      sim_.schedule_at(static_cast<core::SimTime>(110 * i),
                       [this, i] { tick(i); });
    }
  }

  /// Events scheduled by a run of `ticks` ticks: each tick re-arms the
  /// wake and its own timer.
  static std::size_t events(std::size_t ticks) { return kTimers + 2 * ticks; }

 private:
  void tick(std::size_t i) {
    if (left_ == 0) return;
    --left_;
    sim_.cancel(wake_);
    wake_ = sim_.schedule_in(250, [] {});
    sim_.schedule_in(static_cast<core::SimTime>(900 + 70 * i),
                     [this, i] { tick(i); });
  }

  core::Scheduler& sim_;
  std::size_t left_;
  core::EventHandle wake_;
};

}  // namespace

int main(int argc, char** argv) {
  avsec::bench::Harness h("campaign_parallel", argc, argv);
  std::printf("== PARALLEL: campaign sweep scaling (health chaos) ==\n");

  const std::size_t runs = h.iters(48, 8);
  const std::size_t hw = core::default_workers();

  // --- scheduler micro-arm: event churn on one reused scheduler --------
  const std::size_t reps = h.iters(200, 20);
  const std::size_t events = 1000;
  const double churn_ops = static_cast<double>(reps * events);
  core::Scheduler warm;
  const double churn_ns = h.time("scheduler_churn", churn_ops, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      warm.reset();
      churn(warm, events, [](std::size_t) { return [] {}; });
    }
  });
  std::printf("scheduler churn: %.0f ns/event\n", churn_ns / churn_ops);
  const double boxed_ns = h.time("scheduler_churn_boxed", churn_ops, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      warm.reset();
      churn(warm, events, [](std::size_t i) {
        return [frame = core::Bytes(8, static_cast<std::uint8_t>(i))] {};
      });
    }
  });
  std::printf("scheduler churn (boxed bodies): %.0f ns/event\n",
              boxed_ns / churn_ops);
  const std::size_t ticks = 1000;
  const double steady_ops =
      static_cast<double>(reps * SteadyTimers::events(ticks));
  const double steady_ns = h.time("scheduler_steady", steady_ops, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      warm.reset();
      SteadyTimers timers(warm, ticks);
      warm.run();
    }
  });
  std::printf("scheduler steady state: %.0f ns/event\n",
              steady_ns / steady_ops);

  // --- engine-mode arms: fresh worlds vs pooled contexts, serial -------
  fault::CampaignReport fresh_report;
  const double fresh_ns =
      h.time("sweep_serial", static_cast<double>(runs), [&] {
        fresh_report = make_campaign(runs, 1).sweep(fresh_world);
      });
  fault::CampaignReport serial_report;  // pooled-context serial baseline
  const double serial_ns =
      h.time("sweep_serial_reuse", static_cast<double>(runs), [&] {
        serial_report = make_campaign(runs, 1).sweep(pooled);
      });
  bool all_identical = fault::identical(fresh_report, serial_report);
  h.add({"sweep_serial_reuse_speedup", serial_ns, static_cast<double>(runs),
         {{"speedup_vs_fresh", serial_ns > 0.0 ? fresh_ns / serial_ns : 0.0}}});

  core::Table t({"Workers", "Wall (ms)", "Runs/sec", "Speedup", "Identical"});
  t.add_row({"1 (fresh worlds)", core::Table::num(fresh_ns / 1e6, 1),
             core::Table::num(runs * 1e9 / fresh_ns, 1),
             core::Table::num(fresh_ns / serial_ns, 2),
             all_identical ? "yes" : "NO"});
  t.add_row({"1 (ctx reuse)", core::Table::num(serial_ns / 1e6, 1),
             core::Table::num(runs * 1e9 / serial_ns, 1), "1.00", "-"});

  // --- scaling arms: pooled contexts at 2/4/8 workers ------------------
  // Speedup is measured against the same-mode serial arm; byte-identity
  // is asserted against BOTH the serial ctx report and the fresh-world
  // report, so the whole matrix collapses to one canonical report.
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    fault::CampaignReport report;
    const std::string label = "sweep_workers_" + std::to_string(workers);
    const double ns = h.time(label, static_cast<double>(runs), [&] {
      report = make_campaign(runs, workers).sweep(pooled);
    });
    const bool same = fault::identical(serial_report, report) &&
                      fault::identical(fresh_report, report);
    all_identical &= same;
    const double speedup = ns > 0.0 ? serial_ns / ns : 0.0;
    h.add({label + "_speedup", ns, static_cast<double>(runs),
           {{"speedup_vs_serial", speedup}}});
    t.add_row({std::to_string(workers), core::Table::num(ns / 1e6, 1),
               core::Table::num(runs * 1e9 / ns, 1),
               core::Table::num(speedup, 2), same ? "yes" : "NO"});
  }
  t.print("PARALLELa: " + std::to_string(runs) +
          "-run chaos campaign, fresh worlds vs pooled contexts vs "
          "parallel sweep (host has " +
          std::to_string(hw) + " hardware threads)");

  if (!all_identical) {
    std::printf("FAIL: reports differ across engine modes / worker counts\n");
    return 1;
  }
  std::printf("all reports byte-identical (fresh vs pooled, serial vs "
              "parallel); invariant results unchanged (%zu/%zu runs "
              "passed)\n",
              serial_report.runs - serial_report.failed_runs,
              serial_report.runs);
  return 0;
}
