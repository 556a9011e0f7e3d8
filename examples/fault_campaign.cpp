// Fault + attack co-simulation campaign: a zonal CAN segment with a
// safety-critical sensor feed, a secure uplink session, and a degradation
// manager, swept across randomized fault schedules (ECU crashes, a
// babbling idiot, link partitions).
//
// The campaign's invariants are the resilience claims of the paper's §VIII
// ("self-resilient, capable of proactive measures"), made executable:
//   - the bus always returns to service after the babbler self-bus-offs;
//   - the uplink session always re-establishes after a partition heals;
//   - limp-home is entered whenever the sensor feed is lost, and exited
//     once it recovers.
// Every run is derived from one base seed; a failing seed replays
// bit-identically.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "avsec/core/table.hpp"
#include "avsec/core/thread_pool.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/ids/response.hpp"
#include "avsec/obs/obs.hpp"
#include "avsec/secproto/session.hpp"

using namespace avsec;

namespace {

// One full world per run, on the worker's pooled scheduler: build, fault,
// simulate, measure.
fault::Metrics run_scenario(fault::SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
  // Opt in to campaign supervision: inside a supervised sweep this chains
  // the run's event budget / deadline guard onto the scheduler; standalone
  // (replay, tracing) it is a no-op.
  fault::supervise(sim);

  // --- zonal CAN segment: sensor feed + a latent babbling idiot ---
  netsim::CanBus bus(sim, {});
  const int sensor = bus.attach("lidar-ecu", nullptr);
  const int babbler = bus.attach("infotainment-ecu", nullptr);

  std::uint64_t feed_frames = 0;
  core::SimTime last_feed = 0;
  core::SimTime worst_gap = 0;

  // --- degradation manager watching the feed ---
  ids::DegradationManager dm;
  dm.register_service({"lidar-feed", 0x300, ids::Criticality::kSafety,
                       {"lidar-ecu"}});
  dm.map_provider_node("lidar-ecu", sensor);
  bool ever_limp = false;

  bus.attach("gateway", [&](int src, const netsim::CanFrame& f,
                            core::SimTime now) {
    if (src != sensor || f.id != 0x300) return;
    ++feed_frames;
    worst_gap = std::max(worst_gap, now - last_feed);
    last_feed = now;
    dm.on_service_heard(f.id, now);
  });

  netsim::CanFrame feed;
  feed.id = 0x300;
  feed.payload = core::Bytes(8, 0x3D);
  std::function<void()> tick = [&] {
    bus.send(sensor, feed);
    if (sim.now() < core::seconds(2)) {
      sim.schedule_in(core::milliseconds(10), tick);
    }
  };
  sim.schedule_at(0, tick);

  // Surface crashes to the degradation manager the way a heartbeat
  // monitor would, and track whether limp-home was ever active.
  std::function<void()> monitor = [&] {
    if (bus.is_down(sensor)) {
      dm.on_provider_down("lidar-ecu", sim.now());
    } else {
      dm.on_provider_up("lidar-ecu", sim.now());
    }
    dm.poll(sim.now());
    ever_limp |= dm.in_limp_home();
    if (sim.now() < core::seconds(2)) {
      sim.schedule_in(core::milliseconds(10), monitor);
    }
  };
  sim.schedule_at(core::milliseconds(5), monitor);

  // --- secure uplink over a partitionable link ---
  netsim::FlakyChannel uplink(sim, {});
  const secproto::TlsCa ca(core::Bytes(32, 0x55));
  secproto::TlsResponder responder(sim, uplink, seed ^ 0x9E37, ca, "backend");
  secproto::RobustSessionConfig scfg;
  scfg.retry.max_retries = 3;
  scfg.reconnect_delay = core::milliseconds(40);
  scfg.max_reconnects = 0;  // keep trying for the whole scenario
  secproto::RobustTlsSession session(sim, uplink, seed ^ 0xC2B2, ca.public_key(),
                                     scfg);
  session.connect();
  // Periodic rekeying keeps handshakes in flight throughout the run, so
  // link faults land on live protocol exchanges, not just the first one.
  std::function<void()> rekey_tick = [&] {
    session.rekey();
    if (sim.now() < core::milliseconds(1800)) {
      sim.schedule_in(core::milliseconds(200), rekey_tick);
    }
  };
  sim.schedule_at(core::milliseconds(200), rekey_tick);

  // --- randomized fault schedule against all three targets ---
  fault::CanNodeFault sensor_fault(sim, bus, sensor, seed + 1);
  fault::CanNodeFault babbler_fault(sim, bus, babbler, seed + 2);
  fault::ChannelFault uplink_fault(uplink);
  fault::FaultInjector injector(sim);
  injector.add_target("lidar-ecu", &sensor_fault);
  injector.add_target("infotainment-ecu", &babbler_fault);
  injector.add_target("uplink", &uplink_fault);

  fault::FaultPlan::RandomConfig rnd;
  rnd.start = core::milliseconds(100);
  rnd.end = core::milliseconds(1200);
  rnd.count = 6;
  rnd.min_duration = core::milliseconds(50);
  rnd.max_duration = core::milliseconds(300);
  rnd.targets = {"lidar-ecu", "infotainment-ecu", "uplink"};
  rnd.kinds = {fault::FaultKind::kNodeCrash, fault::FaultKind::kBabblingIdiot,
               fault::FaultKind::kLinkPartition, fault::FaultKind::kLinkDrop};
  fault::FaultPlan plan = fault::FaultPlan::random(rnd, seed);
  // Only node targets can crash or babble; link kinds only fit the uplink.
  // Rejected combinations are recorded by the injector and skipped.
  injector.arm(plan);

  sim.run();

  fault::Metrics m;
  m["feed_frames"] = static_cast<double>(feed_frames);
  m["worst_feed_gap_ms"] = core::to_microseconds(worst_gap) / 1000.0;
  m["bus_off_events"] = static_cast<double>(bus.bus_off_events());
  m["error_frames"] = static_cast<double>(bus.error_frames());
  m["faults_applied"] = static_cast<double>(injector.applied());
  m["faults_rejected"] = static_cast<double>(injector.rejected());
  m["session_up_at_end"] = session.established() ? 1.0 : 0.0;
  m["session_reconnects"] = static_cast<double>(session.reconnects());
  m["ever_limp_home"] = ever_limp ? 1.0 : 0.0;
  m["limp_home_at_end"] = dm.in_limp_home() ? 1.0 : 0.0;
  m["feed_ok_at_end"] = dm.service_available("lidar-feed") ? 1.0 : 0.0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("avsec fault campaign: attacks and faults, co-simulated\n");
  std::printf("======================================================\n\n");

  std::size_t workers = core::ThreadPool::default_workers();
  const char* trace_path = nullptr;  // --trace <file.json>: Perfetto export
  bool trace_failing = false;        // --trace-failing: capture failing runs
  const char* manifest_path = nullptr;  // --manifest <f>: journal the sweep
  const char* resume_path = nullptr;    // --resume <f>: resume from journal
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (workers == 0) workers = core::ThreadPool::default_workers();
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-failing") == 0) {
      trace_failing = true;
    } else if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      resume_path = argv[++i];
    }
  }

  auto make_campaign = [&](std::size_t w, const char* manifest) {
    fault::CampaignConfig cfg;
    cfg.runs = 20;
    cfg.base_seed = 2026;
    cfg.workers = w;
    if (trace_failing) cfg.trace = fault::TraceCapture::kFailingRuns;
    // Supervision on: a crashing or runaway seed becomes a quarantined
    // outcome instead of taking the whole sweep down. The event budget is
    // far above any legitimate run; the wall deadline stays off so the
    // report is a pure function of the seeds.
    cfg.supervision.enabled = true;
    cfg.supervision.max_events = 50'000'000;
    cfg.supervision.retry.max_retries = 1;
    if (manifest != nullptr) cfg.manifest_path = manifest;
    fault::Campaign campaign(cfg);
    campaign
        .require("feed recovers by end of run",
                 [](const fault::Metrics& m) {
                   return m.at("feed_ok_at_end") == 1.0;
                 })
        .require("limp-home not stuck at end",
                 [](const fault::Metrics& m) {
                   return m.at("limp_home_at_end") == 0.0;
                 })
        .require("uplink session up at end",
                 [](const fault::Metrics& m) {
                   return m.at("session_up_at_end") == 1.0;
                 })
        .require("feed never silent > 1s",
                 [](const fault::Metrics& m) {
                   return m.at("worst_feed_gap_ms") <= 1000.0;
                 });
    return campaign;
  };

  // Serial reference first, then the parallel sweep: the reports must be
  // byte-identical (the campaign determinism contract) and the wall-clock
  // ratio shows the fan-out win.
  // AVSEC-LINT-ALLOW(R1): wall-clock speedup report for --workers, not sim state
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto serial_report = make_campaign(1, nullptr).sweep(run_scenario);
  const auto t1 = clock::now();
  fault::ResumeStats resume_stats;
  const auto report =
      resume_path != nullptr
          ? make_campaign(workers, nullptr)
                .resume(run_scenario, resume_path, &resume_stats)
          : make_campaign(workers, manifest_path).sweep(run_scenario);
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
  t.print("Campaign aggregates over " + std::to_string(report.runs) +
          " seeded runs");

  core::Table v({"Invariant", "Violations"});
  bool any = false;
  for (const auto& [name, count] : report.violations) {
    v.add_row({name, std::to_string(count)});
    any = true;
  }
  if (any) {
    v.print("Invariant violations");
    std::printf("failing seeds (replayable):");
    for (auto s : report.failing_seeds()) std::printf(" %llu",
        static_cast<unsigned long long>(s));
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
  if (report.runs_retried > 0) {
    std::printf("%zu runs needed retries\n", report.runs_retried);
  }

  if (trace_failing) {
    std::size_t written = 0;
    for (const auto& o : report.outcomes) {
      if (o.violated.empty()) continue;
      const std::string path =
          "campaign-trace-" + std::to_string(o.seed) + ".txt";
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
      run_scenario(ctx, seed);
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
