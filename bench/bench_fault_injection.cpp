// FAULT — the robustness counterpart to the attack benches: how the
// simulated vehicle degrades and recovers under injected faults.
//  a) ISO 11898 error confinement: babbling-idiot intensity vs time to
//     self-bus-off and collateral latency on a safety flow;
//  b) session resilience: handshake establishment over increasingly lossy
//     links, and reconnect behaviour across partitions;
//  c) SoS cascade vs node recovery rate: containment instead of spread;
//  d) campaign sweep: randomized fault schedules vs resilience invariants.
#include <cstdio>

#include "avsec/core/table.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/secproto/session.hpp"
#include "avsec/sos/graph.hpp"
#include "harness.hpp"

namespace {

using namespace avsec;
using core::Table;

bool g_smoke = false;

void babbler_confinement() {
  Table t({"Corrupt prob", "Bus-off at (ms)", "Babble frames", "Error frames",
           "Victim mean wait (us)", "Bus load"});
  for (double corrupt : {1.0, 0.5, 0.25}) {
    core::Scheduler sim;
    netsim::CanBusConfig cfg;
    cfg.auto_bus_off_recovery = false;  // measure a single confinement arc
    netsim::CanBus bus(sim, cfg);
    const int victim = bus.attach("victim", nullptr);
    const int babbler = bus.attach("babbler", nullptr);
    bus.attach("listener", nullptr);

    netsim::CanFrame f;
    f.id = 0x200;
    f.payload = core::Bytes(8, 1);
    std::function<void()> tick = [&] {
      bus.send(victim, f);
      if (sim.now() < core::milliseconds(500)) {
        sim.schedule_in(core::milliseconds(5), tick);
      }
    };
    sim.schedule_at(0, tick);

    fault::CanNodeFault babbler_fault(sim, bus, babbler, 7);
    fault::FaultInjector injector(sim);
    injector.add_target("babbler", &babbler_fault);
    fault::FaultPlan plan;
    plan.add({core::milliseconds(50), fault::FaultKind::kBabblingIdiot,
              "babbler", /*duration=*/core::milliseconds(400),
              /*magnitude=*/corrupt});
    injector.arm(plan);

    core::SimTime bus_off_at = -1;
    std::function<void()> probe = [&] {
      if (bus_off_at < 0 && bus.is_bus_off(babbler)) bus_off_at = sim.now();
      if (sim.now() < core::milliseconds(500)) {
        sim.schedule_in(core::microseconds(100), probe);
      }
    };
    sim.schedule_at(core::milliseconds(50), probe);
    sim.run();

    t.add_row({Table::num(corrupt, 2),
               bus_off_at >= 0
                   ? Table::num(core::to_microseconds(bus_off_at) / 1000.0, 2)
                   : "never",
               std::to_string(babbler_fault.babble_frames()),
               std::to_string(bus.error_frames()),
               Table::num(bus.arbitration_wait().mean(), 0),
               Table::pct(bus.bus_load(), 1)});
  }
  t.print("FAULTa: babbling idiot vs ISO 11898 error confinement");
}

void session_vs_loss() {
  const int kTrials = g_smoke ? 8 : 40;
  Table t({"Drop rate", "Established", "Mean attempts",
           "Mean time to establish (ms)"});
  for (double drop : {0.0, 0.3, 0.6, 0.8, 0.95}) {
    int established = 0;
    core::Accumulator attempts, establish_ms;
    for (int trial = 0; trial < kTrials; ++trial) {
      core::Scheduler sim;
      netsim::FlakyChannelConfig lcfg;
      lcfg.drop_rate = drop;
      lcfg.seed = 17 + static_cast<std::uint64_t>(trial);
      netsim::FlakyChannel link(sim, lcfg);
      const secproto::TlsCa ca(core::Bytes(32, 0x55));
      secproto::TlsResponder responder(sim, link, 2, ca, "backend");
      secproto::RobustSessionConfig scfg;
      scfg.retry.max_retries = 8;
      scfg.max_reconnects = 4;
      secproto::RobustTlsSession session(sim, link, 3 + trial,
                                         ca.public_key(), scfg);
      session.connect();
      sim.run();

      if (!session.established()) continue;
      ++established;
      attempts.add(session.attempts());
      for (const auto& e : session.events()) {
        if (e.kind == secproto::SessionEventKind::kEstablished) {
          establish_ms.add(core::to_microseconds(e.time) / 1000.0);
          break;
        }
      }
    }
    t.add_row({Table::pct(drop, 0),
               std::to_string(established) + "/" + std::to_string(kTrials),
               established ? Table::num(attempts.mean(), 1) : "-",
               established ? Table::num(establish_ms.mean(), 2) : "-"});
  }
  t.print("FAULTb: handshake backoff vs link loss (seeded trials)");
}

void partition_reconnect() {
  Table t({"Partition (ms)", "Reconnects", "Re-established at (ms)"});
  for (int part_ms : {30, 150, 400}) {
    core::Scheduler sim;
    netsim::FlakyChannel link(sim, {});
    const secproto::TlsCa ca(core::Bytes(32, 0x55));
    secproto::TlsResponder responder(sim, link, 2, ca, "backend");
    secproto::RobustSessionConfig scfg;
    scfg.retry.max_retries = 2;
    scfg.reconnect_delay = core::milliseconds(30);
    scfg.max_reconnects = 0;
    secproto::RobustTlsSession session(sim, link, 3, ca.public_key(), scfg);
    session.connect();
    // Rekey into the partition: the handshake in flight must survive it.
    sim.schedule_at(core::milliseconds(20), [&] { session.rekey(); });

    fault::ChannelFault link_fault(link);
    fault::FaultInjector injector(sim);
    injector.add_target("uplink", &link_fault);
    fault::FaultPlan plan;
    plan.add({core::milliseconds(10), fault::FaultKind::kLinkPartition,
              "uplink", core::milliseconds(part_ms)});
    injector.arm(plan);
    sim.run();

    core::SimTime back_at = -1;
    for (const auto& e : session.events()) {
      if (e.kind == secproto::SessionEventKind::kEstablished &&
          e.time > core::milliseconds(10)) {
        back_at = e.time;
      }
    }
    t.add_row({std::to_string(part_ms),
               std::to_string(session.reconnects()),
               back_at >= 0
                   ? Table::num(core::to_microseconds(back_at) / 1000.0, 2)
                   : "-"});
  }
  t.print("FAULTc: partition duration vs session re-establishment");
}

void cascade_vs_recovery() {
  const auto g = sos::build_maas_reference(3);
  const int entry = g.node_id("maas-platform");
  Table t({"Recovery rate", "Peak mean compromised", "P(safety ever)",
           "Contained", "Mean rounds to containment"});
  for (double rate : {0.0, 0.1, 0.3, 0.5, 0.8}) {
    const auto timeline = sos::propagate_with_recovery(
        sos::with_recovery(g, rate), entry, /*rounds=*/12,
        /*trials=*/g_smoke ? 2000 : 20000,
        /*seed=*/11);
    t.add_row({Table::num(rate, 1),
               Table::num(timeline.peak_mean_compromised, 2),
               Table::pct(timeline.safety_critical_ever, 1),
               Table::pct(timeline.contained_fraction, 1),
               timeline.contained_fraction > 0
                   ? Table::num(timeline.mean_rounds_to_containment, 1)
                   : "-"});
  }
  t.print("FAULTd: SoS cascade vs per-node recovery (containment)");
}

void campaign_sweep() {
  // Crash/restart campaign on a two-provider service: the backup must
  // cover every primary outage.
  fault::CampaignConfig config;
  config.runs = g_smoke ? 10 : 50;
  config.base_seed = 99;
  fault::Campaign campaign(config);
  campaign.require("feed alive at end", [](const fault::Metrics& m) {
    return m.at("alive") == 1.0;
  });
  const auto report = campaign.sweep([](fault::SimContext& ctx,
                                       std::uint64_t seed) {
    core::Scheduler& sim = ctx.sim();
    netsim::CanBus bus(sim, {});
    const int primary = bus.attach("primary", nullptr);
    const int backup = bus.attach("backup", nullptr);
    std::uint64_t heard = 0;
    bus.attach("consumer", [&](int, const netsim::CanFrame&,
                               core::SimTime) { ++heard; });

    netsim::CanFrame f;
    f.id = 0x300;
    std::function<void()> tick = [&] {
      bus.send(bus.is_down(primary) ? backup : primary, f);
      if (sim.now() < core::seconds(1)) {
        sim.schedule_in(core::milliseconds(10), tick);
      }
    };
    sim.schedule_at(0, tick);

    fault::CanNodeFault primary_fault(sim, bus, primary, seed);
    fault::FaultInjector injector(sim);
    injector.add_target("primary", &primary_fault);
    fault::FaultPlan::RandomConfig rnd;
    rnd.count = 3;
    rnd.end = core::milliseconds(900);
    rnd.targets = {"primary"};
    rnd.kinds = {fault::FaultKind::kNodeCrash};
    injector.arm(fault::FaultPlan::random(rnd, seed));
    sim.run();

    fault::Metrics m;
    m["heard"] = static_cast<double>(heard);
    m["alive"] = heard >= 95 ? 1.0 : 0.0;  // ~100 expected over 1 s
    return m;
  });

  std::printf("FAULTe: %zu-run crash campaign: %zu passed, %zu failed "
              "(mean frames heard %.1f)\n\n",
              report.runs, report.runs - report.failed_runs,
              report.failed_runs, report.aggregate.at("heard").mean());
}

}  // namespace

int main(int argc, char** argv) {
  avsec::bench::Harness h("fault_injection", argc, argv);
  g_smoke = h.smoke();
  std::printf("== FAULT: fault injection, confinement & recovery ==\n");
  h.section("babbler_confinement", babbler_confinement);
  h.section("session_vs_loss", session_vs_loss);
  h.section("partition_reconnect", partition_reconnect);
  h.section("cascade_vs_recovery", cascade_vs_recovery);
  h.section("campaign_sweep", campaign_sweep);
  return 0;
}
