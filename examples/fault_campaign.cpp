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

#include "avsec/fault/cli.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/ids/response.hpp"
#include "avsec/secproto/session.hpp"

using namespace avsec;

namespace {

// One full world per run, on the worker's pooled scheduler: build, fault,
// simulate, measure.
fault::Metrics run_scenario(fault::SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();

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
  fault::cli::CampaignMain campaign;
  campaign.title = "avsec fault campaign: attacks and faults, co-simulated";
  campaign.config.runs = 20;
  campaign.config.base_seed = 2026;
  // A crashing or runaway seed becomes a quarantined outcome instead of
  // taking the whole sweep down. The event budget is far above any
  // legitimate run; the wall deadline stays off so the report is a pure
  // function of the seeds.
  campaign.config.supervision.max_events = 50'000'000;
  campaign.config.supervision.retry.max_retries = 1;
  campaign.invariants = {
      {"feed recovers by end of run",
       [](const fault::Metrics& m) { return m.at("feed_ok_at_end") == 1.0; }},
      {"limp-home not stuck at end",
       [](const fault::Metrics& m) {
         return m.at("limp_home_at_end") == 0.0;
       }},
      {"uplink session up at end",
       [](const fault::Metrics& m) {
         return m.at("session_up_at_end") == 1.0;
       }},
      {"feed never silent > 1s",
       [](const fault::Metrics& m) {
         return m.at("worst_feed_gap_ms") <= 1000.0;
       }},
  };
  campaign.run = run_scenario;
  return fault::cli::campaign_main(argc, argv, campaign);
}
