// FIG3 — instantiates the paper's Fig. 3 zonal IVN and measures the
// unsecured baseline every security scenario builds on: per-technology
// latency and bus load across CAN, CAN FD, CAN XL, 10BASE-T1S, and the
// Ethernet backbone.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "avsec/core/table.hpp"
#include "avsec/netsim/topology.hpp"
#include "avsec/netsim/traffic.hpp"
#include "harness.hpp"

namespace {

using namespace avsec;
using core::Table;

void can_generations() {
  Table t({"Technology", "Payload (B)", "Frame time (us)", "Latency p50 (us)",
           "Latency p99 (us)", "Bus load"});

  struct Case {
    const char* name;
    netsim::CanProtocol protocol;
    std::size_t payload;
  };
  const Case cases[] = {
      {"Classic CAN (500k)", netsim::CanProtocol::kClassic, 8},
      {"CAN FD (500k/2M)", netsim::CanProtocol::kFd, 32},
      {"CAN FD (500k/2M)", netsim::CanProtocol::kFd, 64},
      {"CAN XL (500k/10M)", netsim::CanProtocol::kXl, 64},
      {"CAN XL (500k/10M)", netsim::CanProtocol::kXl, 1024},
  };
  for (const auto& c : cases) {
    core::Scheduler sim;
    netsim::CanBusConfig cfg;
    if (c.protocol == netsim::CanProtocol::kXl) cfg.data_bitrate = 10'000'000;
    netsim::CanBus bus(sim, cfg);
    const int tx = bus.attach("tx", nullptr);
    netsim::LatencyProbe probe(sim);
    bus.attach("rx", [&](int, const netsim::CanFrame& f, core::SimTime) {
      probe.mark_received(core::read_be(f.payload, 0, 8));
    });

    netsim::CanFrame frame;
    frame.id = 0x100;
    frame.protocol = c.protocol;
    netsim::PeriodicSource src(
        sim, core::milliseconds(1),
        [&](std::uint64_t seq) {
          probe.mark_sent(seq);
          frame.payload.clear();
          core::append_be(frame.payload, seq, 8);
          frame.payload.resize(c.payload, 0xAA);
          bus.send(tx, frame);
        },
        500);
    src.start();
    sim.run_until(core::milliseconds(600));

    t.add_row({c.name, std::to_string(c.payload),
               Table::num(core::to_microseconds(bus.frame_duration(frame)), 1),
               Table::num(probe.latencies_us().median(), 1),
               Table::num(probe.latencies_us().quantile(0.99), 1),
               Table::pct(bus.bus_load())});
  }
  t.print("FIG3a: CAN generations on the zone bus (1 kHz sender)");
}

// One row per load, plus an idle bus. Every row also goes to the BENCH
// JSON with its scheduler dispatch count; CI requires 0 on the idle row.
void t1s_segment(bench::Harness& h) {
  Table t({"Endpoints", "Offered load", "Access p50 (us)", "Access max (us)",
           "Bus load", "Dispatches"});
  struct Load {
    int endpoints;
    double per_node_hz;  // 0 = idle
  };
  const Load loads[] = {{2, 200.0}, {2, 800.0}, {4, 200.0}, {4, 800.0},
                        {8, 200.0}, {8, 800.0}, {8, 0.0}};
  for (const Load& load : loads) {
    const double t0 = bench::now_ns();
    core::Scheduler sim;
    netsim::T1sBus bus(sim, {});
    std::vector<int> nodes;
    for (int i = 0; i < load.endpoints; ++i) {
      nodes.push_back(bus.attach("n" + std::to_string(i), nullptr));
    }
    bus.start();
    std::vector<std::unique_ptr<netsim::PeriodicSource>> sources;
    for (int i = 0; load.per_node_hz > 0 && i < load.endpoints; ++i) {
      sources.push_back(std::make_unique<netsim::PeriodicSource>(
          sim, core::SimTime(core::kSecond / std::int64_t(load.per_node_hz)),
          [&, i](std::uint64_t) {
            netsim::EthFrame f;
            f.dst.fill(0xFF);
            f.payload = core::Bytes(100, 0x55);
            bus.send(nodes[std::size_t(i)], f);
          },
          0, core::microseconds(100), std::uint64_t(i + 1)));
      sources.back()->start(core::microseconds(137 * i));
    }
    sim.run_until(core::milliseconds(500));

    const std::string offered =
        load.per_node_hz > 0 ? Table::num(load.per_node_hz, 0) + " Hz/node"
                             : "idle";
    t.add_row({std::to_string(load.endpoints), offered,
               Table::num(bus.access_latency().median(), 1),
               Table::num(bus.access_latency().max(), 1),
               Table::pct(bus.bus_load()), std::to_string(sim.dispatched())});
    bench::Result r;
    r.name = "plca_" + std::to_string(load.endpoints) + "ep_" +
             (load.per_node_hz > 0
                  ? Table::num(load.per_node_hz, 0) + "hz"
                  : std::string("idle"));
    r.ns = bench::now_ns() - t0;
    r.extra["dispatches"] = static_cast<double>(sim.dispatched());
    h.add(std::move(r));
  }
  t.print("FIG3b: 10BASE-T1S multidrop segment under PLCA");
}

void backbone() {
  Table t({"Path", "Frame (B)", "Latency p50 (us)", "Latency p99 (us)"});
  for (std::size_t payload : {64u, 512u, 1500u}) {
    core::Scheduler sim;
    netsim::ZonalTopology topo(sim, {});
    netsim::LatencyProbe probe(sim);
    topo.cc_nic().set_rx([&](const netsim::EthFrame& f, core::SimTime) {
      probe.mark_received(core::read_be(f.payload, 0, 8));
    });
    netsim::PeriodicSource src(
        sim, core::microseconds(200),
        [&](std::uint64_t seq) {
          probe.mark_sent(seq);
          netsim::EthFrame f;
          f.dst = topo.cc_mac();
          core::append_be(f.payload, seq, 8);
          f.payload.resize(payload, 0x33);
          topo.zc1_nic().send(f);
        },
        1000);
    src.start();
    sim.run_until(core::milliseconds(300));
    t.add_row({"ZC1 -> switch -> CC", std::to_string(payload),
               Table::num(probe.latencies_us().median(), 2),
               Table::num(probe.latencies_us().quantile(0.99), 2)});
  }
  t.print("FIG3c: 1000BASE-T1 backbone through the central switch");
}

}  // namespace

int main(int argc, char** argv) {
  avsec::bench::Harness h("fig3_ivn_baseline", argc, argv);
  std::printf("== FIG3: zonal IVN baseline (paper Fig. 3) ==\n");
  h.section("can_generations", can_generations);
  h.section("t1s_segment", [&] { t1s_segment(h); });
  h.section("backbone", backbone);
  return 0;
}
