#include "avsec/scenario/generate.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "avsec/core/time.hpp"
#include "avsec/scenario/compile.hpp"

namespace avsec::scenario {
namespace {

using core::SimTime;

bool is_protocol_attack(AttackKind k) {
  return k == AttackKind::kReplay || k == AttackKind::kTamper ||
         k == AttackKind::kForge;
}

bool is_node_attack(AttackKind k) {
  return k == AttackKind::kNodeCrash || k == AttackKind::kBabblingIdiot ||
         k == AttackKind::kBusOff || k == AttackKind::kMute;
}

bool has_duration_window(AttackKind k) {
  switch (k) {
    case AttackKind::kNodeCrash:
    case AttackKind::kBabblingIdiot:
    case AttackKind::kLinkDrop:
    case AttackKind::kLinkCorrupt:
    case AttackKind::kLinkDelay:
    case AttackKind::kLinkPartition:
    case AttackKind::kMute:
      return true;
    default:
      return false;
  }
}

std::size_t sample_payload(Topology t, Protocol p, core::Rng& rng) {
  switch (t) {
    case Topology::kCan:
      // Respect the per-protocol payload ceilings compile() enforces
      // (classic 8, SecOC leaves 60 of the FD 64, CANsec rides CAN XL).
      if (p == Protocol::kNone) return static_cast<std::size_t>(rng.uniform_int(1, 8));
      if (p == Protocol::kSecOc) return static_cast<std::size_t>(rng.uniform_int(4, 32));
      return static_cast<std::size_t>(rng.uniform_int(8, 64));
    case Topology::kT1s:
      return static_cast<std::size_t>(rng.uniform_int(8, 64));
    case Topology::kLink:
      return static_cast<std::size_t>(rng.uniform_int(8, 32));
    case Topology::kHeartbeat:
      return 8;
  }
  return 8;
}

AttackEntry sample_attack(const CoverageCell& cell, int nodes, core::Rng& rng) {
  AttackEntry a;
  a.kind = cell.attack;
  a.provenance = Provenance::kAttack;
  a.target = is_node_attack(a.kind)
                 ? static_cast<int>(rng.uniform_int(0, nodes - 1))
                 : 0;
  // Land after the feed has warmed up (worst period is 10ms, so 60ms is
  // comfortably past the first few beats and any capture the protocol
  // attacks need) but well inside the shortest 200ms horizon.
  a.at = core::milliseconds(rng.uniform_int(60, 120));
  a.duration =
      has_duration_window(a.kind) ? core::milliseconds(rng.uniform_int(30, 80))
                                  : SimTime{0};
  switch (a.kind) {
    case AttackKind::kBabblingIdiot:
    case AttackKind::kLinkDrop:
    case AttackKind::kLinkCorrupt:
      a.magnitude = static_cast<double>(rng.uniform_int(5, 9)) / 10.0;
      break;
    case AttackKind::kMute:
      a.magnitude = rng.chance(0.5) ? 1.0 : 0.0;
      break;
    default:
      a.magnitude = 1.0;
      break;
  }
  if (a.kind == AttackKind::kLinkDelay) {
    a.delta = core::milliseconds(rng.uniform_int(1, 5));
  }
  if (a.kind == AttackKind::kReplay || a.kind == AttackKind::kForge) {
    a.count = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    if (a.count > 1) a.delta = core::milliseconds(2);
  } else if (a.kind == AttackKind::kBusOff) {
    a.count = static_cast<std::uint32_t>(rng.uniform_int(8, 32));
  }
  return a;
}

const char* traffic_metric(Topology t) {
  switch (t) {
    case Topology::kCan:
    case Topology::kT1s:
      return "frames_sent";
    case Topology::kLink:
      return "datagrams_sent";
    case Topology::kHeartbeat:
      return "beats_sent";
  }
  return "frames_sent";
}

}  // namespace

std::vector<CoverageCell> cell_universe() {
  std::vector<CoverageCell> cells;
  const Topology topologies[] = {Topology::kCan, Topology::kT1s,
                                 Topology::kLink, Topology::kHeartbeat};
  for (Topology t : topologies) {
    for (Protocol p : valid_protocols(t)) {
      for (AttackKind k : valid_attacks(t)) {
        for (const DefenseConfig& d : valid_postures(t)) {
          cells.push_back(CoverageCell{t, p, k, d});
        }
      }
    }
  }
  return cells;
}

std::string cell_name(const CoverageCell& cell) {
  std::string s = topology_name(cell.topology);
  s += ' ';
  s += protocol_name(cell.protocol);
  s += ' ';
  s += attack_kind_name(cell.attack);
  s += ' ';
  s += posture_name(cell.posture);
  return s;
}

ScenarioSpec generate_for_cell(const CoverageCell& cell, core::Rng& rng,
                               std::size_t index,
                               const std::string& name_prefix) {
  ScenarioSpec spec;
  spec.topology = cell.topology;
  spec.protocol = cell.protocol;
  spec.defense = cell.posture;

  char seq[8];
  std::snprintf(seq, sizeof(seq), "%03zu", index);
  spec.name = name_prefix + "-" + seq + "-" + topology_name(cell.topology) +
              "-" + protocol_name(cell.protocol) + "-" +
              attack_kind_name(cell.attack) + "-" + posture_name(cell.posture);
  spec.description = std::string("generated: ") + topology_name(cell.topology) +
                     "/" + protocol_name(cell.protocol) + " " +
                     attack_kind_name(cell.attack) + " under " +
                     posture_name(cell.posture) + " posture";

  spec.runs = static_cast<std::size_t>(rng.uniform_int(2, 4));
  spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 99999));
  spec.horizon = core::milliseconds(rng.uniform_int(4, 8) * 50);
  switch (cell.topology) {
    case Topology::kCan:
    case Topology::kT1s:
      spec.nodes = static_cast<int>(rng.uniform_int(3, 6));
      break;
    case Topology::kLink:
      spec.nodes = 2;
      break;
    case Topology::kHeartbeat:
      spec.nodes = static_cast<int>(rng.uniform_int(2, 5));
      break;
  }
  spec.period = core::milliseconds(rng.uniform_int(5, 10));
  spec.payload = sample_payload(cell.topology, cell.protocol, rng);

  spec.attacks.push_back(sample_attack(cell, spec.nodes, rng));

  // A side helping of seeded random faults where the topology supports
  // them, to exercise the per-run FaultPlan::random path. Only alongside
  // plan-kind attacks: protocol-attack cells keep a clean wire so their
  // accept/reject oracles stay sharp.
  const bool plan_cell = !is_protocol_attack(cell.attack);
  if (cell.topology == Topology::kCan && plan_cell && rng.chance(0.35)) {
    RandomInject inj;
    inj.count = static_cast<std::size_t>(rng.uniform_int(2, 4));
    inj.window_start = core::milliseconds(20);
    inj.window_end = spec.horizon / 2;
    inj.min_duration = core::milliseconds(5);
    inj.max_duration = core::milliseconds(25);
    inj.kinds = {AttackKind::kNodeCrash};
    spec.injects.push_back(std::move(inj));
  } else if (cell.topology == Topology::kLink && rng.chance(0.35)) {
    RandomInject inj;
    inj.count = static_cast<std::size_t>(rng.uniform_int(2, 4));
    inj.window_start = core::milliseconds(20);
    inj.window_end = spec.horizon / 2;
    inj.min_duration = core::milliseconds(5);
    inj.max_duration = core::milliseconds(25);
    inj.kinds = {AttackKind::kLinkDrop};
    spec.injects.push_back(std::move(inj));
  }

  // Conservative guaranteed-pass oracles: generated scenarios must run
  // green in the corpus gate without per-spec tuning.
  Oracle traffic;
  traffic.metric = traffic_metric(cell.topology);
  traffic.op = OracleOp::kGe;
  traffic.value = 1.0;
  spec.oracles.push_back(std::move(traffic));
  if (is_protocol_attack(cell.attack) && cell.protocol != Protocol::kNone) {
    // Authenticated stacks reject replays/tampers/forgeries outright.
    Oracle sealed;
    sealed.metric = "attack_accepted";
    sealed.op = OracleOp::kEq;
    sealed.value = 0.0;
    spec.oracles.push_back(std::move(sealed));
  }
  return spec;
}

std::vector<ScenarioSpec> generate(const GeneratorConfig& config) {
  core::Rng rng(config.seed);
  const std::vector<CoverageCell> universe = cell_universe();

  // Seed-derived Fisher-Yates permutation (not std::shuffle, whose draw
  // pattern is implementation-defined): a batch walks every cell once
  // before repeating any.
  std::vector<std::size_t> order(universe.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }

  std::vector<ScenarioSpec> specs;
  specs.reserve(std::min(config.count, universe.size()));
  for (std::size_t i = 0; i < config.count; ++i) {
    const CoverageCell& cell = universe[order[i % universe.size()]];
    core::Rng sub = rng.split();
    specs.push_back(generate_for_cell(cell, sub, i, config.name_prefix));
  }
  return specs;
}

}  // namespace avsec::scenario
