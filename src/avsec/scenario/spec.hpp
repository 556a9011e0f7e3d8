// Declarative scenario model (avsec::scenario) — the data the .avsc
// format denotes.
//
// A ScenarioSpec is the cross-product cell the paper's evaluation story
// needs made concrete: which topology (attack surface), which protocol
// stack from Table I, which attack mix, which defense posture, and which
// pass/fail oracles decide the run. Specs are plain data: the parser
// produces them, the generator samples them, the compiler lowers them
// onto the fault/netsim/health machinery, and the coverage map counts
// them.
//
// canonical_text() renders a spec in the one normative form (fixed
// section order, every field explicit, shortest-round-trip number
// formatting), so parse(canonical_text(s)) == s byte-for-byte stable —
// the property the corpus and generator determinism tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "avsec/core/time.hpp"

namespace avsec::scenario {

/// Attack surface / world shape a scenario instantiates (DESIGN.md §15).
enum class Topology : std::uint8_t {
  kCan,        // CAN segment: sensor feed, endpoint ECUs, gateway receiver
  kT1s,        // 10BASE-T1S multidrop segment with a PLCA coordinator
  kLink,       // point-to-point flaky datagram link (uplink / V2X style)
  kHeartbeat,  // multi-source liveness net with optional probe channels
};

/// Protocol stack selection (Table I rows; validity depends on topology).
enum class Protocol : std::uint8_t {
  kNone,    // plaintext baseline
  kSecOc,   // AUTOSAR SecOC over CAN FD
  kCansec,  // CANsec (CiA 613-2) over CAN XL
  kMacsec,  // IEEE 802.1AE over the T1S segment
  kTls,     // robust TLS session over the link
};

/// Attack / fault kinds a scenario can schedule. Link and node kinds
/// lower onto fault::FaultPlan events; the protocol-layer kinds (replay,
/// tamper, forge) are scheduled wire injections; mute silences a
/// publisher (and, hard-muted, its probe responder).
enum class AttackKind : std::uint8_t {
  kNodeCrash,      // ECU powers off for `duration`
  kBabblingIdiot,  // node floods top-priority frames for `duration`
  kBusOff,         // targeted error injection: next `count` frames corrupted
  kLinkDrop,       // link drop probability = magnitude for `duration`
  kLinkCorrupt,    // link corruption probability = magnitude
  kLinkDelay,      // added one-way delay = delta
  kLinkPartition,  // both directions dead for `duration`
  kReplay,         // re-inject the last captured secured frame, `count` times
  kTamper,         // re-inject the last captured frame with one byte flipped
  kForge,          // inject `count` fabricated frames on the protected id
  kMute,           // publisher silent for `duration`; magnitude >= 0.5 also
                   // takes the probe responder offline ("hard" mute)
};

/// Whether an entry came from an `attack` or a `fault` section. Both lower
/// identically; the distinction labels provenance (adversarial vs benign)
/// in traces and reports.
enum class Provenance : std::uint8_t { kAttack, kFault };

/// One scheduled attack/fault entry.
struct AttackEntry {
  AttackKind kind = AttackKind::kNodeCrash;
  Provenance provenance = Provenance::kAttack;
  int target = 0;                               // endpoint / source index
  core::SimTime at = core::milliseconds(50);    // injection time
  core::SimTime duration = 0;                   // 0 = permanent
  double magnitude = 1.0;                       // kind-specific intensity
  core::SimTime delta = 0;                      // kind-specific time param
  std::uint32_t count = 1;                      // kind-specific repetition
  int line = 0;  // source line (diagnostics only; not part of identity)
};

/// One `inject random` section: a seeded fault::FaultPlan::random family
/// drawn per run, so every seed of the campaign sees a different schedule.
struct RandomInject {
  std::size_t count = 4;
  core::SimTime window_start = core::milliseconds(20);
  core::SimTime window_end = core::milliseconds(200);
  core::SimTime min_duration = core::milliseconds(10);
  core::SimTime max_duration = core::milliseconds(80);
  std::vector<AttackKind> kinds;  // restricted to node/link kinds
  int line = 0;                   // diagnostics only
};

/// Defense posture toggles. The (monitor, recovery) pair names the
/// coverage posture axis: open, monitored, recovering, defended. The
/// defaults fill properties a `defense` section omits; a spec with no
/// `defense` section gets the last of valid_postures(topology), the
/// strongest posture the topology supports.
struct DefenseConfig {
  bool monitor = true;   // health monitoring attached to the feed
  bool recovery = true;  // auto-recovery paths armed (bus-off rejoin,
                         // session reconnect, challenge-response probes)
};

enum class OracleOp : std::uint8_t { kEq, kNe, kLe, kGe, kLt, kGt };

/// One pass/fail oracle: `metric op value` over the run's metrics map.
struct Oracle {
  std::string metric;
  OracleOp op = OracleOp::kEq;
  double value = 0.0;
  int line = 0;  // diagnostics only
};

/// The whole declarative scenario. Field defaults are the parser's
/// defaults for omitted properties.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::size_t runs = 4;
  std::uint64_t seed = 1;
  core::SimTime horizon = core::milliseconds(400);

  Topology topology = Topology::kCan;
  int nodes = 3;                               // endpoints / sources
  core::SimTime period = core::milliseconds(10);  // traffic period
  std::size_t payload = 8;                     // app payload bytes

  Protocol protocol = Protocol::kNone;
  DefenseConfig defense;

  std::vector<AttackEntry> attacks;   // file order preserved
  std::vector<RandomInject> injects;  // file order preserved
  std::vector<Oracle> oracles;        // file order preserved

  // Diagnostics (never part of identity or canonical text).
  std::string source_file;
  int topology_line = 0;
  int protocol_line = 0;
};

// --- enum <-> wire-name maps (the parser/canonical vocabulary) ----------

const char* topology_name(Topology t);
const char* protocol_name(Protocol p);
const char* attack_kind_name(AttackKind k);
const char* oracle_op_name(OracleOp op);
/// Posture label of a defense pair: open / monitored / recovering / defended.
const char* posture_name(const DefenseConfig& d);

bool parse_topology(std::string_view s, Topology& out);
bool parse_protocol(std::string_view s, Protocol& out);
bool parse_attack_kind(std::string_view s, AttackKind& out);
bool parse_oracle_op(std::string_view s, OracleOp& out);

/// Formats `t` with the largest time unit that divides it exactly
/// (e.g. 400ms, 250us, 1s); the parser accepts exactly these literals.
std::string time_literal(core::SimTime t);

/// Shortest decimal that round-trips through strtod (std::to_chars).
std::string double_literal(double v);

/// Evaluates one oracle comparison.
bool oracle_holds(OracleOp op, double metric, double value);

/// The normative text form: fixed section order, every field explicit.
/// parse(canonical_text(s)) reproduces `s` exactly, and canonical_text is
/// idempotent across that round-trip (byte-stable).
std::string canonical_text(const ScenarioSpec& spec);

/// Semantic equality: everything except diagnostics (source file / line
/// numbers). Implemented as canonical_text equality, which is the
/// property tests actually rely on.
bool operator==(const ScenarioSpec& a, const ScenarioSpec& b);
inline bool operator!=(const ScenarioSpec& a, const ScenarioSpec& b) {
  return !(a == b);
}

}  // namespace avsec::scenario
