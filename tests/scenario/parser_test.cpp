// Parser contract: exact diagnostics (message + line) on malformed input,
// defaults on minimal input, and the canonical-text round-trip.
#include <gtest/gtest.h>

#include "avsec/scenario/compile.hpp"
#include "avsec/scenario/parser.hpp"
#include "avsec/scenario/spec.hpp"

namespace avsec::scenario {
namespace {

ScenarioSpec parse_ok(const std::string& text) {
  ParseResult r = parse_scenario_text(text, "test.avsc");
  EXPECT_TRUE(r.ok) << r.error.to_string();
  return r.spec;
}

ParseError parse_err(const std::string& text) {
  ParseResult r = parse_scenario_text(text, "test.avsc");
  EXPECT_FALSE(r.ok);
  return r.error;
}

TEST(ScenarioParser, MinimalSpecGetsDefaults) {
  const ScenarioSpec s = parse_ok("scenario tiny\n");
  EXPECT_EQ(s.name, "tiny");
  EXPECT_EQ(s.runs, 4u);
  EXPECT_EQ(s.seed, 1u);
  EXPECT_EQ(s.horizon, core::milliseconds(400));
  EXPECT_EQ(s.topology, Topology::kCan);
  EXPECT_EQ(s.nodes, 3);
  EXPECT_EQ(s.period, core::milliseconds(10));
  EXPECT_EQ(s.payload, 8u);
  EXPECT_EQ(s.protocol, Protocol::kNone);
  EXPECT_TRUE(s.defense.monitor);
  EXPECT_TRUE(s.defense.recovery);
  EXPECT_TRUE(s.attacks.empty());
  EXPECT_TRUE(s.oracles.empty());
}

TEST(ScenarioParser, FullSpecParses) {
  const ScenarioSpec s = parse_ok(
      "# comment\n"
      "scenario full\n"
      "  describe \"has spaces and a # inside\"\n"
      "  runs 7\n"
      "  seed 99\n"
      "  horizon 250ms\n"
      "\n"
      "topology t1s\n"
      "  nodes 5\n"
      "  period 5ms\n"
      "  payload 32\n"
      "\n"
      "protocol macsec\n"
      "\n"
      "defense\n"
      "  monitor on\n"
      "  recovery off\n"
      "\n"
      "attack replay\n"
      "  target 0\n"
      "  at 100ms\n"
      "  count 2\n"
      "  delta 2ms\n"
      "\n"
      "oracle attack_accepted == 0\n"
      "oracle frames_ok >= 1\n");
  EXPECT_EQ(s.description, "has spaces and a # inside");
  EXPECT_EQ(s.runs, 7u);
  EXPECT_EQ(s.topology, Topology::kT1s);
  EXPECT_EQ(s.protocol, Protocol::kMacsec);
  EXPECT_FALSE(s.defense.recovery);
  ASSERT_EQ(s.attacks.size(), 1u);
  EXPECT_EQ(s.attacks[0].kind, AttackKind::kReplay);
  EXPECT_EQ(s.attacks[0].count, 2u);
  EXPECT_EQ(s.attacks[0].delta, core::milliseconds(2));
  ASSERT_EQ(s.oracles.size(), 2u);
  EXPECT_EQ(s.oracles[0].metric, "attack_accepted");
  EXPECT_EQ(s.oracles[1].op, OracleOp::kGe);
}

TEST(ScenarioParser, FaultSectionSetsProvenance) {
  const ScenarioSpec s = parse_ok(
      "scenario p\n\nfault node-crash\n  target 1\n  duration 50ms\n");
  ASSERT_EQ(s.attacks.size(), 1u);
  EXPECT_EQ(s.attacks[0].provenance, Provenance::kFault);
}

TEST(ScenarioParser, EmptyFileIsMissingScenario) {
  const ParseError e = parse_err("");
  EXPECT_EQ(e.line, 1);
  EXPECT_EQ(e.message, "missing required section: scenario");
}

TEST(ScenarioParser, TruncatedSectionHeader) {
  const ParseError e = parse_err("scenario x\n\ntopology\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "topology: expected one of can, t1s, link, heartbeat");
}

TEST(ScenarioParser, UnknownSection) {
  const ParseError e = parse_err("scenario x\n\nwarp 9\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "unknown section 'warp'");
}

TEST(ScenarioParser, UnknownPropertyInSection) {
  const ParseError e = parse_err("scenario x\n  runes 4\n");
  EXPECT_EQ(e.line, 2);
  EXPECT_EQ(e.message, "unknown property 'runes' in scenario section");
}

TEST(ScenarioParser, PropertyOutsideSection) {
  const ParseError e = parse_err("  runs 4\nscenario x\n");
  EXPECT_EQ(e.line, 1);
  EXPECT_EQ(e.message, "property 'runs' outside any section");
}

TEST(ScenarioParser, OutOfRangeRuns) {
  const ParseError e = parse_err("scenario x\n  runs 0\n");
  EXPECT_EQ(e.line, 2);
  EXPECT_EQ(e.message, "runs must be in [1, 10000], got 0");
}

TEST(ScenarioParser, OutOfRangeNodes) {
  const ParseError e = parse_err("scenario x\n\ntopology can\n  nodes 17\n");
  EXPECT_EQ(e.line, 4);
  EXPECT_EQ(e.message, "nodes must be in [2, 16], got 17");
}

TEST(ScenarioParser, OutOfRangeHorizon) {
  const ParseError e = parse_err("scenario x\n  horizon 11s\n");
  EXPECT_EQ(e.line, 2);
  EXPECT_EQ(e.message, "horizon must be in [1ms, 10s], got 11s");
}

TEST(ScenarioParser, BadTimeLiteral) {
  const ParseError e = parse_err("scenario x\n  horizon 5m\n");
  EXPECT_EQ(e.line, 2);
  EXPECT_EQ(e.message, "horizon: expected a time literal like 250ms, got '5m'");
}

TEST(ScenarioParser, BadUnsignedInteger) {
  const ParseError e = parse_err("scenario x\n  runs many\n");
  EXPECT_EQ(e.line, 2);
  EXPECT_EQ(e.message, "runs: expected an unsigned integer, got 'many'");
}

TEST(ScenarioParser, DuplicateTopologySection) {
  const ParseError e =
      parse_err("scenario x\n\ntopology can\n\ntopology t1s\n");
  EXPECT_EQ(e.line, 5);
  EXPECT_EQ(e.message, "duplicate section: topology");
}

TEST(ScenarioParser, DuplicateScenarioSection) {
  const ParseError e = parse_err("scenario x\n\nscenario y\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "duplicate section: scenario");
}

TEST(ScenarioParser, UnknownTopology) {
  const ParseError e = parse_err("scenario x\n\ntopology mesh\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message,
            "unknown topology 'mesh' (expected can, t1s, link or heartbeat)");
}

TEST(ScenarioParser, UnknownProtocol) {
  const ParseError e = parse_err("scenario x\n\nprotocol ipsec\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message,
            "unknown protocol 'ipsec' (expected none, secoc, cansec, macsec "
            "or tls)");
}

TEST(ScenarioParser, UnknownAttackKind) {
  const ParseError e = parse_err("scenario x\n\nattack glitch\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "unknown attack kind 'glitch'");
}

TEST(ScenarioParser, MagnitudeRangeForUnitIntervalKinds) {
  const ParseError e =
      parse_err("scenario x\n\nattack link-drop\n  magnitude 1.5\n");
  EXPECT_EQ(e.line, 4);
  EXPECT_EQ(e.message, "magnitude must be in [0, 1] for link-drop, got 1.5");
}

TEST(ScenarioParser, DefenseTakesNoArguments) {
  const ParseError e = parse_err("scenario x\n\ndefense hard\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "defense: takes no arguments");
}

TEST(ScenarioParser, AbsentDefenseIsStrongestValidPosture) {
  // t1s has no recovery lowering, so its strongest posture is monitored.
  const ScenarioSpec t1s = parse_ok("scenario bus\n\ntopology t1s\n");
  EXPECT_TRUE(t1s.defense.monitor);
  EXPECT_FALSE(t1s.defense.recovery);
  const CompileResult c = compile(t1s);
  EXPECT_TRUE(c.ok) << c.error.to_string();
  EXPECT_NE(canonical_text(t1s).find("defense\n  monitor on\n  recovery off\n"),
            std::string::npos)
      << canonical_text(t1s);
  // can supports recovery, so a spec without the section stays defended.
  const ScenarioSpec can = parse_ok("scenario ecu\n\ntopology can\n");
  EXPECT_TRUE(can.defense.monitor);
  EXPECT_TRUE(can.defense.recovery);
  EXPECT_TRUE(compile(can).ok);
}

TEST(ScenarioParser, DefenseBadToggle) {
  const ParseError e = parse_err("scenario x\n\ndefense\n  monitor maybe\n");
  EXPECT_EQ(e.line, 4);
  EXPECT_EQ(e.message, "monitor: expected 'on' or 'off', got 'maybe'");
}

TEST(ScenarioParser, InjectRequiresRandom) {
  const ParseError e = parse_err("scenario x\n\ninject uniform\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "inject: expected 'inject random'");
}

TEST(ScenarioParser, InjectRequiresKinds) {
  const ParseError e = parse_err("scenario x\n\ninject random\n  count 3\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "inject random: missing 'kinds' property");
}

TEST(ScenarioParser, InjectWindowOrdering) {
  const ParseError e = parse_err(
      "scenario x\n\ninject random\n  window 200ms 100ms\n  kinds "
      "node-crash\n");
  EXPECT_EQ(e.line, 4);
  EXPECT_EQ(e.message, "window: expected two time literals with start < end");
}

TEST(ScenarioParser, OracleShape) {
  const ParseError e = parse_err("scenario x\n\noracle frames_sent\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "oracle: expected 'oracle <metric> <op> <value>'");
}

TEST(ScenarioParser, OracleUnknownComparator) {
  const ParseError e = parse_err("scenario x\n\noracle frames_sent ~= 1\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "oracle: unknown comparator '~='");
}

TEST(ScenarioParser, OracleNonNumericValue) {
  const ParseError e = parse_err("scenario x\n\noracle frames_sent >= lots\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "oracle: expected a numeric value, got 'lots'");
}

TEST(ScenarioParser, UnreadableFile) {
  const ParseResult r =
      parse_scenario_file("/nonexistent/dir/missing.avsc");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.line, 0);
  EXPECT_EQ(r.error.message, "cannot open file");
}

TEST(ScenarioParser, ErrorToStringShape) {
  const ParseError e = parse_err("scenario x\n  runs 0\n");
  EXPECT_EQ(e.to_string(), "test.avsc:2: runs must be in [1, 10000], got 0");
}

TEST(ScenarioParser, CanonicalTextRoundTrips) {
  const std::string text =
      "scenario rt\n"
      "  describe \"round trip\"\n"
      "  runs 3\n"
      "  horizon 300ms\n"
      "\n"
      "topology can\n"
      "  nodes 4\n"
      "  period 5ms\n"
      "  payload 16\n"
      "\n"
      "protocol secoc\n"
      "\n"
      "defense\n"
      "  monitor on\n"
      "  recovery off\n"
      "\n"
      "attack replay\n"
      "  at 80ms\n"
      "  count 2\n"
      "  delta 2ms\n"
      "\n"
      "inject random\n"
      "  count 3\n"
      "  window 50ms 200ms\n"
      "  durations 10ms 30ms\n"
      "  kinds node-crash\n"
      "\n"
      "oracle attack_accepted == 0\n";
  const ScenarioSpec first = parse_ok(text);
  const std::string canon = canonical_text(first);
  const ScenarioSpec second = parse_ok(canon);
  EXPECT_EQ(first, second);
  // Idempotent: canonicalising the canonical form changes nothing.
  EXPECT_EQ(canon, canonical_text(second));
}

TEST(ScenarioParser, CanonicalTextIsByteStable) {
  const ScenarioSpec s = parse_ok(
      "scenario stable\n  seed 42\n\ntopology heartbeat\n  nodes 3\n\n"
      "attack mute\n  target 1\n  at 100ms\n  duration 150ms\n"
      "  magnitude 1\n\noracle downs >= 1\n");
  EXPECT_EQ(canonical_text(s), canonical_text(s));
  const ScenarioSpec again = parse_ok(canonical_text(s));
  EXPECT_EQ(canonical_text(s), canonical_text(again));
}

}  // namespace
}  // namespace avsec::scenario
