#include "avsec/scenario/catalog.hpp"

#include <stdexcept>

#include "avsec/scenario/compile.hpp"
#include "avsec/scenario/parser.hpp"

namespace avsec::scenario {

const std::vector<std::string_view>& builtin_spec_texts() {
  static const std::vector<std::string_view> kTexts = {
      // CAN segment: the feed ECU and a second ECU take a seeded schedule
      // of crashes and babbling; bus-off recovery stays armed.
      R"(scenario ivn-can
  describe "CAN segment under randomized node faults"
  runs 4
  seed 1
  horizon 600ms

topology can
  nodes 2
  period 10ms
  payload 8

protocol none

defense
  monitor off
  recovery on

inject random
  count 3
  window 20ms 450ms
  durations 10ms 120ms
  kinds node-crash babbling-idiot
)",
      // Robust TLS session over a link that partitions and drops on a
      // seeded schedule; the session reconnects after each loss.
      R"(scenario secure-uplink
  describe "robust TLS session over a partitioning link"
  runs 4
  seed 1
  horizon 900ms

topology link
  nodes 2
  period 10ms
  payload 16

protocol tls

defense
  monitor off
  recovery on

inject random
  count 3
  window 10ms 600ms
  durations 10ms 150ms
  kinds link-partition link-drop
)",
      // Three liveness sources; one goes silent for a fixed window, and the
      // monitor must declare it down and then recovered.
      R"(scenario heartbeat-net
  describe "multi-source liveness with an outage window"
  runs 4
  seed 1
  horizon 400ms

topology heartbeat
  nodes 3
  period 8ms
  payload 8

protocol none

defense
  monitor on
  recovery off

attack mute
  target 1
  at 20ms
  duration 50ms
  magnitude 0
  delta 0s
  count 1
)",
  };
  return kTexts;
}

serve::ScenarioRegistry serve_catalog() {
  serve::ScenarioRegistry registry = serve::ScenarioRegistry::diagnostics();
  for (const std::string_view text : builtin_spec_texts()) {
    const ParseResult parsed = parse_scenario_text(text, "builtin");
    if (!parsed.ok) throw std::logic_error(parsed.error.to_string());
    const CompileResult built = compile(parsed.spec);
    if (!built.ok) throw std::logic_error(built.error.to_string());
    registry.add(built.compiled.serve_entry());
  }
  return registry;
}

}  // namespace avsec::scenario
