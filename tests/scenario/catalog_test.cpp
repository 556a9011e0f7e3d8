// The serve built-ins are ordinary specs: each embedded text is already in
// canonical form, each compiles, and the daemon's catalog is exactly those
// specs plus the two hand-written diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "avsec/scenario/scenario.hpp"

namespace avsec::scenario {
namespace {

TEST(ServeCatalog, EveryBuiltinSpecIsCanonicalText) {
  ASSERT_EQ(builtin_spec_texts().size(), 3u);
  for (const std::string_view text : builtin_spec_texts()) {
    const ParseResult parsed = parse_scenario_text(text, "builtin");
    ASSERT_TRUE(parsed.ok) << parsed.error.to_string();
    EXPECT_EQ(canonical_text(parsed.spec), text);
  }
}

TEST(ServeCatalog, EveryBuiltinSpecCompiles) {
  for (const std::string_view text : builtin_spec_texts()) {
    const ParseResult parsed = parse_scenario_text(text, "builtin");
    ASSERT_TRUE(parsed.ok) << parsed.error.to_string();
    const CompileResult built = compile(parsed.spec);
    EXPECT_TRUE(built.ok) << built.error.to_string();
  }
}

TEST(ServeCatalog, ListsTheBuiltinsAndTheTwoDiagnostics) {
  const serve::ScenarioRegistry catalog = serve_catalog();
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"busy-loop", "diagnostic: pumps events until the budget trips"},
      {"heartbeat-net", "multi-source liveness with an outage window"},
      {"ivn-can", "CAN segment under randomized node faults"},
      {"poison-crash", "diagnostic: crashes every attempt"},
      {"secure-uplink", "robust TLS session over a partitioning link"},
  };
  std::vector<std::pair<std::string, std::string>> listed;
  for (const std::string& name : catalog.names()) {
    listed.emplace_back(name, catalog.find(name)->description);
  }
  EXPECT_EQ(listed, expected);
}

}  // namespace
}  // namespace avsec::scenario
