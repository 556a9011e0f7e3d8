// The avsec-serve built-in catalog (DESIGN.md §14): three committed .avsc
// specs, compiled at start-up like any corpus file and served through
// CompiledScenario::serve_entry(), plus serve's two hand-written
// diagnostics. A built-in is an ordinary spec: canonical text, one
// compile() and the same world as every other spec of its topology.
#pragma once

#include <string_view>
#include <vector>

#include "avsec/serve/registry.hpp"

namespace avsec::scenario {

/// Canonical .avsc text of the built-in specs: ivn-can, secure-uplink and
/// heartbeat-net.
const std::vector<std::string_view>& builtin_spec_texts();

/// The daemon's catalog: serve::ScenarioRegistry::diagnostics() plus every
/// built-in spec under its spec name. Throws std::logic_error if a
/// built-in fails to parse or compile.
serve::ScenarioRegistry serve_catalog();

}  // namespace avsec::scenario
