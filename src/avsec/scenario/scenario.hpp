// Umbrella header for avsec::scenario — the declarative scenario DSL
// (DESIGN.md §15): spec model + parser, compiler onto the fault/netsim/
// health machinery, seeded generator, coverage map, corpus loader, and
// the serve built-in catalog.
#pragma once

#include "avsec/scenario/catalog.hpp"    // IWYU pragma: export
#include "avsec/scenario/compile.hpp"    // IWYU pragma: export
#include "avsec/scenario/corpus.hpp"     // IWYU pragma: export
#include "avsec/scenario/coverage.hpp"   // IWYU pragma: export
#include "avsec/scenario/generate.hpp"   // IWYU pragma: export
#include "avsec/scenario/parser.hpp"     // IWYU pragma: export
#include "avsec/scenario/spec.hpp"       // IWYU pragma: export
