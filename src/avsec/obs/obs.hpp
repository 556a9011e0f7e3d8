// Umbrella header for the avsec::obs observability subsystem: sim-time
// tracing (trace.hpp), deterministic metrics (metrics.hpp) and Perfetto /
// text exporters (export.hpp). See DESIGN.md §12 for the observability
// model.
#pragma once

#include "avsec/obs/export.hpp"
#include "avsec/obs/metrics.hpp"
#include "avsec/obs/trace.hpp"
