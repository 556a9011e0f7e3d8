// Fixture: the only caller of r9_api.hpp's public API.
#include "r9_api.hpp"

namespace avsec::app {

int run(const sim::Meter& m) { return sim::used_elsewhere(m.read()) + m.scale(3, 1); }

}  // namespace avsec::app
