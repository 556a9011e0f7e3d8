// Fixture: an R9 waiver without a reason. Expect R0 at line 7 and, as the
// waiver does not parse, R9 at line 8.
#pragma once

namespace avsec::sim {

// AVSEC-LINT-ALLOW(R9)
int orphan();

}  // namespace avsec::sim
