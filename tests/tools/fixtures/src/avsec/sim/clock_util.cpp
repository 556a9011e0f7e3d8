// Driver fixture: the wall-clock read lives here (R1 waived), its callers
// in step.cpp and tick.cpp. Scanned with the fixture directory as root,
// the labels fall under src/, so only pass 2 over the merged index can
// connect the files and report R5 at each cross-file call.
#include <chrono>

// AVSEC-LINT-ALLOW(R1): fixture clock source
long raw_ns() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
