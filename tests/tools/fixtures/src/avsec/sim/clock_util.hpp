// Driver fixture: the header of clock_util.cpp. step.cpp calls raw_ns();
// nothing calls ms_since(), so the fixture scan reports R9 at line 9, with
// an excerpt the driver resolves like any other pass-2 finding.
#pragma once

long raw_ns();

// The wall time since `start_ns`, in milliseconds.
long ms_since(long start_ns);
