// Crypto and secproto probes: host time of each public primitive and one
// protect + verify round trip per protocol, at the application payload
// sizes the workload's own specs send.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct ProbeResults {
  /// (metric name, microseconds per operation), in a fixed order.
  std::vector<std::pair<std::string, double>> us_per_op;
  /// False when any verify / open / handshake in the probes failed.
  bool ok = true;
};

/// Times crypto.* and secproto.* over `payloads` (one entry per spec).
/// Each probe repeats batches until it has at least 7 and 20 ms of them,
/// and reports the median batch's time per operation.
ProbeResults run_probes(const std::vector<std::size_t>& payloads);

}  // namespace perfbench
