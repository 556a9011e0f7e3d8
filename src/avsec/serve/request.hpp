// Request/reply wire types of the avsec-serve scenario service.
//
// A Request names a registered scenario, the seeds to sweep it over, and a
// wall-clock deadline; a Reply is the structured answer — never a silent
// drop. Every admission failure mode has its own status (unknown scenario,
// infeasible deadline, overload, load-shed), and every per-seed execution
// failure is carried as a fault::RunStatus, so a client can always tell
// "the service refused" from "the run failed" from "the run succeeded".
//
// Determinism contract: render_reply() emits only fields that are a pure
// function of the request stream and the admission decision — scenario
// results are pure functions of (seed, scale), aggregates fold in seed
// order through core::Accumulator, and maps are std::map so iteration
// order is fixed. Wall-clock telemetry (latency_ms, worker) lives on the
// Reply struct but is deliberately excluded from render_reply(): the CI
// determinism gate diffs rendered replies across worker counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "avsec/core/stats.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/serve/registry.hpp"

namespace avsec::serve {

/// One client request: sweep `scenario` over `seeds` within `deadline_ms`.
struct Request {
  std::string scenario;
  std::vector<std::uint64_t> seeds;
  /// Wall-clock budget in milliseconds from admission to reply; 0 = none.
  /// Admission rejects deadlines below the scenario's static cost floor
  /// (deterministic) and deadlines the current load cannot meet
  /// (load-dependent); workers expire requests whose deadline passed while
  /// queued instead of wasting the work.
  std::int64_t deadline_ms = 0;
  /// Per-attempt sim-event budget override; 0 = the scenario's default.
  /// It counts real scheduler dispatches. The PLCA bus dispatches two per
  /// delivered frame and none for idle TOs, so a t1s run spends about
  /// 1/128 of what stepping through every TO would.
  std::uint64_t max_events = 0;
  /// Attach the first seed's sim-time trace dump to the reply (the dump is
  /// a pure function of the seed, so it is part of the rendered reply).
  bool trace = false;
};

/// Reply-level classification. The first two mean every seed executed;
/// the rest are structured refusals or partial failures.
enum class ReplyStatus : std::uint8_t {
  kOk,           // all seeds ran at full scale
  kDegraded,     // all seeds ran, but at smoke scale (load ladder)
  kQuarantined,  // >= 1 seed failed every allowed attempt
  kRejected,     // malformed request: unknown scenario or no seeds
  kInfeasible,   // deadline below the scenario's static cost floor
  kOverloaded,   // admission refused: queue full / load shed / no capacity
  kExpired,      // deadline passed while queued; runs not attempted
};

const char* reply_status_name(ReplyStatus s);

/// One seed's terminal outcome inside a reply.
struct SeedOutcome {
  std::uint64_t seed = 0;
  fault::RunStatus status = fault::RunStatus::kPassed;
  std::uint32_t attempts = 1;
  std::string error;  // what() of the final failing attempt
  fault::Metrics metrics;
};

struct Reply {
  /// Stream index assigned at submission (0-based, monotonically
  /// increasing per server); replies redeem in ticket order.
  std::uint64_t ticket = 0;
  ReplyStatus status = ReplyStatus::kRejected;
  std::string scenario;
  Scale scale = Scale::kFull;
  /// Deterministic human-readable reason for refusals; empty on success.
  std::string detail;
  /// Per-seed outcomes in request order (empty unless runs were attempted).
  std::vector<SeedOutcome> seeds;
  /// Streaming stats per metric, folded in seed order (core::Accumulator,
  /// so byte-identical at any worker count).
  std::map<std::string, core::Accumulator> aggregate;
  /// Sim-time trace dump of the first seed when Request::trace was set.
  std::string trace;

  // --- wall-clock telemetry: excluded from render_reply() ---------------
  double latency_ms = 0.0;    // admission to reply
  std::uint32_t worker = 0;   // slot that executed the job
};

/// Canonical one-line JSON rendering of a reply — the byte-identity
/// surface of the determinism contract. Doubles print with %.17g (exact
/// round trip), maps iterate in key order, telemetry fields are omitted.
std::string render_reply(const Reply& r);

/// Parses the daemon's newline-JSON request form:
///   {"scenario":"ivn-can","seeds":[1,2],"deadline_ms":50,
///    "max_events":0,"trace":false}
/// Unknown keys with a scalar or flat-array value are ignored; a malformed
/// line sets `error`, which names the byte at fault, and returns false.
/// Tolerates arbitrary whitespace between tokens.
bool parse_request(std::string_view line, Request& out, std::string& error);

}  // namespace avsec::serve
