// The avsec benchmark's workloads: seeded inputs, the measured loops, the
// correctness checks, and the metric set each run prints.
//
// Every input is generated from the seed the benchmark is given, through
// scenario::generate_for_cell over the validity universe; the simulator
// receives only the generated specs (round-tripped through the .avsc
// parser) and request streams.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "avsec/scenario/spec.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's scratch files (campaign manifest, spans).
  std::string out_dir = ".";
};

struct MetricDecl {
  std::string name;
  std::string unit;
};

/// Metrics every run prints: the end-to-end set untraced, the per-layer
/// set traced. This list and BENCHMARK.json must name the same metrics.
const std::vector<MetricDecl>& declared_metrics(bool trace);

const std::vector<std::string>& workload_names();

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> problems;  // every reason `correct` is false
  std::vector<std::string> notes;     // digests and counts, one per line

  void problem(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

/// Runs one workload for opts.seconds of measurement and checks it.
Outcome run_workload(const Options& opts);

/// The result line: {"correct", "attempted", "failed", "metrics"}, with the
/// metrics in declaration order. A declared metric the run did not measure
/// (or an undeclared one) makes the outcome incorrect.
std::string render_result(Outcome& out, bool trace);

// --- seeded inputs (exposed for the self-test) ----------------------------

/// The workload's specs: `specs_per_cell` per selected universe cell, in
/// universe order, shaped by a fixed generator seed, each with a base seed
/// (hence every run's random stream) drawn from `seed`.
std::vector<avsec::scenario::ScenarioSpec> workload_specs(
    const std::string& workload, std::uint64_t seed);

/// "<topology>-<protocol>", e.g. "link-tls".
std::string family_of(const avsec::scenario::ScenarioSpec& spec);

struct ScheduledRequest {
  std::int64_t due_ns = 0;  // offset from the phase start
  std::size_t scenario = 0; // index into the workload's specs
};

/// The open-loop send schedule for serve-open: evenly spaced at `rate`
/// requests per second over `seconds`, scenario names drawn from a
/// seeded mix that is mostly cheap cells with a few link/tls cells.
std::vector<ScheduledRequest> request_schedule(
    const std::vector<avsec::scenario::ScenarioSpec>& specs,
    std::uint64_t seed, double rate, double seconds);

/// One cycle of the closed-loop capacity phase: the open loops'
/// cheap/heavy ratio as a fixed pattern (every 20th request heavy), every
/// heavy spec once and the cheap specs in turn, each class in an order
/// drawn from `seed`.
std::vector<std::size_t> capacity_order(
    const std::vector<avsec::scenario::ScenarioSpec>& specs,
    std::uint64_t seed);

}  // namespace perfbench
