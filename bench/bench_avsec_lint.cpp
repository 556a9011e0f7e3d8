// bench_avsec_lint: throughput of the whole-program lint scan — the same
// scan the avsec_lint_tree ctest and the CI lint job run.
//
// Two arms over the committed tree (src/tests/bench/examples/tools):
//   serial_cold    --jobs 1: every file lexed on the calling thread
//   parallel_cold  --jobs N: pass 1 fans out per file on the core
//                  ThreadPool; pass 2 stays single-threaded
// Both arms must render the byte-identical report — the bench doubles as
// a determinism check and exits nonzero on any divergence. Speedups are
// recorded against serial_cold; on a single-core host 1.0x is expected
// (the JSON header records hardware_concurrency for exactly that reason).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "avsec-lint/driver.hpp"
#include "harness.hpp"

namespace {

using avsec::lint::ScanOptions;
using avsec::lint::ScanResult;

struct Arm {
  std::string report;
  double ns = 0.0;
  std::size_t files = 0;
};

Arm run_arm(avsec::bench::Harness& h, const std::string& label,
            const ScanOptions& opts, double serial_ns) {
  ScanResult res;
  Arm arm;
  arm.ns = h.section(label, [&] { res = avsec::lint::scan_tree(opts); });
  if (res.io_error) {
    std::fprintf(stderr, "bench_avsec_lint: cannot read %s\n",
                 res.io_error_path.c_str());
    std::exit(2);
  }
  avsec::bench::Result per_file;
  per_file.name = label + "_files";
  per_file.ns = arm.ns;
  per_file.iters = static_cast<double>(res.files_scanned);
  if (serial_ns > 0.0 && arm.ns > 0.0) {
    per_file.extra["speedup_vs_serial"] = serial_ns / arm.ns;
  }
  h.add(std::move(per_file));
  arm.report = avsec::lint::render_report(res);
  arm.files = res.files_scanned;
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  avsec::bench::Harness h("avsec_lint", argc, argv);

  ScanOptions base;
  base.root = AVSEC_LINT_TREE_ROOT;
  // Smoke keeps the arm structure but scans only the core library.
  base.inputs = h.smoke()
                    ? std::vector<std::string>{"src/avsec/core"}
                    : std::vector<std::string>{"src", "tests", "bench",
                                               "examples", "tools"};

  const std::size_t jobs =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());

  ScanOptions serial = base;
  serial.jobs = 1;
  const Arm cold = run_arm(h, "serial_cold", serial, 0.0);

  ScanOptions parallel = base;
  parallel.jobs = jobs;
  const Arm par = run_arm(h, "parallel_cold", parallel, cold.ns);

  if (par.report != cold.report) {
    std::fprintf(stderr,
                 "bench_avsec_lint: report divergence across arms — the "
                 "determinism contract is broken\n");
    return 1;
  }
  std::printf("bench_avsec_lint: %zu files, jobs=%zu, reports identical "
              "across serial/parallel\n",
              cold.files, jobs);
  return 0;
}
