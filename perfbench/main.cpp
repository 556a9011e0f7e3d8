// avsec_perfbench: runs one benchmark workload and prints its result line.
//
//   avsec_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// Notes (digests, counts) go to stdout before the result; problems go to
// stderr. The last stdout line is the JSON result. Exit status: 0 when
// every check passed, 1 when any failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "avsec_perfbench: %s\nusage: avsec_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) {
        return usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Outcome out = perfbench::run_workload(o);
  const std::string line = perfbench::render_result(out, o.trace);
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "avsec_perfbench: FAIL: %s\n", p.c_str());
  }
  for (const std::string& n : out.notes) std::cout << n << '\n';
  std::cout << line << std::endl;
  return out.correct ? 0 : 1;
}
