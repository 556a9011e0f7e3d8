// The benchmark's own tests: seeded inputs are reproducible, percentiles
// refuse unsupported tails, failure ratios use attempts as the base, and
// every metric name is well formed. Exit status 0 when all pass.
// test_perfbench.py builds and runs it.
//
//   avsec_perfbench_selftest [--print-metrics]
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "avsec/scenario/generate.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<std::string> texts(const std::string& workload, std::uint64_t seed) {
  std::vector<std::string> out;
  for (const auto& s : perfbench::workload_specs(workload, seed)) {
    out.push_back(avsec::scenario::canonical_text(s));
  }
  return out;
}

void same_seed_same_inputs() {
  for (const std::string& w : perfbench::workload_names()) {
    const auto a = texts(w, 7);
    check(!a.empty(), w + ": generates specs");
    check(a == texts(w, 7), w + ": same seed gives byte-identical specs");
    check(a != texts(w, 8), w + ": another seed gives other specs");
  }
  const auto specs = perfbench::workload_specs("serve-open", 7);
  const auto s1 = perfbench::request_schedule(specs, 7, 100.0, 5.0);
  const auto s2 = perfbench::request_schedule(specs, 7, 100.0, 5.0);
  bool same = s1.size() == s2.size();
  for (std::size_t i = 0; same && i < s1.size(); ++i) {
    same = s1[i].due_ns == s2[i].due_ns && s1[i].scenario == s2[i].scenario;
  }
  check(same && s1.size() == 500, "same seed gives the same request schedule");
  const auto s3 = perfbench::request_schedule(specs, 8, 100.0, 5.0);
  bool differs = false;
  for (std::size_t i = 0; i < s1.size() && i < s3.size(); ++i) {
    differs |= s1[i].scenario != s3[i].scenario;
  }
  check(differs, "another seed gives another request mix");
  check(s1.size() > 1 && s1[1].due_ns - s1[0].due_ns == 10'000'000,
        "requests are evenly spaced at the offered rate");
}

void workloads_draw_their_cells() {
  for (const auto& s : perfbench::workload_specs("secure-sessions", 3)) {
    const std::string f = perfbench::family_of(s);
    check(f == "can-secoc" || f == "can-cansec" || f == "link-tls",
          "secure-sessions draws only protected can/link cells, got " + f);
  }
  for (const auto& s : perfbench::workload_specs("plca-bus", 3)) {
    check(perfbench::family_of(s) == "t1s-none",
          "plca-bus draws only t1s/none cells");
  }
  check(perfbench::workload_specs("universe-sweep", 3).size() ==
            avsec::scenario::cell_universe().size(),
        "universe-sweep has one spec per universe cell");
  const auto specs = perfbench::workload_specs("serve-open", 3);
  std::size_t heavy = 0;
  const auto sched = perfbench::request_schedule(specs, 3, 1000.0, 10.0);
  for (const auto& r : sched) {
    heavy += perfbench::family_of(specs[r.scenario]) == "link-tls" ? 1 : 0;
  }
  check(heavy > 0 && heavy < sched.size() / 10,
        "serve-open mix is mostly cheap cells with a few link/tls");
  const auto order = perfbench::capacity_order(specs, 3);
  bool every_20th = !order.empty();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const bool is_heavy = perfbench::family_of(specs[order[i]]) == "link-tls";
    every_20th &= is_heavy == (i % 20 == 19);
  }
  check(every_20th, "capacity cycle: every 20th request is heavy, the rest cheap");
  std::set<std::size_t> heavy_specs, cycle_heavy;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (perfbench::family_of(specs[i]) == "link-tls") heavy_specs.insert(i);
  }
  for (std::size_t i = 19; i < order.size(); i += 20) cycle_heavy.insert(order[i]);
  check(cycle_heavy == heavy_specs && order.size() == 20 * heavy_specs.size(),
        "capacity cycle sends every heavy spec exactly once");
  check(order == perfbench::capacity_order(specs, 3),
        "same seed gives the same capacity cycle");
}

void percentiles_need_ten_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  check(!perfbench::percentile(v, 0.99), "p99 of 999 samples is refused");
  v.push_back(1000);
  const auto p99 = perfbench::percentile(v, 0.99);
  check(p99 && *p99 == 990.0, "p99 of 1..1000 is 990");
  std::vector<double> small(19, 1.0);
  check(!perfbench::percentile(small, 0.5), "median of 19 samples is refused");
  small.push_back(1.0);
  check(perfbench::percentile(small, 0.5).has_value(),
        "median of 20 samples is reported");
  check(perfbench::median_of({3.0, 1.0, 2.0}) == 2.0, "median_of odd");
  check(perfbench::median_of({4.0, 1.0, 2.0, 3.0}) == 2.5, "median_of even");
}

void failed_fraction_uses_attempts() {
  check(perfbench::failed_fraction(1, 4) == 0.25, "1 failed of 4 attempted");
  check(perfbench::failed_fraction(0, 0) == 0.0, "nothing attempted");
}

void metric_names_well_formed() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]*");
  std::set<std::string> seen;
  for (bool trace : {false, true}) {
    for (const auto& m : perfbench::declared_metrics(trace)) {
      check(std::regex_match(m.name, name_re) && m.name.size() <= 64,
            "metric name " + m.name + " is well formed");
      check(seen.insert(m.name).second, "metric name " + m.name + " is unique");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // `--print-metrics` lists the workloads ("workload name") and declared
  // metrics ("end_to_end|per_layer name unit") so test_perfbench.py can
  // hold BENCHMARK.json to them.
  if (argc > 1 && std::string(argv[1]) == "--print-metrics") {
    for (const std::string& w : perfbench::workload_names()) {
      std::printf("workload %s\n", w.c_str());
    }
    for (bool trace : {false, true}) {
      for (const auto& m : perfbench::declared_metrics(trace)) {
        std::printf("%s %s %s\n", trace ? "per_layer" : "end_to_end",
                    m.name.c_str(), m.unit.c_str());
      }
    }
    return 0;
  }
  same_seed_same_inputs();
  workloads_draw_their_cells();
  percentiles_need_ten_beyond();
  failed_fraction_uses_attempts();
  metric_names_well_formed();
  if (failures == 0) std::printf("avsec_perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
