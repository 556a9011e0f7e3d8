// FAULT — cost of campaign resilience on a healthy sweep, where the
// machinery must be close to free:
//   - supervision overhead: the same serial sweep with the run on the
//     context's scheduler, where the sweep's guard checks every dispatch
//     against an armed event budget, vs the run on a scheduler of its own
//     that no guard watches.  Every sweep is supervised, so the second arm
//     is the floor the guard adds to; the overhead is the median
//     difference of interleaved pairs.  Gate (CI): < 3% wall-clock
//     overhead, or < 5 ns per dispatched event (noise floor on shared
//     runners);
//   - journaling cost: the guarded sweep also appending one
//     CRC-sealed manifest line per run (reported, not gated);
//   - resume cost: Campaign::resume() against manifests truncated to
//     0/25/50/75/100% of the run lines — cost must fall as the
//     completed fraction rises, and every resumed report must be
//     byte-identical to the uninterrupted reference (gated).
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/resilience.hpp"
#include "harness.hpp"

namespace {

using namespace avsec;

std::uint64_t g_events_per_run = 2000;

// A healthy seed-deterministic scenario: every run dispatches exactly
// g_events_per_run scheduler events, so supervision cost is measurable
// per event dispatched.
fault::Metrics ticks(core::Scheduler& sim, std::uint64_t seed) {
  core::Rng rng(seed);
  double level = 0.0;
  std::uint64_t events = 0;
  std::function<void()> tick = [&] {
    level += rng.normal(0.0, 1.0);
    if (++events < g_events_per_run) {
      sim.schedule_in(core::microseconds(10), tick);
    }
  };
  sim.schedule_at(0, tick);
  sim.run();
  fault::Metrics m;
  m["final_level"] = level;
  m["events"] = static_cast<double>(events);
  return m;
}

// On the context's scheduler, which the sweep's guard watches.
fault::Metrics scenario(fault::SimContext& ctx, std::uint64_t seed) {
  return ticks(ctx.sim(), seed);
}

// The same ticks on a warm scheduler no guard is attached to, reset per
// run as the context's is. One for the process is safe: the sweeps here
// are serial.
fault::Metrics scenario_unguarded(fault::SimContext& /*ctx*/,
                                  std::uint64_t seed) {
  static core::Scheduler floor;
  floor.reset();
  return ticks(floor, seed);
}

fault::CampaignConfig base_config(std::size_t runs) {
  fault::CampaignConfig cfg;
  cfg.runs = runs;
  cfg.base_seed = 20260809;
  cfg.workers = 1;  // serial isolates supervision cost from thread noise
  return cfg;
}

fault::Campaign make_campaign(fault::CampaignConfig cfg) {
  fault::Campaign c(cfg);
  c.require("level finite", [](const fault::Metrics& m) {
    const double v = m.at("final_level");
    return v == v && v < 1e12 && v > -1e12;
  });
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
}

// Keeps the header plus the first `keep` run lines of a full manifest.
std::string truncate_to_runs(const std::string& manifest, std::size_t keep) {
  std::string out;
  std::size_t line = 0;
  std::size_t start = 0;
  while (start < manifest.size() && line <= keep) {
    const std::size_t nl = manifest.find('\n', start);
    if (nl == std::string::npos) break;
    out.append(manifest, start, nl - start + 1);
    start = nl + 1;
    ++line;  // line 0 is the header, lines 1..keep are run records
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("campaign_resilience", argc, argv);
  std::printf("campaign resilience: supervision / journal / resume cost\n");
  std::printf("=======================================================\n\n");

  const std::size_t runs = h.iters(64, 8);
  g_events_per_run = h.iters(2000, 200);
  const std::size_t reps = h.iters(5, 2);
  const double total_events =
      static_cast<double>(runs) * static_cast<double>(g_events_per_run);
  const std::string manifest_path = "BENCH_campaign_resilience.manifest.jsonl";

  // Best-of-N wall clock (min damps scheduler noise on shared runners).
  auto best_of = [&](const char* label, auto&& fn) {
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const double t0 = bench::now_ns();
      fn();
      const double ns = bench::now_ns() - t0;
      if (r == 0 || ns < best) best = ns;
    }
    bench::Result res;
    res.name = label;
    res.ns = best;
    res.iters = total_events;
    h.add(res);
    return best;
  };

  fault::CampaignConfig supervised = base_config(runs);
  supervised.supervision.max_events = g_events_per_run * 4;
  supervised.supervision.retry.max_retries = 1;

  // The gated arms run in adjacent pairs after one untimed warm-up sweep,
  // each arm first in every other pair, and the guard's cost is the median
  // paired difference. Timed back to back instead, whichever arm ran first
  // paid for the warm-up and measured 15-30% slower, hiding any real guard
  // cost; and on a shared host the two arms' minima, taken apart in time,
  // differ by more than the bound.
  make_campaign(supervised).sweep(scenario);
  const auto timed_sweep = [&](const fault::Campaign::CtxRunFn& run) {
    const double t0 = bench::now_ns();
    make_campaign(supervised).sweep(run);
    return bench::now_ns() - t0;
  };
  const std::size_t pairs = h.iters(31, 101);
  double ns_plain = 0.0;
  double ns_sup = 0.0;
  std::vector<double> paired;
  for (std::size_t r = 0; r < pairs; ++r) {
    double plain = 0.0;
    double sup = 0.0;
    if (r % 2 == 0) {
      plain = timed_sweep(scenario_unguarded);
      sup = timed_sweep(scenario);
    } else {
      sup = timed_sweep(scenario);
      plain = timed_sweep(scenario_unguarded);
    }
    if (r == 0 || plain < ns_plain) ns_plain = plain;
    if (r == 0 || sup < ns_sup) ns_sup = sup;
    paired.push_back(sup - plain);
  }
  std::sort(paired.begin(), paired.end());
  const double overhead_ns = std::max(paired[paired.size() / 2], 0.0);
  for (const auto& [label, ns] : {std::pair{"sweep_unguarded", ns_plain},
                                  std::pair{"sweep_guarded", ns_sup}}) {
    bench::Result res;
    res.name = label;
    res.ns = ns;
    res.iters = total_events;
    h.add(res);
  }

  fault::CampaignConfig journaled = supervised;
  journaled.manifest_path = manifest_path;
  const double ns_journal = best_of("sweep_guarded_journaled", [&] {
    make_campaign(journaled).sweep(scenario);
  });

  const double overhead_pct =
      ns_plain > 0.0 ? 100.0 * overhead_ns / ns_plain : 0.0;
  const double per_event_ns = overhead_ns / total_events;

  bench::Result sup;
  sup.name = "supervision_overhead";
  sup.ns = overhead_ns;
  sup.iters = total_events;
  sup.extra["overhead_pct"] = overhead_pct;
  sup.extra["per_event_ns"] = per_event_ns;
  sup.extra["journal_vs_plain_ratio"] =
      ns_plain > 0.0 ? ns_journal / ns_plain : 0.0;
  h.add(sup);

  std::printf("serial sweep, %zu runs x %llu events:\n", runs,
              static_cast<unsigned long long>(g_events_per_run));
  std::printf("  guard unattached       %12.0f ns\n", ns_plain);
  std::printf("  guard attached         %12.0f ns (%+.3f%%, %.3f ns/event)\n",
              ns_sup, overhead_pct, per_event_ns);
  std::printf("  guarded + journal      %12.0f ns (%.2fx)\n\n", ns_journal,
              ns_plain > 0.0 ? ns_journal / ns_plain : 0.0);

  // Resume cost vs completed fraction.  The journaled sweep above left a
  // complete manifest behind; truncate it to K run lines and resume.
  const fault::CampaignReport reference =
      make_campaign(journaled).sweep(scenario);
  const std::string full_manifest = read_file(manifest_path);
  bool all_identical = true;
  std::printf("resume cost vs completed fraction (%zu runs):\n", runs);
  for (int pct : {0, 25, 50, 75, 100}) {
    const std::size_t keep = runs * static_cast<std::size_t>(pct) / 100;
    double best = 0.0;
    fault::ResumeStats st;
    for (std::size_t r = 0; r < reps; ++r) {
      write_file(manifest_path, truncate_to_runs(full_manifest, keep));
      const double t0 = bench::now_ns();
      const fault::CampaignReport resumed =
          make_campaign(journaled).resume(scenario, manifest_path, &st);
      const double ns = bench::now_ns() - t0;
      if (r == 0 || ns < best) best = ns;
      all_identical = all_identical && fault::identical(reference, resumed);
    }
    bench::Result res;
    res.name = "resume_from_" + std::to_string(pct) + "pct";
    res.ns = best;
    res.iters = static_cast<double>(runs);
    res.extra["completed_pct"] = static_cast<double>(pct);
    res.extra["runs_loaded"] = static_cast<double>(st.loaded);
    res.extra["runs_reran"] = static_cast<double>(st.reran);
    h.add(res);
    std::printf("  %3d%% complete  %12.0f ns  (%zu loaded, %zu re-run)\n",
                pct, best, st.loaded, st.reran);
  }
  std::remove(manifest_path.c_str());

  const bool overhead_ok = overhead_pct < 3.0 || per_event_ns < 5.0;
  const bool pass = overhead_ok && all_identical;
  std::printf("\nCAMPAIGN_RESILIENCE_GATE: %s "
              "(supervision < 3%% or < 5 ns/event: %s; "
              "all resumes byte-identical: %s)\n",
              pass ? "PASS" : "FAIL", overhead_ok ? "ok" : "FAIL",
              all_identical ? "ok" : "FAIL");
  return pass ? 0 : 1;
}
