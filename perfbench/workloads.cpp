#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "avsec/core/channel.hpp"
#include "avsec/core/rng.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/manifest.hpp"
#include "avsec/scenario/compile.hpp"
#include "avsec/scenario/generate.hpp"
#include "avsec/scenario/parser.hpp"
#include "avsec/serve/server.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace core = avsec::core;
namespace fault = avsec::fault;
namespace scenario = avsec::scenario;
namespace serve = avsec::serve;
using scenario::Protocol;
using scenario::Topology;

// --- workload definitions -------------------------------------------------

enum class Kind { kCampaign, kServe };

struct WorkloadDef {
  const char* name;
  Kind kind;
  /// (topology, protocol) families whose cells the workload draws from;
  /// empty = the whole validity universe.
  std::vector<std::pair<Topology, Protocol>> families;
  std::size_t specs_per_cell;
  /// Campaign sweep workers; 0 = min(2, hardware threads).
  std::size_t workers;
  bool manifest;  // check the journal in one more pass after the window
};

// Why these four: secure-sessions is nearly all crypto and secproto with
// under 1k dispatches per run; plca-bus is nearly all scheduler and T1S
// PLCA dispatch with no crypto; universe-sweep is the campaign engine
// run in parallel, where per-sweep pool spawn and fold show next to
// sub-millisecond runs; serve-open is the
// only workload that runs the serve layer. Each layer an optimisation
// targets is heavy in one workload and nearly absent from another.
const std::vector<WorkloadDef>& defs() {
  static const std::vector<WorkloadDef> d = {
      {"secure-sessions",
       Kind::kCampaign,
       {{Topology::kCan, Protocol::kSecOc},
        {Topology::kCan, Protocol::kCansec},
        {Topology::kLink, Protocol::kTls}},
       3,
       1,
       false},
      {"plca-bus", Kind::kCampaign, {{Topology::kT1s, Protocol::kNone}}, 6, 1,
       false},
      {"universe-sweep", Kind::kCampaign, {}, 1, 0, true},
      {"serve-open", Kind::kServe, {}, 3, 0, false},
  };
  return d;
}

const WorkloadDef* find_def(const std::string& name) {
  for (const WorkloadDef& d : defs()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

/// Generator seed of every workload's spec set. `--seed` draws each spec's
/// base seed, so a seed changes every run's random stream (attack timing,
/// fault draws, traffic bytes) but not the spec's shape. Horizon, node
/// count and period, drawn per spec, change a run's cost several-fold; with
/// a seeded shape, the work of a pass or a capacity cycle moved by up to a
/// fifth from seed to seed, more than the host's noise.
constexpr std::uint64_t kSpecPoolSeed = 0x5eed;

/// Setup is repeated this many times per run and its median reported.
constexpr int kSetupReps = 5;

/// Runs per campaign sweep, in place of each spec's own 2-4: a seed then
/// changes what every run simulates but not how many runs each cell adds
/// to a pass, so per-pass throughput and the run-time median compare
/// across seeds instead of following the family mix.
constexpr std::size_t kRunsPerSpec = 3;

// serve-open. The offered rates are fixed constants, never recalibrated,
// so every commit is offered the same load: 0.5x and 2x the seed build's
// capacity on the 95/5 mix, measured as this workload's closed-loop
// runs_per_s: about 1250 req/s with 2 server workers on a 4-thread
// 2.0 GHz Xeon VM, Release build (medians of 1253 over seeds 21-25, then
// 1166 and 1382 in two sets of ten seeds; 1377 over seeds 601-610 with the
// segment-timed capacity phase; see README.md).
constexpr std::size_t kServeWorkers = 2;
constexpr double kServeLoRps = 625.0;
constexpr double kServeHiRps = 2500.0;
/// Latency limit (and request deadline): refused, expired or slower
/// replies miss it.
constexpr std::int64_t kLatencyLimitMs = 50;
/// Share of requests drawn from link/tls cells; the rest are cheap cells.
constexpr double kHeavyShare = 0.05;

/// serve-open's request mix. Cheap requests come from the two families of
/// similar cost (can/secoc and link/none, ~0.3 ms a run), so the median
/// latency sits inside one mode; heavy ones (link/tls, ~12 ms) set the
/// tail. The other families are registered and served but never asked for.
enum class MixClass { kNone, kCheap, kHeavy };

MixClass mix_class(const std::string& family) {
  if (family == "link-tls") return MixClass::kHeavy;
  if (family == "can-secoc" || family == "link-none") return MixClass::kCheap;
  return MixClass::kNone;
}

/// Shares of the measured window: lo open loop, then the closed-loop
/// capacity phase, then the hi open loop (the rest). The capacity phase
/// gives the end-to-end figure, so it gets the most cycles to find a
/// quiet moment of a shared host in.
constexpr double kLoShare = 0.12;
constexpr double kCapacityShare = 0.8;
/// Requests kept outstanding in the capacity phase: enough queued work
/// that both workers stay busy, few enough (under half the 32-job queue)
/// that the load ladder stays NOMINAL, so every reply runs at full scale.
/// Admission still refuses the odd request it predicts would miss the
/// deadline; those are not counted as served.
constexpr std::size_t kClosedLoopInFlight = 10;
/// Replies per timed segment of the capacity cycle (four of them heavy).
/// Every cycle sends the same order, so segment k does the same work in
/// every cycle and its times compare across cycles.
constexpr std::size_t kCapacitySegment = 80;

constexpr std::array<const char*, 8> kFamilies = {
    "can-none",  "can-secoc", "can-cansec", "link-none",
    "link-tls",  "t1s-none",  "t1s-macsec", "heartbeat-none"};

std::size_t family_index(const std::string& family) {
  for (std::size_t i = 0; i < kFamilies.size(); ++i) {
    if (family == kFamilies[i]) return i;
  }
  return kFamilies.size() - 1;
}

/// At most 2: a parallel sweep waits on its slowest worker, and on a
/// shared host the more cores it needs at once, the likelier one is held.
std::size_t sweep_workers(const WorkloadDef& w) {
  if (w.workers != 0) return w.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(2, hw == 0 ? 1 : hw);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

// --- inputs -----------------------------------------------------------------

struct Inputs {
  std::vector<scenario::CompiledScenario> compiled;
  std::vector<std::size_t> family;  // kFamilies index per spec
  double generate_ms = 0.0;
  double roundtrip_ms = 0.0;
  double compile_ms = 0.0;
};

/// Generates the workload's specs, round-trips each through its canonical
/// text and the parser (asserting equality), and compiles the parsed spec.
bool build_inputs(const Options& o, SpanRecorder& rec, Inputs& in,
                  Outcome& out) {
  std::vector<scenario::ScenarioSpec> specs;
  {
    ScopedSpan span(rec, "scenario.generate", 0, 0);
    const std::int64_t t0 = now_ns();
    specs = workload_specs(o.workload, o.seed);
    in.generate_ms = ms_since(t0);
  }
  std::vector<scenario::ScenarioSpec> parsed;
  {
    ScopedSpan span(rec, "scenario.roundtrip", 0, 0);
    const std::int64_t t0 = now_ns();
    for (const scenario::ScenarioSpec& spec : specs) {
      const std::string text = scenario::canonical_text(spec);
      scenario::ParseResult pr =
          scenario::parse_scenario_text(text, spec.name + ".avsc");
      if (!pr.ok || pr.spec != spec ||
          scenario::canonical_text(pr.spec) != text) {
        out.problem("round trip changed spec " + spec.name);
        return false;
      }
      parsed.push_back(std::move(pr.spec));
    }
    in.roundtrip_ms = ms_since(t0);
  }
  {
    ScopedSpan span(rec, "scenario.compile", 0, 0);
    const std::int64_t t0 = now_ns();
    for (const scenario::ScenarioSpec& spec : parsed) {
      scenario::CompileResult cr = scenario::compile(spec);
      if (!cr.ok) {
        out.problem("compile failed: " + cr.error.to_string());
        return false;
      }
      in.compiled.push_back(std::move(cr.compiled));
      in.family.push_back(family_index(family_of(spec)));
    }
    in.compile_ms = ms_since(t0);
  }
  return true;
}

// --- per-run records (fed by the benchmark's run wrappers) ----------------

struct RunRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t events = 0;  // Scheduler::dispatched() of the run
  std::size_t family = 0;
  std::size_t spec = 0;
  std::uint64_t seed = 0;
};

class RunSink {
 public:
  void add(const RunRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(r);
  }
  std::vector<RunRecord> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(runs_, {});
  }

 private:
  std::mutex mu_;
  std::vector<RunRecord> runs_;  // guarded by mu_
};

/// Run time and dispatches, in total and per family.
struct RunTotals {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  double run_ns = 0.0;
  std::array<double, kFamilies.size()> family_ns{};
  std::array<std::uint64_t, kFamilies.size()> family_events{};

  void add(const RunRecord& r) {
    const double ns = static_cast<double>(r.end_ns - r.start_ns);
    ++runs;
    events += r.events;
    run_ns += ns;
    family_ns[r.family] += ns;
    family_events[r.family] += r.events;
  }
};

/// Per-layer core.* and scenario.run.* metrics from one traced window's run
/// time and one pass's exact dispatch counts.
void put_run_layers(const RunTotals& window, const RunTotals& pass,
                    Outcome& out) {
  out.values["core.sched.events"] = static_cast<double>(pass.events);
  out.values["core.sched.events_per_run"] =
      pass.runs == 0 ? 0.0
                     : static_cast<double>(pass.events) /
                           static_cast<double>(pass.runs);
  out.values["core.sched.ns_per_event"] =
      window.events == 0 ? 0.0
                         : window.run_ns / static_cast<double>(window.events);
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    const std::string prefix = std::string("scenario.run.") + kFamilies[f];
    out.values[prefix + ".share"] =
        window.run_ns > 0.0 ? window.family_ns[f] / window.run_ns : 0.0;
    out.values[prefix + ".events"] =
        static_cast<double>(pass.family_events[f]);
  }
}

void put_setup_layers(const std::vector<double>& gen_ms,
                      const std::vector<double>& rt_ms,
                      const std::vector<double>& compile_ms, Outcome& out) {
  out.values["scenario.generate_ms"] = median_of(gen_ms);
  out.values["scenario.roundtrip_ms"] = median_of(rt_ms);
  out.values["scenario.compile_ms"] = median_of(compile_ms);
}

/// Sets `name` when the sample supports percentile `q`. Refused requests
/// are +inf samples: they miss every limit, and a percentile that lands on
/// one reads 1e6 ms, since the result line cannot carry infinity.
void put_percentile(const char* name, const std::vector<double>& ms, double q,
                    Outcome& out) {
  if (const auto v = percentile(ms, q)) {
    out.values[name] = std::isfinite(*v) ? *v : 1e6;
  }
}

// --- campaign workloads -----------------------------------------------------

fault::Campaign make_campaign(const scenario::CompiledScenario& c,
                              std::size_t workers,
                              const std::string& manifest) {
  fault::CampaignConfig cfg = c.campaign_config(workers);
  cfg.runs = kRunsPerSpec;
  cfg.manifest_path = manifest;
  fault::Campaign camp(cfg);
  for (const scenario::Oracle& o : c.spec().oracles) {
    camp.require(o.metric + " " + scenario::oracle_op_name(o.op) + " " +
                     scenario::double_literal(o.value),
                 [o](const fault::Metrics& m) {
                   const auto it = m.find(o.metric);
                   return it != m.end() &&
                          scenario::oracle_holds(o.op, it->second, o.value);
                 });
  }
  return camp;
}

struct SweepWindow {
  std::vector<double> pass_rps;  // runs per second of each complete pass
  std::vector<double> best_sweep_ns;  // fastest sweep of each spec
  std::vector<double> run_ms;    // host time of every run in the window
  /// Fastest time of each distinct (spec, seed) run across the window.
  std::map<std::pair<std::size_t, std::uint64_t>, double> best_run_ms;
  RunTotals totals;              // every run in the window
  RunTotals pass;                // the last complete pass
  std::string digest;            // of the last complete pass's reports
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
  std::uint64_t quarantined = 0;
  double sweep_ns = 0.0;
  double sweep_worker_ns = 0.0;  // sweep wall x workers
  double head_ns = 0.0;          // sweep call -> first run start
  double tail_ns = 0.0;          // last run end -> sweep return
  std::vector<fault::CampaignReport> last_reports;

  /// Runs of one pass over the sum of each spec's fastest sweep. On a
  /// shared host the slower sweeps measure the neighbours, not the code,
  /// and slow spells last seconds: every spec gets each pass's chance at
  /// a quiet moment, where a whole pass seldom finds one.
  double best_rps() const {
    double ns = 0.0;
    for (const double b : best_sweep_ns) ns += b;
    return pass.runs == 0 ? 0.0 : static_cast<double>(pass.runs) / (ns / 1e9);
  }
};

/// Sweeps every spec's campaign, pass after pass, until `seconds` pass.
/// A pass cut by the deadline counts toward run latency but not toward
/// per-pass throughput. Every complete pass must render the same digest
/// and dispatch the same number of events.
SweepWindow sweep_window(const Inputs& in,
                         const std::vector<fault::Campaign>& campaigns,
                         std::size_t workers, SpanRecorder& rec,
                         double seconds, Outcome& out) {
  SweepWindow w;
  w.best_sweep_ns.assign(campaigns.size(), std::numeric_limits<double>::infinity());
  RunSink sink;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t first_events = 0;
  std::string first_digest;
  for (std::size_t pass = 0;; ++pass) {
    const std::int64_t pass_t0 = now_ns();
    Digest digest;
    RunTotals pass_totals;
    std::vector<fault::CampaignReport> reports;
    bool complete = true;
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      if (now_ns() >= deadline) {
        complete = false;
        break;
      }
      const scenario::CompiledScenario& compiled = in.compiled[i];
      const std::size_t family = in.family[i];
      fault::CampaignReport report;
      std::int64_t s0 = 0, s1 = 0;
      {
        ScopedSpan sweep_span(rec, "fault.sweep", 0, 0);
        const std::uint64_t sweep_id = sweep_span.id();
        // Runs on the worker's pooled SimContext, as every scenario sweep
        // does; the sweep resets it before each seed, so dispatched() is
        // exactly this run's.
        const fault::Campaign::CtxRunFn run =
            [&compiled, family, i, &sink, &rec, sweep_id](
                fault::SimContext& ctx, std::uint64_t seed) {
              ScopedSpan span(rec, "scenario.run", sweep_id, sweep_id);
              const std::int64_t t0 = now_ns();
              fault::Metrics m = compiled.run(ctx.sim(), seed);
              sink.add({t0, now_ns(), ctx.sim().dispatched(), family, i, seed});
              return m;
            };
        s0 = now_ns();
        report = campaigns[i].sweep(run);
        s1 = now_ns();
      }

      std::int64_t first_start = s1, last_end = s0;
      for (const RunRecord& r : sink.take()) {
        first_start = std::min(first_start, r.start_ns);
        last_end = std::max(last_end, r.end_ns);
        const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
        w.run_ms.push_back(ms);
        const auto [it, fresh] = w.best_run_ms.try_emplace({r.spec, r.seed}, ms);
        if (!fresh) it->second = std::min(it->second, ms);
        w.totals.add(r);
        pass_totals.add(r);
      }
      w.sweep_ns += static_cast<double>(s1 - s0);
      w.best_sweep_ns[i] = std::min(w.best_sweep_ns[i], static_cast<double>(s1 - s0));
      w.sweep_worker_ns +=
          static_cast<double>(s1 - s0) * static_cast<double>(workers);
      w.head_ns += static_cast<double>(std::max<std::int64_t>(first_start - s0, 0));
      w.tail_ns += static_cast<double>(std::max<std::int64_t>(s1 - last_end, 0));
      w.runs += report.runs;
      w.failed += report.failed_runs + report.quarantined_runs;
      w.retried += report.runs_retried;
      w.quarantined += report.quarantined_runs;
      if (report.runs != kRunsPerSpec || !report.all_passed()) {
        out.problem("campaign " + compiled.spec().name + " failed " +
                    std::to_string(report.failed_runs + report.quarantined_runs) +
                    " of " + std::to_string(report.runs) + " runs");
      }
      digest.add(compiled.spec().name);
      for (std::size_t j = 0; j < report.outcomes.size(); ++j) {
        digest.add(fault::manifest_run_line(j, report.outcomes[j]));
      }
      reports.push_back(std::move(report));
    }
    if (!complete) break;
    w.pass_rps.push_back(static_cast<double>(pass_totals.runs) /
                         (static_cast<double>(now_ns() - pass_t0) / 1e9));
    w.pass = pass_totals;
    w.digest = digest.hex();
    w.last_reports = std::move(reports);
    if (pass == 0) {
      first_events = pass_totals.events;
      first_digest = w.digest;
    } else if (pass_totals.events != first_events || w.digest != first_digest) {
      out.problem("pass " + std::to_string(pass) +
                  " differs from pass 0 (events or report digest)");
    }
  }
  if (w.pass_rps.empty()) out.problem("no complete pass in the window");
  return w;
}

void run_campaign(const WorkloadDef& def, const Options& o, SpanRecorder& rec,
                  Outcome& out) {
  const std::size_t workers = sweep_workers(def);
  const std::string manifest =
      def.manifest ? o.out_dir + "/manifest-" + def.name + ".jsonl" : "";

  Inputs in;
  std::vector<fault::Campaign> campaigns;
  std::vector<double> setup_s, gen_ms, rt_ms, compile_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    in = Inputs{};
    campaigns.clear();
    if (!build_inputs(o, rec, in, out)) return;
    for (const scenario::CompiledScenario& c : in.compiled) {
      campaigns.push_back(make_campaign(c, workers, ""));  // see the journal check
    }
    // Warm-up: one run of every spec at its own seed, on a pooled context.
    fault::SimContext ctx;
    for (const scenario::CompiledScenario& c : in.compiled) {
      ctx.reset();
      if (!c.oracle_failures(c.run(ctx.sim(), c.spec().seed)).empty()) {
        out.problem("warm-up oracle failure in " + c.spec().name);
      }
    }
    setup_s.push_back(ms_since(t0) / 1e3);
    gen_ms.push_back(in.generate_ms);
    rt_ms.push_back(in.roundtrip_ms);
    compile_ms.push_back(in.compile_ms);
  }
  out.values["setup_s"] = median_of(setup_s);

  // Untraced window (the whole window unless tracing); with tracing, a
  // second, traced window of equal length gives the per-layer numbers.
  const double window_s = o.trace ? o.seconds / 2 : o.seconds;
  rec.set_enabled(false);
  SweepWindow plain = sweep_window(in, campaigns, workers, rec, window_s, out);
  SweepWindow w;
  if (o.trace) {
    rec.set_enabled(true);
    w = sweep_window(in, campaigns, workers, rec, window_s, out);
    out.attempted += plain.runs;
    out.failed += plain.failed;
    if (w.best_rps() > 0.0) {
      out.values["obs.trace_overhead_frac"] = plain.best_rps() / w.best_rps() - 1.0;
    }
  } else {
    w = std::move(plain);
  }
  out.attempted += w.runs;
  out.failed += w.failed;

  // Outside the timed windows: the parallel reports must equal a serial
  // sweep of the same specs, and so must those of one more parallel pass
  // that journals every sweep, whose manifests must read back whole. The
  // timed sweeps journal nothing: a journaled sweep fsyncs its manifest
  // twice, and an fsync times the shared disk, not the program (README.md).
  std::uint64_t manifest_bytes = 0;
  if (workers > 1) {
    std::size_t mismatched = 0;
    std::size_t bad_journals = 0;
    for (std::size_t i = 0; i < w.last_reports.size(); ++i) {
      const scenario::CompiledScenario& c = in.compiled[i];
      const fault::Campaign::CtxRunFn run =
          [&c](fault::SimContext& ctx, std::uint64_t seed) {
            return c.run(ctx.sim(), seed);
          };
      const fault::CampaignReport serial = make_campaign(c, 1, "").sweep(run);
      if (!fault::identical(serial, w.last_reports[i])) ++mismatched;
      if (manifest.empty()) continue;
      const fault::CampaignReport journaled =
          make_campaign(c, workers, manifest).sweep(run);
      std::error_code ec;
      const std::uintmax_t bytes = std::filesystem::file_size(manifest, ec);
      const fault::ManifestData data = fault::read_manifest(manifest);
      if (ec || !data.header_ok || data.dropped_lines != 0 ||
          data.outcomes.size() != journaled.outcomes.size() ||
          !fault::identical(serial, journaled)) {
        ++bad_journals;
      } else {
        manifest_bytes += bytes;
      }
    }
    if (mismatched > 0) {
      out.failed += mismatched;
      out.problem(std::to_string(mismatched) +
                  " parallel reports differ from the serial sweep");
    }
    if (bad_journals > 0) {
      out.failed += bad_journals;
      out.problem(std::to_string(bad_journals) +
                  " journaled sweeps differ from the serial sweep or their manifest");
    }
    out.notes.push_back("identity: " + std::to_string(w.last_reports.size()) +
                        " reports checked against a serial sweep, " +
                        std::to_string(mismatched) + " differ; " +
                        std::to_string(bad_journals) + " journaled sweeps bad");
  }
  out.notes.push_back("digest=" + w.digest);
  std::string passes;
  for (const double r : w.pass_rps) passes += " " + std::to_string(r);
  out.notes.push_back("events_per_pass=" + std::to_string(w.pass.events) +
                      " runs_per_pass=" + std::to_string(w.pass.runs) +
                      " pass_runs_per_s:" + passes);

  out.values["runs_per_s"] = w.best_rps();
  std::vector<double> best;
  for (const auto& [run, ms] : w.best_run_ms) best.push_back(ms);
  put_percentile("latency_p50_ms", best, 0.50, out);
  out.values["peak_rss_mb"] = peak_rss_mib();

  put_setup_layers(gen_ms, rt_ms, compile_ms, out);
  put_run_layers(w.totals, w.pass, out);
  put_percentile("latency_p90_ms", w.run_ms, 0.90, out);
  const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.values["fault.busy_frac"] = frac(w.totals.run_ns, w.sweep_worker_ns);
  out.values["fault.head_frac"] = frac(w.head_ns, w.sweep_ns);
  out.values["fault.tail_frac"] = frac(w.tail_ns, w.sweep_ns);
  out.values["fault.manifest_bytes"] = static_cast<double>(manifest_bytes);
  out.values["fault.runs_retried"] = static_cast<double>(w.retried);
  out.values["fault.quarantined"] = static_cast<double>(w.quarantined);
}

// --- serve-open -------------------------------------------------------------

/// One submitted request.
struct Sent {
  std::int64_t due_ns = 0;   // when the schedule wanted it sent
  std::int64_t sent_ns = 0;  // when submit() was called
  std::size_t scenario = 0;
  std::uint64_t ticket = 0;
};

struct PhaseResult {
  /// (due time, due -> reply-ready ms) per request; refused = +inf.
  std::vector<std::pair<std::int64_t, double>> latency;
  std::uint64_t good = 0;  // kOk replies within the latency limit
  /// Closed loop: where each segment of the request order ended, with the
  /// good replies and the latest reply-ready time so far.
  struct SegmentEnd {
    std::size_t segment = 0;  // index within the cycle
    std::uint64_t good = 0;
    std::int64_t ready_ns = 0;
  };
  std::vector<SegmentEnd> segment_ends;
  std::uint64_t full_cycles = 0;
  std::vector<double> depth;  // queue depth sampled at each send
  std::uint64_t sent = 0;
  std::uint64_t refused = 0;     // kOverloaded + kExpired
  std::uint64_t late_sends = 0;  // sent more than 1 ms after due
  std::uint64_t failed = 0;
  double submit_ns = 0.0;  // time inside Server::submit
  std::int64_t start_ns = 0;
  double wall_s = 0.0;     // scheduled phase length
  serve::ServerStats before, after;
  std::vector<std::string> problems;

  std::vector<double> latency_ms() const {
    std::vector<double> v;
    for (const auto& [due, ms] : latency) v.push_back(ms);
    return v;
  }
};

/// Checks one reply and folds it into `p`. A request is timed from its due
/// time: the generator's lateness plus the server's admission-to-reply
/// latency, so a stall delays every request scheduled behind it.
class ReplyFolder {
 public:
  ReplyFolder(const Inputs& in, const std::vector<fault::Metrics>& reference)
      : in_(in), reference_(reference) {}

  void fold(const Sent& s, const serve::Reply& r, PhaseResult& p) const {
    const double ms = static_cast<double>(s.sent_ns - s.due_ns) / 1e6 + r.latency_ms;
    const double inf = std::numeric_limits<double>::infinity();
    switch (r.status) {
      case serve::ReplyStatus::kOk:
        if (r.seeds.size() != 1 || r.seeds[0].metrics != reference_[s.scenario]) {
          ++p.failed;
          p.problems.push_back("reply for " + r.scenario + " differs from its reference");
        } else if (ms <= static_cast<double>(kLatencyLimitMs)) {
          ++p.good;
        }
        p.latency.emplace_back(s.due_ns, ms);
        break;
      case serve::ReplyStatus::kDegraded:
        if (r.seeds.size() != 1 ||
            !in_.compiled[s.scenario].oracle_failures(r.seeds[0].metrics).empty()) {
          ++p.failed;
          p.problems.push_back("degraded reply for " + r.scenario + " fails an oracle");
        }
        p.latency.emplace_back(s.due_ns, ms);
        break;
      case serve::ReplyStatus::kOverloaded:
      case serve::ReplyStatus::kExpired:
        ++p.refused;
        p.latency.emplace_back(s.due_ns, inf);
        break;
      case serve::ReplyStatus::kQuarantined:
        // A seed whose run outlived the request's deadline times out: the
        // deadline doing its job under load, so it misses the limit like a
        // refusal. Any other quarantine is a failure.
        if (std::all_of(r.seeds.begin(), r.seeds.end(), [](const serve::SeedOutcome& o) {
              return o.status == fault::RunStatus::kTimedOut;
            })) {
          ++p.refused;
        } else {
          ++p.failed;
          p.problems.push_back("reply for " + r.scenario + " quarantined a seed");
        }
        p.latency.emplace_back(s.due_ns, inf);
        break;
      default:
        ++p.failed;
        p.problems.push_back(std::string("reply status ") +
                             serve::reply_status_name(r.status) + " for " + r.scenario);
        p.latency.emplace_back(s.due_ns, inf);
        break;
    }
  }

 private:
  const Inputs& in_;
  const std::vector<fault::Metrics>& reference_;
};

serve::Request make_request(const Inputs& in, std::size_t scenario) {
  serve::Request req;
  req.scenario = in.compiled[scenario].spec().name;
  req.seeds = {in.compiled[scenario].spec().seed};
  req.deadline_ms = kLatencyLimitMs;
  return req;
}

/// Submits `req` inside a serve.submit span and times the call.
std::uint64_t timed_submit(serve::Server& server, serve::Request req,
                           SpanRecorder& rec, PhaseResult& p) {
  p.depth.push_back(static_cast<double>(server.queue_depth()));
  const std::int64_t t0 = now_ns();
  std::uint64_t ticket = 0;
  {
    ScopedSpan span(rec, "serve.submit", 0, 0);
    ticket = server.submit(std::move(req));
    span.set_group(ticket + 1);  // shared with the request's serve.wait
  }
  p.submit_ns += static_cast<double>(now_ns() - t0);
  return ticket;
}

serve::Reply timed_wait(serve::Server& server, std::uint64_t ticket,
                        SpanRecorder& rec) {
  ScopedSpan span(rec, "serve.wait", 0, ticket + 1);
  return server.wait(ticket);
}

/// Open loop: this thread sends on `schedule` regardless of replies; a
/// collector thread redeems tickets in order as they complete.
PhaseResult open_loop(serve::Server& server,
                      const std::vector<ScheduledRequest>& schedule,
                      double seconds, const Inputs& in,
                      const ReplyFolder& folder, SpanRecorder& rec) {
  PhaseResult p;
  p.wall_s = seconds;
  p.before = server.stats();
  PhaseResult collected;  // written only by the collector thread
  core::Channel<Sent> pending(schedule.size() + 1);
  std::thread collector([&] {
    Sent s;
    while (pending.pop(s)) folder.fold(s, timed_wait(server, s.ticket, rec), collected);
  });
  p.start_ns = now_ns() + 1'000'000;
  for (const ScheduledRequest& r : schedule) {
    Sent s;
    s.due_ns = p.start_ns + r.due_ns;
    s.scenario = r.scenario;
    const std::int64_t ahead = s.due_ns - now_ns();
    if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
    s.sent_ns = now_ns();
    if (s.sent_ns - s.due_ns > 1'000'000) ++p.late_sends;
    s.ticket = timed_submit(server, make_request(in, r.scenario), rec, p);
    pending.push(s);
  }
  p.sent = schedule.size();
  pending.close();
  collector.join();
  p.latency = std::move(collected.latency);
  p.good = collected.good;
  p.refused = collected.refused;
  p.failed = collected.failed;
  p.problems = std::move(collected.problems);
  p.after = server.stats();
  return p;
}

/// Closed loop: keeps kClosedLoopInFlight requests outstanding, sending
/// the next as soon as the oldest is answered, for `seconds`, cycling
/// through `order` (spec indices).
PhaseResult closed_loop(serve::Server& server,
                        const std::vector<std::size_t>& order,
                        double seconds, const Inputs& in,
                        const ReplyFolder& folder, SpanRecorder& rec) {
  PhaseResult p;
  p.wall_s = seconds;
  p.before = server.stats();
  std::deque<Sent> in_flight;
  p.start_ns = now_ns();
  std::int64_t latest_ready = p.start_ns;
  std::size_t folded = 0;
  bool sending = true;
  const auto fold_oldest = [&] {
    const Sent s = in_flight.front();
    in_flight.pop_front();
    const serve::Reply r = timed_wait(server, s.ticket, rec);
    latest_ready = std::max(
        latest_ready, s.sent_ns + static_cast<std::int64_t>(r.latency_ms * 1e6));
    folder.fold(s, r, p);
    const std::size_t pos = folded++ % order.size();  // place in the cycle
    // The drain after the last send has fewer requests outstanding, so
    // its segments are not timed.
    if (!sending) return;
    if ((pos + 1) % kCapacitySegment == 0 || pos + 1 == order.size()) {
      p.segment_ends.push_back({pos / kCapacitySegment, p.good, latest_ready});
    }
    if (pos + 1 == order.size()) ++p.full_cycles;
  };
  const std::int64_t end = p.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t k = 0; now_ns() < end; ++k) {
    if (in_flight.size() == kClosedLoopInFlight) fold_oldest();
    Sent s;
    s.scenario = order[k % order.size()];
    s.sent_ns = s.due_ns = now_ns();
    s.ticket = timed_submit(server, make_request(in, s.scenario), rec, p);
    in_flight.push_back(s);
    ++p.sent;
  }
  sending = false;
  while (!in_flight.empty()) fold_oldest();
  p.after = server.stats();
  return p;
}

/// Closed-loop capacity: good replies per second over one cycle's
/// segments, each at its fastest repeat (fewest nanoseconds per good
/// reply). A segment sends the same requests in every cycle, so, as with a
/// campaign's fastest sweeps, its slower repeats measure the host's
/// neighbours; and a segment finds a quiet moment of a shared host far
/// more often than a whole cycle does.
double capacity_rate(const PhaseResult& p) {
  struct Best {
    std::int64_t ns = 0;
    std::uint64_t good = 0;
  };
  std::map<std::size_t, Best> best;  // by segment
  std::uint64_t good_before = 0;
  std::int64_t end_before = p.start_ns;
  for (const PhaseResult::SegmentEnd& s : p.segment_ends) {
    const Best b{s.ready_ns - end_before, s.good - good_before};
    good_before = s.good;
    end_before = s.ready_ns;
    if (b.good == 0 || b.ns <= 0) continue;
    const auto [it, fresh] = best.try_emplace(s.segment, b);
    // b.ns / b.good < kept ns / good, cross-multiplied.
    if (!fresh && static_cast<double>(b.ns) * static_cast<double>(it->second.good) <
                      static_cast<double>(it->second.ns) * static_cast<double>(b.good)) {
      it->second = b;
    }
  }
  double ns = 0.0, good = 0.0;
  for (const auto& [segment, b] : best) {
    ns += static_cast<double>(b.ns);
    good += static_cast<double>(b.good);
  }
  return ns > 0.0 ? good / (ns / 1e9) : 0.0;
}

struct ServeWindow {
  PhaseResult lo, cap, hi;
  RunTotals runs;  // server runs during the window
};

ServeWindow serve_window(serve::Server& server, const Options& o,
                         double seconds, const Inputs& in,
                         const ReplyFolder& folder, RunSink& sink,
                         SpanRecorder& rec, Outcome& out) {
  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& c : in.compiled) specs.push_back(c.spec());
  const double lo_s = seconds * kLoShare;
  const double cap_s = seconds * kCapacityShare;
  const double hi_s = seconds - lo_s - cap_s;
  ServeWindow w;
  sink.take();
  w.lo = open_loop(server, request_schedule(specs, o.seed, kServeLoRps, lo_s),
                   lo_s, in, folder, rec);
  // Capacity: the open loops' 95/5 mix as a fixed cycle over every heavy
  // spec, so every cycle does the same work, with enough of it queued
  // (link/tls runs are ~12 ms) that a briefly descheduled generator thread
  // does not starve the workers.
  w.cap = closed_loop(server, capacity_order(specs, o.seed + 1), cap_s, in,
                      folder, rec);
  w.hi = open_loop(server,
                   request_schedule(specs, o.seed + 2, kServeHiRps, hi_s), hi_s,
                   in, folder, rec);
  for (const RunRecord& r : sink.take()) w.runs.add(r);
  for (const PhaseResult* p : {&w.lo, &w.cap, &w.hi}) {
    out.attempted += p->sent;
    out.failed += p->failed;
    for (const std::string& why : p->problems) out.problem(why);
  }
  return w;
}

void run_serve(const Options& o, SpanRecorder& rec, Outcome& out) {
  RunSink sink;  // declared before the server: its workers write to it
  Inputs in;
  std::unique_ptr<serve::Server> server;
  std::vector<fault::Metrics> reference;
  RunTotals warm;
  std::string digest;
  std::vector<double> setup_s, gen_ms, rt_ms, compile_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    server.reset();
    in = Inputs{};
    if (!build_inputs(o, rec, in, out)) return;
    serve::ScenarioRegistry registry;
    for (std::size_t i = 0; i < in.compiled.size(); ++i) {
      serve::Scenario entry = in.compiled[i].serve_entry();
      const std::size_t family = in.family[i];
      entry.run_ctx = [inner = entry.run_ctx, family, i, &sink, &rec](
                          fault::SimContext& ctx, std::uint64_t seed,
                          serve::Scale scale) {
        ScopedSpan span(rec, "scenario.run", 0, 0);
        const std::int64_t t0 = now_ns();
        fault::Metrics m = inner(ctx, seed, scale);
        sink.add({t0, now_ns(), ctx.sim().dispatched(), family, i, seed});
        return m;
      };
      registry.add(std::move(entry));
    }
    serve::ServerConfig cfg;
    cfg.workers = kServeWorkers;
    server = std::make_unique<serve::Server>(std::move(registry), cfg);

    // Warm-up: every scenario of the request mix once at full scale,
    // serially; the replies are the reference every later kOk reply must
    // match.
    sink.take();
    serve::ServeClient client(*server);
    Digest d;
    reference.assign(in.compiled.size(), {});
    for (std::size_t i = 0; i < in.compiled.size(); ++i) {
      if (mix_class(family_of(in.compiled[i].spec())) == MixClass::kNone) continue;
      serve::Request req;
      req.scenario = in.compiled[i].spec().name;
      req.seeds = {in.compiled[i].spec().seed};
      const serve::Reply r = client.call(std::move(req));
      if (r.status != serve::ReplyStatus::kOk || r.seeds.size() != 1 ||
          !in.compiled[i].oracle_failures(r.seeds[0].metrics).empty()) {
        out.problem("warm-up reply for " + r.scenario + " is not a passing kOk");
        return;
      }
      reference[i] = r.seeds[0].metrics;
      d.add(serve::render_reply(r));
    }
    warm = RunTotals{};
    for (const RunRecord& r : sink.take()) warm.add(r);
    digest = d.hex();
    setup_s.push_back(ms_since(t0) / 1e3);
    gen_ms.push_back(in.generate_ms);
    rt_ms.push_back(in.roundtrip_ms);
    compile_ms.push_back(in.compile_ms);
  }
  out.values["setup_s"] = median_of(setup_s);
  out.notes.push_back("digest=" + digest);
  out.notes.push_back("events_per_pass=" + std::to_string(warm.events) +
                      " runs_per_pass=" + std::to_string(warm.runs));

  const ReplyFolder folder(in, reference);
  const double window_s = o.trace ? o.seconds / 2 : o.seconds;
  rec.set_enabled(false);
  ServeWindow plain =
      serve_window(*server, o, window_s, in, folder, sink, rec, out);
  ServeWindow w;
  if (o.trace) {
    rec.set_enabled(true);
    w = serve_window(*server, o, window_s, in, folder, sink, rec, out);
    const auto p50 = [](const PhaseResult& p) {
      return percentile(p.latency_ms(), 0.50).value_or(0.0);
    };
    if (p50(plain.lo) > 0.0) {
      out.values["obs.trace_overhead_frac"] = p50(w.lo) / p50(plain.lo) - 1.0;
    }
  } else {
    w = std::move(plain);
  }
  server->shutdown();

  if (w.cap.full_cycles == 0) out.problem("no full capacity cycle in the window");
  out.values["runs_per_s"] = capacity_rate(w.cap);
  out.values["peak_rss_mb"] = peak_rss_mib();
  for (const auto& [label, p] :
       {std::pair<const char*, const PhaseResult*>{"lo", &w.lo},
        {"cap", &w.cap},
        {"hi", &w.hi}}) {
    const serve::ServerStats& a = p->before;
    const serve::ServerStats& b = p->after;
    out.notes.push_back(
        std::string(label) + ": sent=" + std::to_string(p->sent) +
        " ok=" + std::to_string(b.completed - a.completed) +
        " ok_in_limit=" + std::to_string(p->good) +
        " degraded=" + std::to_string(b.degraded - a.degraded) +
        " overloaded=" + std::to_string(b.rejected_overloaded - a.rejected_overloaded) +
        " shed=" + std::to_string(b.shed - a.shed) +
        " expired=" + std::to_string(b.expired - a.expired) +
        " late_sends=" + std::to_string(p->late_sends));
  }

  put_setup_layers(gen_ms, rt_ms, compile_ms, out);
  put_run_layers(w.runs, warm, out);
  put_percentile("latency_p50_ms", w.lo.latency_ms(), 0.50, out);
  put_percentile("latency_p90_ms", w.lo.latency_ms(), 0.90, out);
  const double sent = static_cast<double>(w.lo.sent + w.cap.sent + w.hi.sent);
  out.values["serve.requests"] = sent;
  out.values["serve.busy_frac"] =
      w.runs.run_ns / (window_s * 1e9 * static_cast<double>(kServeWorkers));
  out.values["serve.submit_frac"] = w.lo.submit_ns / (w.lo.wall_s * 1e9);
  if (const auto d90 = percentile(w.lo.depth, 0.90)) {
    out.values["serve.queue_depth_p90"] = *d90;
  }
  out.values["serve.late_frac"] =
      static_cast<double>(w.lo.late_sends + w.hi.late_sends) /
      static_cast<double>(std::max<std::uint64_t>(w.lo.sent + w.hi.sent, 1));
  out.values["serve.goodput_per_s"] = static_cast<double>(w.hi.good) / w.hi.wall_s;
  out.values["serve.refused_frac"] =
      static_cast<double>(w.hi.refused) /
      static_cast<double>(std::max<std::uint64_t>(w.hi.sent, 1));
  const serve::ServerStats& a = w.hi.before;
  const serve::ServerStats& b = w.hi.after;
  out.values["serve.degraded"] = static_cast<double>(b.degraded - a.degraded);
  out.values["serve.shed"] = static_cast<double>(b.shed - a.shed);
  out.values["serve.rejected_overloaded"] =
      static_cast<double>(b.rejected_overloaded - a.rejected_overloaded);
  out.values["serve.expired"] = static_cast<double>(b.expired - a.expired);
  out.values["serve.ladder_escalations"] =
      static_cast<double>(b.ladder_escalations - a.ladder_escalations);
}

/// Layer metrics one workload kind never exercises read zero (they are
/// ratios and counts, never times, so a zero is a measurement, not a gap).
void put_absent_layers(Kind kind, Outcome& out) {
  static const char* const kCampaignOnly[] = {
      "fault.busy_frac",      "fault.head_frac",    "fault.tail_frac",
      "fault.manifest_bytes", "fault.runs_retried", "fault.quarantined"};
  static const char* const kServeOnly[] = {
      "serve.requests",      "serve.busy_frac",  "serve.submit_frac",
      "serve.queue_depth_p90", "serve.late_frac", "serve.goodput_per_s",
      "serve.refused_frac",
      "serve.degraded",      "serve.shed",       "serve.rejected_overloaded",
      "serve.expired",       "serve.ladder_escalations"};
  if (kind == Kind::kServe) {
    for (const char* n : kCampaignOnly) out.values[n] = 0.0;
  } else {
    for (const char* n : kServeOnly) out.values[n] = 0.0;
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// --- public ------------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const WorkloadDef& d : defs()) n.push_back(d.name);
    return n;
  }();
  return names;
}

const std::vector<MetricDecl>& declared_metrics(bool trace) {
  static const std::vector<MetricDecl> end_to_end = {
      {"runs_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  static const std::vector<MetricDecl> per_layer = [] {
    std::vector<MetricDecl> m = {
        {"scenario.generate_ms", "ms"},
        {"scenario.roundtrip_ms", "ms"},
        {"scenario.compile_ms", "ms"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"core.sched.events", "count"},
        {"core.sched.events_per_run", "count"},
        {"core.sched.ns_per_event", "ns"},
    };
    for (const char* f : kFamilies) {
      m.push_back({std::string("scenario.run.") + f + ".share", "ratio"});
      m.push_back({std::string("scenario.run.") + f + ".events", "count"});
    }
    for (const char* n :
         {"crypto.gcm_seal_us", "crypto.gcm_open_us", "crypto.cmac_us",
          "crypto.x25519_us", "crypto.ed25519_sign_us",
          "crypto.ed25519_verify_us", "crypto.sha256_us",
          "secproto.tls.handshake_us", "secproto.tls.record_rt_us",
          "secproto.cansec.rt_us", "secproto.secoc.rt_us",
          "secproto.macsec.rt_us"}) {
      m.push_back({n, "us"});
    }
    const std::vector<MetricDecl> rest = {
        {"fault.busy_frac", "ratio"},
        {"fault.head_frac", "ratio"},
        {"fault.tail_frac", "ratio"},
        {"fault.manifest_bytes", "bytes"},
        {"fault.runs_retried", "count"},
        {"fault.quarantined", "count"},
        {"serve.requests", "count"},
        {"serve.busy_frac", "ratio"},
        {"serve.submit_frac", "ratio"},
        {"serve.queue_depth_p90", "count"},
        {"serve.late_frac", "ratio"},
        {"serve.goodput_per_s", "1/s"},
        {"serve.refused_frac", "ratio"},
        {"serve.degraded", "count"},
        {"serve.shed", "count"},
        {"serve.rejected_overloaded", "count"},
        {"serve.expired", "count"},
        {"serve.ladder_escalations", "count"},
        {"scenario.self_frac", "ratio"},
        {"fault.self_frac", "ratio"},
        {"serve.self_frac", "ratio"},
        {"obs.spans", "count"},
        {"obs.trace_overhead_frac", "ratio"},
        {"failed_frac", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return trace ? per_layer : end_to_end;
}

std::string family_of(const scenario::ScenarioSpec& spec) {
  return std::string(scenario::topology_name(spec.topology)) + "-" +
         scenario::protocol_name(spec.protocol);
}

std::vector<scenario::ScenarioSpec> workload_specs(const std::string& workload,
                                                   std::uint64_t seed) {
  const WorkloadDef* def = find_def(workload);
  if (def == nullptr) return {};
  core::Rng rng(kSpecPoolSeed);
  core::Rng run_seeds(seed);
  std::vector<scenario::ScenarioSpec> specs;
  for (const scenario::CoverageCell& cell : scenario::cell_universe()) {
    const bool wanted =
        def->families.empty() ||
        std::find(def->families.begin(), def->families.end(),
                  std::make_pair(cell.topology, cell.protocol)) !=
            def->families.end();
    if (!wanted) continue;
    for (std::size_t k = 0; k < def->specs_per_cell; ++k) {
      core::Rng sub = rng.split();
      specs.push_back(
          scenario::generate_for_cell(cell, sub, specs.size(), def->name));
      specs.back().seed =
          static_cast<std::uint64_t>(run_seeds.uniform_int(1, 99999));
    }
  }
  return specs;
}

namespace {

/// Draws serve-open requests from `specs`: cheap or heavy cells as the
/// caller asks, the spec within the class from the seeded stream.
class MixPicker {
 public:
  MixPicker(const std::vector<scenario::ScenarioSpec>& specs, std::uint64_t seed)
      : rng_(seed) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      switch (mix_class(family_of(specs[i]))) {
        case MixClass::kHeavy: heavy_.push_back(i); break;
        case MixClass::kCheap: cheap_.push_back(i); break;
        case MixClass::kNone: break;
      }
    }
  }
  bool usable() const { return !cheap_.empty() && !heavy_.empty(); }
  core::Rng& rng() { return rng_; }
  /// The class's specs in a seeded order (Fisher-Yates).
  std::vector<std::size_t> shuffled(bool heavy) {
    std::vector<std::size_t> v = heavy ? heavy_ : cheap_;
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng_.uniform_int(
                              0, static_cast<std::int64_t>(i) - 1))]);
    }
    return v;
  }
  std::size_t pick(bool heavy) {
    const std::vector<std::size_t>& from = heavy ? heavy_ : cheap_;
    return from[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  }

 private:
  core::Rng rng_;
  std::vector<std::size_t> cheap_, heavy_;
};

}  // namespace

std::vector<ScheduledRequest> request_schedule(
    const std::vector<scenario::ScenarioSpec>& specs, std::uint64_t seed,
    double rate, double seconds) {
  MixPicker mix(specs, seed);
  std::vector<ScheduledRequest> out;
  if (!mix.usable() || rate <= 0.0) return out;
  const auto n = static_cast<std::size_t>(rate * seconds);
  const double gap_ns = 1e9 / rate;
  for (std::size_t k = 0; k < n; ++k) {
    ScheduledRequest r;
    r.due_ns = static_cast<std::int64_t>(static_cast<double>(k) * gap_ns);
    r.scenario = mix.pick(mix.rng().chance(kHeavyShare));
    out.push_back(r);
  }
  return out;
}

std::vector<std::size_t> capacity_order(
    const std::vector<scenario::ScenarioSpec>& specs, std::uint64_t seed) {
  MixPicker mix(specs, seed);
  std::vector<std::size_t> out;
  if (!mix.usable()) return out;
  const std::vector<std::size_t> heavy = mix.shuffled(true);
  const std::vector<std::size_t> cheap = mix.shuffled(false);
  const auto period = static_cast<std::size_t>(std::lround(1.0 / kHeavyShare));
  std::size_t next_cheap = 0;
  for (const std::size_t h : heavy) {
    for (std::size_t k = 0; k + 1 < period; ++k) {
      out.push_back(cheap[next_cheap++ % cheap.size()]);
    }
    out.push_back(h);
  }
  return out;
}

Outcome run_workload(const Options& opts) {
  Outcome out;
  const WorkloadDef* def = find_def(opts.workload);
  if (def == nullptr) {
    out.problem("unknown workload " + opts.workload);
    return out;
  }
  SpanRecorder rec;
  rec.set_enabled(opts.trace);
  if (def->kind == Kind::kServe) {
    run_serve(opts, rec, out);
  } else {
    run_campaign(*def, opts, rec, out);
  }
  if (!opts.trace) return out;

  // Crypto and secproto probes at the payload sizes this workload's specs
  // send (regenerated from the seed; generation is pure).
  std::vector<std::size_t> payloads;
  for (const scenario::ScenarioSpec& s : workload_specs(opts.workload, opts.seed)) {
    payloads.push_back(s.payload);
  }
  const ProbeResults probes = run_probes(payloads);
  if (!probes.ok) out.problem("a crypto or secproto probe failed to verify");
  for (const auto& [name, us] : probes.us_per_op) out.values[name] = us;

  put_absent_layers(def->kind, out);
  const std::vector<Span> spans = rec.spans();
  const std::map<std::string, double> self = layer_self_ns(spans);
  double total = 0.0;
  for (const auto& [layer, ns] : self) total += ns;
  for (const char* layer : {"scenario", "fault", "serve"}) {
    const auto it = self.find(layer);
    out.values[std::string(layer) + ".self_frac"] =
        it == self.end() || total <= 0.0 ? 0.0 : it->second / total;
  }
  out.values["obs.spans"] = static_cast<double>(spans.size());
  out.values["failed_frac"] = failed_fraction(out.failed, out.attempted);
  const std::string path = opts.out_dir + "/spans-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".jsonl";
  if (!rec.write_jsonl(path)) out.problem("cannot write " + path);
  out.notes.push_back("spans written to " + path);
  return out;
}

std::string render_result(Outcome& out, bool trace) {
  std::string metrics;
  for (const MetricDecl& m : declared_metrics(trace)) {
    const auto it = out.values.find(m.name);
    if (it == out.values.end() || !std::isfinite(it->second)) {
      out.problem("metric " + m.name + " was not measured");
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(it->second) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const auto& [name, v] : out.values) {
    const auto& decl = declared_metrics(trace);
    const bool declared = std::any_of(decl.begin(), decl.end(),
                                      [&](const MetricDecl& m) { return m.name == name; });
    const auto& other = declared_metrics(!trace);
    const bool known = std::any_of(other.begin(), other.end(),
                                   [&](const MetricDecl& m) { return m.name == name; });
    if (!declared && !known) out.problem("undeclared metric " + name);
  }
  return std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

}  // namespace perfbench
