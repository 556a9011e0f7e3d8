#include "avsec/fault/cli.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "avsec/core/table.hpp"
#include "avsec/core/parallel.hpp"
#include "avsec/obs/export.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::fault::cli {
namespace {

void print_seeds(const char* label, const std::vector<std::uint64_t>& seeds) {
  std::printf("%s", label);
  for (const std::uint64_t s : seeds) {
    std::printf(" %llu", static_cast<unsigned long long>(s));
  }
  std::printf("\n");
}

void print_report(const CampaignReport& report, std::uint64_t base_seed) {
  core::Table t({"Metric", "Mean", "Min", "Max"});
  for (const auto& [name, acc] : report.aggregate) {
    t.add_row({name, core::Table::num(acc.mean(), 2),
               core::Table::num(acc.min(), 2),
               core::Table::num(acc.max(), 2)});
  }
  t.print("Campaign aggregates over " + std::to_string(report.runs) +
          " seeded runs (base seed " + std::to_string(base_seed) + ")");

  if (!report.violations.empty()) {
    core::Table v({"Invariant", "Violations"});
    for (const auto& [name, count] : report.violations) {
      v.add_row({name, std::to_string(count)});
    }
    v.print("Invariant violations");
    print_seeds("failing seeds (replayable):", report.failing_seeds());
  } else {
    std::printf("\nAll invariants held on every run (%zu/%zu passed).\n",
                report.runs - report.failed_runs, report.runs);
  }
  if (report.quarantined_runs > 0) {
    const std::string label = "quarantined seeds (" +
                              std::to_string(report.quarantined_runs) +
                              " runs failed every attempt):";
    print_seeds(label.c_str(), report.quarantined_seeds());
  }
  if (report.runs_retried > 0) {
    std::printf("%zu runs needed retries\n", report.runs_retried);
  }
}

void write_failing_traces(const CampaignReport& report) {
  std::size_t written = 0;
  for (const RunOutcome& o : report.outcomes) {
    if (o.violated.empty()) continue;
    const std::string path =
        "campaign-trace-" + std::to_string(o.seed) + ".txt";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(o.trace.data(), 1, o.trace.size(), f);
      std::fclose(f);
      std::printf("wrote failing-run trace %s (%zu bytes)\n", path.c_str(),
                  o.trace.size());
      ++written;
    }
  }
  if (written == 0) {
    std::printf("--trace-failing: no run failed, nothing captured\n");
  }
}

}  // namespace

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

const char* flag_help() {
  return "  --workers N      sweep workers, at most 256 (0 = one per "
         "hardware thread, the default)\n"
         "  --manifest FILE  journal the sweep to FILE\n"
         "  --resume FILE    resume the sweep journaled in FILE\n"
         "  --trace FILE     Perfetto trace of one replayed seed (the first "
         "failing one, else run 0)\n";
}

std::string parse(int argc, const char* const* argv, Options& out) {
  out = Options{};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace-failing") {
      out.trace_failing = true;
      continue;
    }
    std::string* path = arg == "--manifest" ? &out.manifest
                        : arg == "--resume" ? &out.resume
                        : arg == "--trace"  ? &out.trace
                                            : nullptr;
    if (path == nullptr && arg != "--workers") {
      out.rest.push_back(arg);
      continue;
    }
    if (i + 1 >= argc || argv[i + 1][0] == '\0') {
      return arg + " needs a value";
    }
    const std::string value = argv[++i];
    if (path != nullptr) {
      *path = value;
      continue;
    }
    std::uint64_t workers = 0;
    if (!parse_u64(value, workers)) {
      return "--workers needs a non-negative integer, got '" + value + "'";
    }
    if (workers > kMaxWorkers) {
      return "--workers takes at most " + std::to_string(kMaxWorkers) +
             ", got '" + value + "'";
    }
    out.workers = static_cast<std::size_t>(workers);
  }
  if (out.workers == 0) out.workers = core::default_workers();
  return "";
}

std::string parse_campaign(int argc, const char* const* argv, Options& out,
                           CampaignConfig& config) {
  std::string error = parse(argc, argv, out);
  if (!error.empty()) return error;
  for (const std::string& arg : out.rest) {
    if (arg[0] == '-') return "unknown option '" + arg + "'";
  }
  if (out.rest.size() > 2) {
    return "unexpected argument '" + out.rest[2] + "'";
  }
  std::uint64_t values[2] = {config.runs, config.base_seed};
  const char* names[2] = {"runs", "base_seed"};
  for (std::size_t k = 0; k < out.rest.size(); ++k) {
    if (!parse_u64(out.rest[k], values[k]) || values[k] == 0) {
      return std::string(names[k]) + " must be a positive integer, got '" +
             out.rest[k] + "'";
    }
  }
  config.runs = static_cast<std::size_t>(values[0]);
  config.base_seed = values[1];
  return "";
}

// AVSEC-LINT-ALLOW(R5): the wall-clock columns time the sweeps for the operator; they never reach sim state or report bytes
std::optional<Sweep> sweep(const Options& opts, const MakeCampaign& make,
                           const Campaign::CtxRunFn& run,
                           const std::string& journal_suffix) {
  using clock = std::chrono::steady_clock;  // AVSEC-LINT-ALLOW(R1): wall-clock speedup report for --workers, not sim state
  Sweep s;
  s.resumed = !opts.resume.empty();
  const std::string& journal = s.resumed ? opts.resume : opts.manifest;
  if (!journal.empty()) s.journal = journal + journal_suffix;

  // Serial reference first, then the --workers sweep: the reports must be
  // byte-identical (the campaign determinism contract), and the
  // wall-clock ratio shows the fan-out win.
  const auto t0 = clock::now();
  const CampaignReport serial = make(1, "").sweep(run);
  const auto t1 = clock::now();
  try {
    s.report = s.resumed
                   ? make(opts.workers, "").resume(run, s.journal, &s.resume)
                   : make(opts.workers, s.journal).sweep(run);
  } catch (const std::invalid_argument& e) {  // resume(): foreign journal
    std::fprintf(stderr, "refusing to resume from %s: %s\n",
                 s.journal.c_str(), e.what());
    return std::nullopt;
  }
  const auto t2 = clock::now();

  s.serial_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  s.parallel_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  s.identical = identical(serial, s.report);
  return s;
}

void print_journal(const Sweep& s) {
  if (s.resumed) {
    std::printf("resumed from %s: %zu runs loaded, %zu re-run, "
                "%zu torn/corrupt lines dropped; resumed report %s fresh "
                "sweep\n",
                s.journal.c_str(), s.resume.loaded, s.resume.reran,
                s.resume.dropped_lines,
                s.identical ? "IDENTICAL to" : "DIFFERS from");
  } else if (!s.journal.empty()) {
    std::printf("sweep journaled to %s (resume with --resume %s)\n",
                s.journal.c_str(), s.journal.c_str());
  }
}

bool write_trace(const CampaignReport& report, const Campaign::CtxRunFn& run,
                 const std::string& path) {
  if (report.outcomes.empty()) {
    std::fprintf(stderr, "no run to trace: the campaign has no runs\n");
    return false;
  }
  const std::vector<std::uint64_t> failing = report.failing_seeds();
  const std::uint64_t seed =
      failing.empty() ? report.outcomes.front().seed : failing.front();
  SimContext ctx;
  obs::TraceRecorder& rec = ctx.recorder();
  {
    obs::TraceScope scope(rec);
    run(ctx, seed);
  }
  if (!obs::write_chrome_trace(rec, path)) {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
    return false;
  }
  std::printf("wrote Perfetto trace of seed %llu to %s "
              "(%zu events retained, %llu dropped)\n",
              static_cast<unsigned long long>(seed), path.c_str(),
              rec.size(), static_cast<unsigned long long>(rec.dropped()));
  return true;
}

int campaign_main(int argc, const char* const* argv, const CampaignMain& m) {
  const char* prog = argc > 0 ? argv[0] : "campaign";
  Options opts;
  CampaignConfig config = m.config;
  const std::string error = parse_campaign(argc, argv, opts, config);
  if (!error.empty()) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [runs] [base_seed] [options]\n%s"
                 "  --trace-failing  write each failing run's trace dump to "
                 "campaign-trace-<seed>.txt\n",
                 prog, error.c_str(), prog, flag_help());
    return 2;
  }

  std::printf("%s\n%s\n\n", m.title.c_str(),
              std::string(m.title.size(), '=').c_str());
  if (m.prologue) m.prologue();

  if (opts.trace_failing) config.trace = TraceCapture::kFailingRuns;
  const MakeCampaign make = [&](std::size_t workers,
                                const std::string& manifest) {
    CampaignConfig cfg = config;
    cfg.workers = workers;
    cfg.manifest_path = manifest;
    Campaign campaign(cfg);
    for (const auto& [name, check] : m.invariants) {
      campaign.require(name, check);
    }
    return campaign;
  };
  const std::optional<Sweep> s = sweep(opts, make, m.run);
  if (!s) return 2;
  std::printf("sweep wall-clock: serial %.0f ms, %zu workers %.0f ms "
              "(speedup %.2fx), reports identical: %s\n",
              s->serial_ms, opts.workers, s->parallel_ms,
              s->parallel_ms > 0.0 ? s->serial_ms / s->parallel_ms : 0.0,
              s->identical ? "yes" : "NO");
  print_journal(*s);
  std::printf("\n");
  print_report(s->report, config.base_seed);
  if (opts.trace_failing) write_failing_traces(s->report);
  if (!opts.trace.empty() && !write_trace(s->report, m.run, opts.trace)) {
    return 1;
  }
  return s->report.all_passed() && s->identical ? 0 : 1;
}

}  // namespace avsec::fault::cli
