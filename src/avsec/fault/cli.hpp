// The campaign command line shared by example_fault_campaign,
// example_health_chaos and example_scenario_run: the shared flags, the
// serial reference sweep and the --workers sweep (or resume) checked
// byte-for-byte against it, the report tables, the failing-run dumps, and
// the Perfetto replay of one seed through the run the sweep used. Argv is
// strict: anything it cannot parse is refused, never guessed at.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "avsec/fault/campaign.hpp"

namespace avsec::fault::cli {

/// The largest --workers any campaign or serve binary accepts: each worker
/// is an OS thread, started eagerly.
inline constexpr std::size_t kMaxWorkers = 256;

struct Options {
  std::size_t workers = 0;  // resolved: 0 on the command line = hardware
  std::string manifest;     // "" = no journal
  std::string resume;       // "" = fresh sweep
  std::string trace;        // "" = no Perfetto replay
  bool trace_failing = false;
  std::vector<std::string> rest;  // arguments left for the caller, in order
};

/// Usage lines for the shared flags that take a value.
const char* flag_help();

/// A whole decimal number: no sign, no whitespace, no trailing bytes, no
/// overflow. The one numeric argv check of every campaign and serve binary.
bool parse_u64(const std::string& text, std::uint64_t& out);

/// Pulls the shared flags out of argv[1..argc). Returns "" on success,
/// else why argv is refused.
std::string parse(int argc, const char* const* argv, Options& out);

/// parse(), then the campaign binaries' `[runs] [base_seed]` positionals:
/// positive integers overriding `config`. Any other leftover is refused.
std::string parse_campaign(int argc, const char* const* argv, Options& out,
                           CampaignConfig& config);

/// The campaign at a worker count, journaling to `manifest` if non-empty.
using MakeCampaign =
    std::function<Campaign(std::size_t workers, const std::string& manifest)>;

struct Sweep {
  CampaignReport report;   // the --workers sweep, or the resumed one
  bool identical = false;  // byte-identical to the serial reference
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  std::string journal;  // manifest written or resumed ("" = none)
  bool resumed = false;
  ResumeStats resume;
};

/// Sweeps make(1, "") serially, then make(opts.workers, ...) fresh
/// (journaled to opts.manifest) or resumed from opts.resume, with
/// `journal_suffix` appended to either path. Returns nullopt, naming the
/// journal and the reason on stderr, when the journal to resume belongs
/// to another campaign.
std::optional<Sweep> sweep(const Options& opts, const MakeCampaign& make,
                           const Campaign::CtxRunFn& run,
                           const std::string& journal_suffix = "");

/// Prints where the sweep journaled to, or what the resume loaded.
void print_journal(const Sweep& s);

/// Replays the report's first failing seed, else run 0's, through `run` on
/// a local SimContext and writes its Perfetto JSON to `path`. Returns
/// false, with the reason on stderr, for an empty report or a failed write.
bool write_trace(const CampaignReport& report, const Campaign::CtxRunFn& run,
                 const std::string& path);

struct CampaignMain {
  std::string title;
  CampaignConfig config;  // runs and base_seed are positional defaults
  std::vector<std::pair<std::string, Campaign::Check>> invariants;
  Campaign::CtxRunFn run;
  std::function<void()> prologue;  // optional; runs once argv is accepted
};

/// A whole campaign binary: parse, sweep, print, dump, replay. Returns 0
/// when every invariant held and the reports matched, 2 when argv or the
/// journal to resume is refused, else 1.
int campaign_main(int argc, const char* const* argv, const CampaignMain& m);

}  // namespace avsec::fault::cli
