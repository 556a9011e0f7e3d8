#include "avsec/fault/campaign.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "avsec/core/parallel.hpp"
#include "avsec/core/rng.hpp"
#include "avsec/fault/manifest.hpp"
#include "avsec/obs/export.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::fault {
namespace {

using Invariants = std::vector<std::pair<std::string, Campaign::Check>>;

// --- merge-tree aggregation ---------------------------------------------
//
// Aggregation folds through fixed-size blocks of consecutive runs, then a
// pairwise merge tree over the blocks (core::Accumulator's Chan et al.
// block-merge discipline). Block boundaries are a function of this
// constant and the run count ONLY — never of workers — so the
// floating-point operation order, and therefore the report bytes, are
// identical at any worker count.
constexpr std::size_t kFoldBlockRuns = 32;

struct FoldBlock {
  std::map<std::string, core::Accumulator> aggregate;
  std::map<std::string, std::size_t> violations;
  std::size_t failed = 0;
  std::size_t quarantined = 0;
  std::size_t retried = 0;
};

void fold_block(FoldBlock& b, const std::vector<RunOutcome>& outcomes,
                std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const RunOutcome& o = outcomes[i];
    for (const auto& [key, value] : o.metrics) b.aggregate[key].add(value);
    for (const std::string& name : o.violated) ++b.violations[name];
    if (!o.violated.empty()) ++b.failed;
    if (is_quarantined(o.status)) ++b.quarantined;
    if (o.attempts > 1) ++b.retried;
  }
}

void merge_block(FoldBlock& into, const FoldBlock& from) {
  for (const auto& [key, acc] : from.aggregate) into.aggregate[key].merge(acc);
  for (const auto& [name, n] : from.violations) into.violations[name] += n;
  into.failed += from.failed;
  into.quarantined += from.quarantined;
  into.retried += from.retried;
}

// Folds every outcome into the report on the calling thread: block folds
// in run order, then a deterministic pairwise reduction.
void fold_report(CampaignReport& report,
                 const std::vector<RunOutcome>& outcomes) {
  if (outcomes.empty()) return;
  const std::size_t nblocks =
      (outcomes.size() + kFoldBlockRuns - 1) / kFoldBlockRuns;
  std::vector<FoldBlock> blocks(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * kFoldBlockRuns;
    const std::size_t hi = std::min(lo + kFoldBlockRuns, outcomes.size());
    fold_block(blocks[b], outcomes, lo, hi);
  }
  // Pairwise reduction in a fixed shape: at stride s, block i absorbs
  // block i+s.
  for (std::size_t span = 1; span < nblocks; span *= 2) {
    for (std::size_t i = 0; i + span < nblocks; i += 2 * span) {
      merge_block(blocks[i], blocks[i + span]);
    }
  }
  report.aggregate = std::move(blocks[0].aggregate);
  report.violations = std::move(blocks[0].violations);
  report.failed_runs = blocks[0].failed;
  report.quarantined_runs = blocks[0].quarantined;
  report.runs_retried = blocks[0].retried;
}

// One run: the supervised attempt loop, then the invariants and the trace
// policy on the attempt that completed. Everything written is a pure
// function of the seed; the backoff between attempts only paces them.
void execute_run(const CampaignConfig& config, const Invariants& invariants,
                 const Campaign::CtxRunFn& run, SimContext& ctx,
                 RunOutcome& o) {
  SupervisedRun r = run_supervised(
      config.supervision, ctx, config.trace != TraceCapture::kOff,
      [&](SimContext& c) { return run(c, o.seed); });
  o.status = r.status;
  o.attempts = r.attempts;
  o.error = std::move(r.error);
  o.metrics = std::move(r.metrics);
  o.violated.clear();
  o.trace.clear();
  if (is_quarantined(o.status)) return;
  for (const auto& [name, check] : invariants) {
    if (!check(o.metrics)) o.violated.push_back(name);
  }
  o.status = o.violated.empty() ? RunStatus::kPassed : RunStatus::kViolated;
  if (config.trace == TraceCapture::kAllRuns ||
      (config.trace == TraceCapture::kFailingRuns && !o.violated.empty())) {
    o.trace = obs::text_dump(ctx.recorder());
  }
}

ManifestHeader header_for(const CampaignConfig& config,
                          const Invariants& invariants) {
  ManifestHeader h;
  h.runs = config.runs;
  h.base_seed = config.base_seed;
  h.trace = static_cast<int>(config.trace);
  h.invariants.reserve(invariants.size());
  for (const auto& [name, check] : invariants) h.invariants.push_back(name);
  return h;
}

// The one sweep engine behind both sweep() and resume(): executes every
// index not satisfied by `loaded`, journals completions to `writer`, and
// folds loaded and fresh outcomes interleaved in run order — which is
// exactly why a resumed report is byte-identical to an uninterrupted one.
CampaignReport execute_sweep(const CampaignConfig& config,
                             const Invariants& invariants,
                             const Campaign::CtxRunFn& run,
                             std::map<std::size_t, RunOutcome>* loaded,
                             ManifestWriter* writer, ResumeStats* stats) {
  CampaignReport report;
  report.runs = config.runs;

  // Seeds are drawn up front in run order; each run then owns a private
  // RNG stream, so execution order cannot leak between runs.
  std::vector<RunOutcome> outcomes(config.runs);
  core::Rng rng(config.base_seed);
  for (RunOutcome& o : outcomes) o.seed = rng.next();

  // Adopt loaded outcomes that completed (produced metrics); quarantined
  // and missing runs go on the work list. Violations and status are
  // re-derived from the loaded metrics under the *current* invariants, so
  // a loaded run folds exactly as if it had just executed. Adoption moves
  // out of the manifest map — a loaded run can carry a multi-KB trace
  // dump, and the map is dead after this loop.
  std::vector<std::size_t> todo;
  todo.reserve(config.runs);
  for (std::size_t i = 0; i < config.runs; ++i) {
    RunOutcome* prior = nullptr;
    if (loaded != nullptr) {
      const auto it = loaded->find(i);
      if (it != loaded->end() && it->second.seed == outcomes[i].seed &&
          !is_quarantined(it->second.status)) {
        prior = &it->second;
      }
    }
    if (prior == nullptr) {
      todo.push_back(i);
      continue;
    }
    RunOutcome& o = outcomes[i];
    o = std::move(*prior);
    o.violated.clear();
    for (const auto& [name, check] : invariants) {
      if (!check(o.metrics)) o.violated.push_back(name);
    }
    o.status = o.violated.empty() ? RunStatus::kPassed : RunStatus::kViolated;
  }
  if (stats != nullptr) {
    stats->loaded = config.runs - todo.size();
    stats->reran = todo.size();
  }

  // Per-run work. Everything here depends only on the run's own seed, so
  // it can execute on any thread; the manifest append is the only shared
  // touch and the writer serializes it internally. execute_run() turns
  // every scenario failure into an outcome, so anything caught here is
  // bookkeeping itself failing (an invariant check or the journal
  // throwing): it becomes a crash of that run, never the end of the sweep.
  auto execute = [&](std::size_t i, SimContext& ctx) {
    RunOutcome& o = outcomes[i];
    try {
      execute_run(config, invariants, run, ctx, o);
      if (writer != nullptr) writer->append(i, o);
      return;
    } catch (const std::exception& e) {
      o.error = e.what();
    } catch (...) {
      o.error = "unknown exception";
    }
    o.metrics.clear();
    o.violated.clear();
    o.trace.clear();
    o.status = RunStatus::kCrashed;
    o.attempts = std::max(o.attempts, 1u);
    if (writer != nullptr) writer->append(i, o);
  };

  std::size_t workers =
      config.workers == 0 ? core::default_workers() : config.workers;
  workers = std::min(workers, std::max<std::size_t>(todo.size(), 1));

  // One warm SimContext per worker slot, built here on the sweeping
  // thread; the first reset() inside run_supervised hands confinement to
  // the worker.
  const auto contexts = std::make_unique<SimContext[]>(workers);
  core::parallel_for(workers, todo.size(),
                     [&](std::size_t slot, std::size_t k) {
                       execute(todo[k], contexts[slot]);
                     });

  // Aggregate through the merge tree (see fold_report), then move
  // outcomes into the report: they carry metrics maps and trace dumps
  // that would be expensive to copy.
  fold_report(report, outcomes);
  report.outcomes.reserve(config.runs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    RunOutcome& o = outcomes[i];
    if (is_quarantined(o.status)) {
      AVSEC_TRACE_INSTANT(obs::Category::kFault, "campaign.quarantine",
                          /*track=*/0, /*ts=*/0,
                          static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(o.attempts),
                          run_status_name(o.status));
    } else if (o.attempts > 1) {
      AVSEC_TRACE_INSTANT(obs::Category::kFault, "campaign.retry-recovered",
                          /*track=*/0, /*ts=*/0,
                          static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(o.attempts));
    }
    report.outcomes.push_back(std::move(o));
  }
  if (report.runs_retried > 0) {
    AVSEC_METRIC_INC("campaign.runs_retried", report.runs_retried);
  }
  if (report.quarantined_runs > 0) {
    AVSEC_METRIC_INC("campaign.runs_quarantined", report.quarantined_runs);
  }
  if (stats != nullptr && stats->loaded > 0) {
    AVSEC_METRIC_INC("campaign.resume_skipped", stats->loaded);
  }
  return report;
}

CampaignReport sweep_impl(const CampaignConfig& config,
                          const Invariants& invariants,
                          const Campaign::CtxRunFn& run) {
  ManifestWriter writer;
  ManifestWriter* journal = nullptr;
  if (!config.manifest_path.empty() &&
      writer.open_fresh(config.manifest_path,
                        header_for(config, invariants))) {
    journal = &writer;
  }
  return execute_sweep(config, invariants, run, nullptr, journal, nullptr);
}

CampaignReport resume_impl(const CampaignConfig& config,
                           const Invariants& invariants,
                           const Campaign::CtxRunFn& run,
                           const std::string& manifest_path,
                           ResumeStats* stats) {
  ManifestData data = read_manifest(manifest_path);
  ResumeStats local;
  ResumeStats& st = stats != nullptr ? *stats : local;
  st = {};
  st.dropped_lines = data.dropped_lines;

  ManifestWriter writer;
  if (!data.header_ok) {
    // Nothing trustworthy on disk: degrade to a fresh sweep that rewrites
    // the manifest, so the next interruption has a journal to resume from.
    ManifestWriter* journal =
        writer.open_fresh(manifest_path, header_for(config, invariants))
            ? &writer
            : nullptr;
    return execute_sweep(config, invariants, run, nullptr, journal, &st);
  }
  if (data.header != header_for(config, invariants)) {
    throw std::invalid_argument(
        "campaign manifest does not match this campaign "
        "(runs/base_seed/trace/invariants differ): " +
        manifest_path);
  }
  // Valid manifest for this exact campaign: append re-executed runs to it
  // (a rerun's line supersedes by position — the reader keeps the last
  // valid record per index). The validated overload re-checks the header
  // at open time, so a file replaced since read_manifest() is refused
  // rather than appended to.
  ManifestWriter* journal =
      writer.open_append(manifest_path, header_for(config, invariants))
          ? &writer
          : nullptr;
  return execute_sweep(config, invariants, run, &data.outcomes, journal, &st);
}

}  // namespace

std::vector<std::uint64_t> CampaignReport::failing_seeds() const {
  std::vector<std::uint64_t> seeds;
  for (const RunOutcome& o : outcomes) {
    if (!o.violated.empty()) seeds.push_back(o.seed);
  }
  return seeds;
}

std::vector<std::uint64_t> CampaignReport::quarantined_seeds() const {
  std::vector<std::uint64_t> seeds;
  for (const RunOutcome& o : outcomes) {
    if (is_quarantined(o.status)) seeds.push_back(o.seed);
  }
  return seeds;
}

bool identical(const CampaignReport& a, const CampaignReport& b) {
  if (a.runs != b.runs || a.failed_runs != b.failed_runs ||
      a.quarantined_runs != b.quarantined_runs ||
      a.runs_retried != b.runs_retried || a.violations != b.violations ||
      a.outcomes.size() != b.outcomes.size() ||
      a.aggregate.size() != b.aggregate.size()) {
    return false;
  }
  for (auto ita = a.aggregate.begin(), itb = b.aggregate.begin();
       ita != a.aggregate.end(); ++ita, ++itb) {
    if (ita->first != itb->first || !ita->second.identical(itb->second)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const RunOutcome& oa = a.outcomes[i];
    const RunOutcome& ob = b.outcomes[i];
    if (oa.seed != ob.seed || oa.status != ob.status ||
        oa.attempts != ob.attempts || oa.error != ob.error ||
        oa.violated != ob.violated || oa.metrics != ob.metrics ||
        oa.trace != ob.trace) {
      return false;
    }
  }
  return true;
}

Campaign& Campaign::require(std::string name, Check check) {
  invariants_.emplace_back(std::move(name), std::move(check));
  return *this;
}

std::uint64_t Campaign::seed_for_run(std::size_t i) const {
  // One splitmix-derived draw per run index: stable under resizing the
  // sweep and independent of evaluation order.
  core::Rng rng(config_.base_seed);
  std::uint64_t seed = 0;
  for (std::size_t k = 0; k <= i; ++k) seed = rng.next();
  return seed;
}

std::vector<std::string> Campaign::invariant_names() const {
  std::vector<std::string> names;
  names.reserve(invariants_.size());
  for (const auto& [name, check] : invariants_) names.push_back(name);
  return names;
}

CampaignReport Campaign::sweep(const CtxRunFn& run) const {
  return sweep_impl(config_, invariants_, run);
}

CampaignReport Campaign::resume(const CtxRunFn& run,
                                const std::string& manifest_path,
                                ResumeStats* stats) const {
  return resume_impl(config_, invariants_, run, manifest_path, stats);
}

}  // namespace avsec::fault
