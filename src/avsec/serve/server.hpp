// avsec-serve: an overload-robust scenario/campaign service.
//
// The simulator's batch tools run to completion and exit; the Server is
// the long-running half of the story (DESIGN.md §14): a bounded request
// pipeline that survives overload, wedged runs, and poisoned requests by
// answering every request with a structured reply instead of buffering,
// hanging, or crashing.
//
// Architecture (modeled on the sairedis producer/consumer split):
//
//   submit()/submit_batch()          worker threads            wait()
//   ── admission control ──> core::Channel<Job> ──> execute ──> reply slots
//        |                     (bounded MPMC)          |      (ticket order)
//        |                                             |
//        +── immediate structured rejects              +── per-run
//            (unknown / infeasible / overloaded)           budgets +
//                                                          retry/quarantine
//   supervisor thread: load ladder polls + a stalled-poll count per
//   worker (wedged-worker replacement).
//
// Robustness properties, each tested:
//  - Admission control: the queue is a bounded Channel; when it is full or
//    the ladder says SHED, submit() completes the ticket immediately with
//    kOverloaded. Nothing ever buffers without bound.
//  - Deadlines: a deadline below the scenario's static cost floor is
//    rejected kInfeasible (deterministically); a deadline the current
//    load estimate cannot meet is rejected kOverloaded; a request whose
//    deadline expires while queued is answered kExpired without running;
//    mid-run the remaining budget is the attempt's wall deadline, checked
//    on the scenario's scheduler (ctx.sim()) as it dispatches.
//  - Poison quarantine: every seed runs through fault::run_supervised,
//    the campaign's retry loop, on core::RetryPolicy backoff; a seed that
//    fails every attempt yields a kQuarantined reply enumerating the
//    per-seed statuses (as a campaign quarantines, never a drop).
//  - Worker supervision: workers heartbeat per job and per seed; the
//    supervisor counts, per worker slot, the polls in a row that find it
//    busy with an unchanged heartbeat, declares it wedged when the count
//    reaches worker_stall_polls, abandons the slot, and spawns a
//    replacement so the pool keeps draining.
//  - Graceful degradation: sustained overload moves the LoadLadder
//    NOMINAL -> DEGRADED (admissions run smoke-scale) -> SHED (structured
//    refusal) and back, with hysteresis.
//
// Determinism: replies redeem in ticket (submission) order and
// render_reply() covers only load-independent fields, so identical
// request streams (below overload) render byte-identical replies at any
// worker count — asserted by tests and the CI soak gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "avsec/core/annotations.hpp"
#include "avsec/core/channel.hpp"
#include "avsec/core/sync.hpp"
#include "avsec/fault/resilience.hpp"
#include "avsec/serve/ladder.hpp"
#include "avsec/serve/registry.hpp"
#include "avsec/serve/request.hpp"

namespace avsec::serve {

struct ServerConfig {
  /// Worker threads executing scenario runs.
  std::size_t workers = 2;
  /// Bounded job-queue capacity — the admission-control limit. A batch of
  /// coalesced same-scenario requests occupies one slot.
  std::size_t queue_capacity = 32;
  /// Load-shedding ladder thresholds (occupancy of the job queue).
  LadderConfig ladder;
  /// Supervisor cadence: ladder sampling and wedged-worker polls.
  std::int64_t supervisor_poll_ms = 10;
  /// Wedge deadline per worker, in supervisor polls: a busy worker
  /// whose heartbeat stalls this many polls is declared wedged and
  /// replaced.
  int worker_stall_polls = 100;
  /// Per-run supervision defaults (retry/backoff schedule; quarantine
  /// after retry.max_retries + 1 failed attempts); max_events /
  /// wall_deadline_ms are derived per request.
  fault::SupervisionConfig supervision;
};

/// Monotonic counters, readable at any time. submitted == accepted +
/// rejected_* + shed; every accepted ticket eventually lands in exactly
/// one of completed / degraded+completed / expired / quarantined.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;            // replies with status kOk
  std::uint64_t degraded = 0;             // replies with status kDegraded
  std::uint64_t quarantined = 0;          // replies with status kQuarantined
  std::uint64_t expired = 0;              // kExpired (deadline died queued)
  std::uint64_t rejected_unknown = 0;     // kRejected
  std::uint64_t rejected_infeasible = 0;  // kInfeasible
  std::uint64_t rejected_overloaded = 0;  // kOverloaded (queue/load)
  std::uint64_t shed = 0;                 // kOverloaded while ladder SHED
  std::uint64_t runs_retried = 0;         // seeds needing > 1 attempt
  std::uint64_t workers_replaced = 0;     // wedged-worker replacements
  std::uint64_t ladder_escalations = 0;
  std::uint64_t ladder_recoveries = 0;
};

class Server {
 public:
  explicit Server(ScenarioRegistry registry, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one request. Always returns a ticket; if admission refused the
  /// request, the ticket's reply is already complete (structured reject).
  std::uint64_t submit(Request req);

  /// Admits a batch, coalescing same-scenario requests (equal deadline,
  /// event budget) into one queued job executed as a single batched sweep
  /// over the merged seed list. Tickets come back in input order; each
  /// request still gets its own reply.
  std::vector<std::uint64_t> submit_batch(std::vector<Request> reqs);

  /// Blocks until `ticket`'s reply is ready and returns it. Each ticket
  /// redeems exactly once; redeeming an unknown ticket throws
  /// std::invalid_argument. Redeeming in ascending ticket order yields the
  /// index-ordered reply stream of the determinism contract.
  Reply wait(std::uint64_t ticket);

  /// Non-blocking wait(); false when the reply is not ready yet.
  bool try_wait(std::uint64_t ticket, Reply& out);

  LoadState load_state() const { return ladder_.state(); }
  ServerStats stats() const;
  std::size_t queue_depth() const { return queue_.size(); }
  const ScenarioRegistry& registry() const { return registry_; }
  const ServerConfig& config() const { return config_; }

  /// Stops admissions, drains queued jobs, joins workers and supervisor.
  /// Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct JobPart {
    std::uint64_t ticket = 0;
    std::vector<std::uint64_t> seeds;
    bool trace = false;
  };
  struct Job {
    const Scenario* scenario = nullptr;
    Scale scale = Scale::kFull;
    std::int64_t deadline_ms = 0;   // relative to admit_ns; 0 = none
    std::int64_t admit_ns = 0;      // wall clock at admission
    std::uint64_t max_events = 0;   // sim-event budget per attempt
    std::vector<JobPart> parts;
  };
  struct WorkerSlot {
    std::thread thread;
    std::uint32_t id = 0;  // stable slot index, for reply telemetry
    /// Bumped by the worker per job and per seed; the supervisor resets
    /// the slot's stall count only when it advanced (or the worker is
    /// idle).
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<bool> busy{false};
    /// Set by the supervisor when the stall count reaches
    /// worker_stall_polls: the worker exits after its current job instead
    /// of popping more work.
    std::atomic<bool> abandoned{false};
    /// Supervisor thread only: the heartbeat its last poll saw, and how
    /// many polls in a row found the worker busy with it unchanged.
    std::uint64_t seen_heartbeat = 0;
    int stalled_polls = 0;
    /// Warm per-worker simulation context: every seed runs on its
    /// scheduler (capacity kept across resets), and trace capture reuses
    /// its recorder (ring + intern table) instead of allocating one per
    /// traced seed.
    /// Reset before every attempt; confined to this slot's thread. A
    /// replacement worker gets a fresh slot and a fresh context, so an
    /// abandoned (possibly wedged) run never shares it.
    fault::SimContext ctx;
  };

  void publish(std::uint64_t ticket, Reply reply);
  Reply make_reject(std::uint64_t ticket, const Request& req,
                    ReplyStatus status, std::string detail) const;
  void execute_job(WorkerSlot& slot, Job& job);
  void run_seed(WorkerSlot& slot, const Job& job, std::int64_t remaining_ms,
                SeedOutcome& out, std::string* trace_dump);
  void worker_loop(WorkerSlot* slot);
  void supervisor_loop();
  void spawn_worker();
  double cost_estimate_ms(const std::string& scenario,
                          double cost_hint, std::size_t seeds) const;

  const ScenarioRegistry registry_;
  const ServerConfig config_;
  core::Channel<Job> queue_;
  LoadLadder ladder_;

  // Reply slots: outstanding tickets and finished replies. wait() blocks
  // on reply_ready_ until its ticket moves from pending to ready.
  mutable core::Mutex reply_mu_;
  core::CondVar reply_ready_;
  std::map<std::uint64_t, Reply> ready_ AVSEC_GUARDED_BY(reply_mu_);
  std::set<std::uint64_t> outstanding_ AVSEC_GUARDED_BY(reply_mu_);
  std::uint64_t next_ticket_ AVSEC_GUARDED_BY(reply_mu_) = 0;

  // Per-scenario EWMA of wall milliseconds per seed, fed by workers, plus
  // a whole-job EWMA approximating the wait behind each queued job.
  mutable core::Mutex ewma_mu_;
  std::map<std::string, double> ewma_ms_per_seed_ AVSEC_GUARDED_BY(ewma_mu_);
  double ewma_job_ms_ AVSEC_GUARDED_BY(ewma_mu_) = 0.0;

  // Worker pool. Slots are append-only (replacement appends a new slot and
  // abandons the old one); the deque never reallocates existing slots.
  mutable core::Mutex slots_mu_;
  std::deque<WorkerSlot> slots_ AVSEC_GUARDED_BY(slots_mu_);

  std::thread supervisor_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};

  // Stats counters (atomics: touched from admission, workers, supervisor).
  struct {
    std::atomic<std::uint64_t> submitted{0}, accepted{0}, completed{0},
        degraded{0}, quarantined{0}, expired{0}, rejected_unknown{0},
        rejected_infeasible{0}, rejected_overloaded{0}, shed{0},
        runs_retried{0}, workers_replaced{0};
  } counters_;
};

/// Thin synchronous front-end over an in-process Server.
class ServeClient {
 public:
  explicit ServeClient(Server& server) : server_(server) {}

  /// submit + wait for one request.
  Reply call(Request req);

  /// Batch form: coalesces via Server::submit_batch and returns replies in
  /// input order (the index-ordered reply stream).
  std::vector<Reply> call_batch(std::vector<Request> reqs);

 private:
  Server& server_;
};

}  // namespace avsec::serve
