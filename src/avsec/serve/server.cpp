#include "avsec/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "avsec/obs/export.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::serve {
namespace {

// Serving deadlines, latency telemetry, and wedge detection live in the
// host clock domain by definition — simulation time stays inside each
// scenario's private Scheduler.
using wall_clock = std::chrono::steady_clock;  // AVSEC-LINT-ALLOW(R1): serving deadlines and watchdogs are wall-clock by design

// AVSEC-LINT-ALLOW(R5): serving deadlines, EWMA admission, and watchdogs are wall-clock by design; scenario results stay seeded-deterministic
std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             wall_clock::now().time_since_epoch())
      .count();
}

// EWMA smoothing for the per-scenario wall-cost estimate workers feed
// back after each job (used by load-aware admission).
constexpr double kEwmaAlpha = 0.2;

ServerConfig sanitize(ServerConfig c) {
  if (c.workers == 0) c.workers = 1;
  if (c.queue_capacity == 0) c.queue_capacity = 1;
  if (c.supervisor_poll_ms <= 0) c.supervisor_poll_ms = 1;
  if (c.worker_stall_polls < 2) c.worker_stall_polls = 2;
  return c;
}

}  // namespace

Server::Server(ScenarioRegistry registry, ServerConfig config)
    : registry_(std::move(registry)),
      config_(sanitize(std::move(config))),
      queue_(config_.queue_capacity),
      ladder_(config_.ladder) {
  for (std::size_t i = 0; i < config_.workers; ++i) spawn_worker();
  supervisor_ = std::thread(&Server::supervisor_loop, this);
}

Server::~Server() { shutdown(); }

void Server::spawn_worker() {
  core::MutexLock lock(slots_mu_);
  WorkerSlot& slot = slots_.emplace_back();
  slot.id = static_cast<std::uint32_t>(slots_.size() - 1);
  slot.thread = std::thread(&Server::worker_loop, this, &slot);
}

std::uint64_t Server::submit(Request req) {
  std::vector<Request> one;
  one.push_back(std::move(req));
  return submit_batch(std::move(one)).front();
}

std::vector<std::uint64_t> Server::submit_batch(std::vector<Request> reqs) {
  std::vector<std::uint64_t> tickets(reqs.size());
  {
    core::MutexLock lock(reply_mu_);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      tickets[i] = next_ticket_++;
      outstanding_.insert(tickets[i]);
    }
  }
  counters_.submitted.fetch_add(reqs.size(), std::memory_order_relaxed);

  if (stopping_.load(std::memory_order_relaxed)) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      counters_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
      publish(tickets[i], make_reject(tickets[i], reqs[i],
                                      ReplyStatus::kOverloaded,
                                      "server is shutting down"));
    }
    return tickets;
  }

  // Per-request validation and deterministic admission decisions; the
  // survivors coalesce into jobs. A request's decision depends only on
  // the request, the registry, and the published ladder state.
  std::vector<Job> groups;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Request& req = reqs[i];
    const std::uint64_t ticket = tickets[i];
    const Scenario* scenario = registry_.find(req.scenario);
    if (scenario == nullptr) {
      counters_.rejected_unknown.fetch_add(1, std::memory_order_relaxed);
      publish(ticket, make_reject(ticket, req, ReplyStatus::kRejected,
                                  "unknown scenario \"" + req.scenario +
                                      "\""));
      continue;
    }
    if (req.seeds.empty()) {
      counters_.rejected_unknown.fetch_add(1, std::memory_order_relaxed);
      publish(ticket, make_reject(ticket, req, ReplyStatus::kRejected,
                                  "request has no seeds"));
      continue;
    }
    // Static feasibility: a pure function of the request — byte-identical
    // refusal at any worker count or load.
    const double floor_ms =
        scenario->cost_hint_ms_per_seed * static_cast<double>(req.seeds.size());
    if (req.deadline_ms > 0 &&
        static_cast<double>(req.deadline_ms) < floor_ms) {
      counters_.rejected_infeasible.fetch_add(1, std::memory_order_relaxed);
      publish(ticket,
              make_reject(ticket, req, ReplyStatus::kInfeasible,
                          "deadline below the scenario's static cost floor"));
      continue;
    }
    const LoadState ls = ladder_.state();
    if (ls == LoadState::kShed) {
      counters_.shed.fetch_add(1, std::memory_order_relaxed);
      publish(ticket, make_reject(ticket, req, ReplyStatus::kOverloaded,
                                  "load shed: service is saturated"));
      continue;
    }
    const Scale scale = ls == LoadState::kDegraded ? Scale::kSmoke
                                                   : Scale::kFull;
    const std::uint64_t max_events =
        req.max_events != 0 ? req.max_events : scenario->default_max_events;

    JobPart part;
    part.ticket = ticket;
    part.seeds = std::move(req.seeds);
    part.trace = req.trace;

    Job* group = nullptr;
    for (Job& g : groups) {
      if (g.scenario == scenario && g.scale == scale &&
          g.deadline_ms == req.deadline_ms && g.max_events == max_events) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      Job job;
      job.scenario = scenario;
      job.scale = scale;
      job.deadline_ms = req.deadline_ms;
      job.max_events = max_events;
      groups.push_back(std::move(job));
      group = &groups.back();
    }
    group->parts.push_back(std::move(part));
  }

  // Load-aware admission per coalesced job: a deadline the current load
  // estimate cannot meet, or a full queue, is an immediate structured
  // refusal — never an unbounded buffer.
  for (Job& job : groups) {
    std::size_t total_seeds = 0;
    for (const JobPart& p : job.parts) total_seeds += p.seeds.size();
    if (job.deadline_ms > 0) {
      const double est = cost_estimate_ms(
          job.scenario->name, job.scenario->cost_hint_ms_per_seed,
          total_seeds);
      if (est > static_cast<double>(job.deadline_ms)) {
        for (const JobPart& p : job.parts) {
          counters_.rejected_overloaded.fetch_add(1,
                                                  std::memory_order_relaxed);
          Reply r;
          r.ticket = p.ticket;
          r.status = ReplyStatus::kOverloaded;
          r.scenario = job.scenario->name;
          r.scale = job.scale;
          r.detail = "deadline infeasible under current load";
          publish(p.ticket, std::move(r));
        }
        continue;
      }
    }
    job.admit_ns = wall_now_ns();
    const std::size_t parts = job.parts.size();
    const std::string scenario_name = job.scenario->name;
    const Scale scale = job.scale;
    // Keep part metadata for the reject path: try_push moves the job.
    std::vector<std::uint64_t> part_tickets;
    part_tickets.reserve(parts);
    for (const JobPart& p : job.parts) part_tickets.push_back(p.ticket);
    if (queue_.try_push(std::move(job))) {
      counters_.accepted.fetch_add(parts, std::memory_order_relaxed);
    } else {
      for (const std::uint64_t t : part_tickets) {
        counters_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
        Reply r;
        r.ticket = t;
        r.status = ReplyStatus::kOverloaded;
        r.scenario = scenario_name;
        r.scale = scale;
        r.detail = "request queue is full";
        publish(t, std::move(r));
      }
    }
  }
  return tickets;
}

Reply Server::make_reject(std::uint64_t ticket, const Request& req,
                          ReplyStatus status, std::string detail) const {
  Reply r;
  r.ticket = ticket;
  r.status = status;
  r.scenario = req.scenario;
  r.scale = Scale::kFull;
  r.detail = std::move(detail);
  return r;
}

double Server::cost_estimate_ms(const std::string& scenario, double cost_hint,
                                std::size_t seeds) const {
  double per_seed = cost_hint;
  double job_ms = 0.0;
  {
    core::MutexLock lock(ewma_mu_);
    const auto it = ewma_ms_per_seed_.find(scenario);
    if (it != ewma_ms_per_seed_.end()) {
      per_seed = std::max(per_seed, it->second);
    }
    job_ms = ewma_job_ms_;
  }
  // Own cost plus the estimated wait behind everything already queued.
  const double wait_ms = job_ms * static_cast<double>(queue_.size()) /
                         static_cast<double>(config_.workers);
  return per_seed * static_cast<double>(seeds) + wait_ms;
}

void Server::publish(std::uint64_t ticket, Reply reply) {
  core::MutexLock lock(reply_mu_);
  outstanding_.erase(ticket);
  ready_[ticket] = std::move(reply);
  reply_ready_.notify_all();
}

Reply Server::wait(std::uint64_t ticket) {
  core::MutexLock lock(reply_mu_);
  for (;;) {
    const auto it = ready_.find(ticket);
    if (it != ready_.end()) {
      Reply r = std::move(it->second);
      ready_.erase(it);
      return r;
    }
    if (outstanding_.find(ticket) == outstanding_.end()) {
      throw std::invalid_argument(
          "avsec-serve: unknown or already-redeemed ticket");
    }
    reply_ready_.wait(reply_mu_);
  }
}

bool Server::try_wait(std::uint64_t ticket, Reply& out) {
  core::MutexLock lock(reply_mu_);
  const auto it = ready_.find(ticket);
  if (it == ready_.end()) return false;
  out = std::move(it->second);
  ready_.erase(it);
  return true;
}

void Server::run_seed(WorkerSlot& slot, const Job& job,
                      std::int64_t remaining_ms, SeedOutcome& out,
                      std::string* trace_dump) {
  fault::SupervisionConfig sup = config_.supervision;
  sup.max_events = job.max_events;
  sup.wall_deadline_ms = remaining_ms > 0 ? remaining_ms : 0;
  // Every attempt runs on the slot's warm context, reset first: its
  // scheduler keeps its vectors' capacity, and traced seeds use the slot
  // recorder instead of a ~1 MiB ring per seed.
  fault::SupervisedRun r = fault::run_supervised(
      sup, slot.ctx, trace_dump != nullptr, [&](fault::SimContext& ctx) {
        return job.scenario->run_ctx(ctx, out.seed, job.scale);
      });
  out.status = r.status;
  out.attempts = r.attempts;
  out.error = std::move(r.error);
  out.metrics = std::move(r.metrics);
  if (trace_dump != nullptr && !fault::is_quarantined(out.status)) {
    *trace_dump = obs::text_dump(slot.ctx.recorder());
  }
}

void Server::execute_job(WorkerSlot& slot, Job& job) {
  const std::uint32_t worker_id = slot.id;
  const auto elapsed_ms = [&job] {
    return (wall_now_ns() - job.admit_ns) / 1'000'000;
  };

  // Deadline died while the job sat in the queue: answer without wasting
  // the work.
  if (job.deadline_ms > 0 && elapsed_ms() >= job.deadline_ms) {
    for (const JobPart& p : job.parts) {
      counters_.expired.fetch_add(1, std::memory_order_relaxed);
      Reply r;
      r.ticket = p.ticket;
      r.status = ReplyStatus::kExpired;
      r.scenario = job.scenario->name;
      r.scale = job.scale;
      r.detail = "deadline expired while queued";
      r.latency_ms = static_cast<double>(elapsed_ms());
      r.worker = worker_id;
      publish(p.ticket, std::move(r));
    }
    return;
  }

  std::size_t total_seeds = 0;
  const std::int64_t job_start_ns = wall_now_ns();
  for (JobPart& part : job.parts) {
    Reply r;
    r.ticket = part.ticket;
    r.scenario = job.scenario->name;
    r.scale = job.scale;
    r.worker = worker_id;
    r.seeds.reserve(part.seeds.size());
    bool any_quarantined = false;
    for (std::size_t si = 0; si < part.seeds.size(); ++si) {
      slot.heartbeat.fetch_add(1, std::memory_order_relaxed);
      SeedOutcome out;
      out.seed = part.seeds[si];
      std::int64_t remaining_ms = 0;
      if (job.deadline_ms > 0) {
        remaining_ms = job.deadline_ms - elapsed_ms();
        if (remaining_ms <= 0) {
          // Budget died mid-job: the remaining seeds become structured
          // timeouts, never silent omissions.
          out.status = fault::RunStatus::kTimedOut;
          out.error = "deadline expired before this seed's attempt";
          out.attempts = 0;
          any_quarantined = true;
          r.seeds.push_back(std::move(out));
          continue;
        }
      }
      const bool want_trace = si == 0 && part.trace;
      run_seed(slot, job, remaining_ms, out, want_trace ? &r.trace : nullptr);
      if (out.attempts > 1) {
        counters_.runs_retried.fetch_add(1, std::memory_order_relaxed);
      }
      any_quarantined |= fault::is_quarantined(out.status);
      // Fold in seed order through core::Accumulator: the reply's
      // aggregate is bit-stable no matter which worker ran the job.
      for (const auto& [name, value] : out.metrics) {
        r.aggregate[name].add(value);
      }
      r.seeds.push_back(std::move(out));
      ++total_seeds;
    }
    if (any_quarantined) {
      r.status = ReplyStatus::kQuarantined;
      counters_.quarantined.fetch_add(1, std::memory_order_relaxed);
    } else if (job.scale == Scale::kSmoke) {
      r.status = ReplyStatus::kDegraded;
      counters_.degraded.fetch_add(1, std::memory_order_relaxed);
    } else {
      r.status = ReplyStatus::kOk;
      counters_.completed.fetch_add(1, std::memory_order_relaxed);
    }
    r.latency_ms =
        static_cast<double>(wall_now_ns() - job.admit_ns) / 1e6;
    publish(part.ticket, std::move(r));
  }

  // Feed the load-aware admission estimate.
  if (total_seeds > 0) {
    const double job_ms =
        static_cast<double>(wall_now_ns() - job_start_ns) / 1e6;
    const double per_seed = job_ms / static_cast<double>(total_seeds);
    core::MutexLock lock(ewma_mu_);
    const double a = kEwmaAlpha;
    auto [it, fresh] =
        ewma_ms_per_seed_.try_emplace(job.scenario->name, per_seed);
    if (!fresh) it->second = a * per_seed + (1.0 - a) * it->second;
    ewma_job_ms_ = ewma_job_ms_ <= 0.0 ? job_ms
                                       : a * job_ms + (1.0 - a) * ewma_job_ms_;
  }
}

void Server::worker_loop(WorkerSlot* slot) {
  Job job;
  while (!slot->abandoned.load(std::memory_order_relaxed) &&
         queue_.pop(job)) {
    slot->busy.store(true, std::memory_order_relaxed);
    slot->heartbeat.fetch_add(1, std::memory_order_relaxed);
    execute_job(*slot, job);
    slot->busy.store(false, std::memory_order_relaxed);
    slot->heartbeat.fetch_add(1, std::memory_order_relaxed);
    job = Job{};
  }
}

void Server::supervisor_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.supervisor_poll_ms));
    ladder_.observe(static_cast<double>(queue_.size()) /
                    static_cast<double>(config_.queue_capacity));
    std::size_t wedged = 0;
    {
      core::MutexLock lock(slots_mu_);
      for (WorkerSlot& slot : slots_) {
        if (slot.abandoned.load(std::memory_order_relaxed)) continue;
        const std::uint64_t hb =
            slot.heartbeat.load(std::memory_order_relaxed);
        if (!slot.busy.load(std::memory_order_relaxed) ||
            hb != slot.seen_heartbeat) {
          slot.stalled_polls = 0;
        } else if (++slot.stalled_polls >= config_.worker_stall_polls) {
          // Wedged: abandon the slot and spawn a replacement so the pool
          // keeps draining. The stuck thread is joined at shutdown (its
          // RunGuard budgets bound how long it runs).
          slot.abandoned.store(true, std::memory_order_relaxed);
          counters_.workers_replaced.fetch_add(1, std::memory_order_relaxed);
          ++wedged;
        }
        slot.seen_heartbeat = hb;
      }
    }
    // Outside slots_mu_: spawn_worker() takes it.
    for (; wedged > 0; --wedged) spawn_worker();
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = counters_.submitted.load(std::memory_order_relaxed);
  s.accepted = counters_.accepted.load(std::memory_order_relaxed);
  s.completed = counters_.completed.load(std::memory_order_relaxed);
  s.degraded = counters_.degraded.load(std::memory_order_relaxed);
  s.quarantined = counters_.quarantined.load(std::memory_order_relaxed);
  s.expired = counters_.expired.load(std::memory_order_relaxed);
  s.rejected_unknown =
      counters_.rejected_unknown.load(std::memory_order_relaxed);
  s.rejected_infeasible =
      counters_.rejected_infeasible.load(std::memory_order_relaxed);
  s.rejected_overloaded =
      counters_.rejected_overloaded.load(std::memory_order_relaxed);
  s.shed = counters_.shed.load(std::memory_order_relaxed);
  s.runs_retried = counters_.runs_retried.load(std::memory_order_relaxed);
  s.workers_replaced =
      counters_.workers_replaced.load(std::memory_order_relaxed);
  s.ladder_escalations = ladder_.escalations();
  s.ladder_recoveries = ladder_.recoveries();
  return s;
}

void Server::shutdown() {
  if (shut_down_.exchange(true)) return;
  stopping_.store(true, std::memory_order_relaxed);
  if (supervisor_.joinable()) supervisor_.join();
  queue_.close();  // workers drain queued jobs, then exit
  core::MutexLock lock(slots_mu_);
  for (WorkerSlot& slot : slots_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
}

Reply ServeClient::call(Request req) {
  return server_.wait(server_.submit(std::move(req)));
}

std::vector<Reply> ServeClient::call_batch(std::vector<Request> reqs) {
  const std::vector<std::uint64_t> tickets =
      server_.submit_batch(std::move(reqs));
  std::vector<Reply> replies;
  replies.reserve(tickets.size());
  for (const std::uint64_t t : tickets) replies.push_back(server_.wait(t));
  return replies;
}

}  // namespace avsec::serve
