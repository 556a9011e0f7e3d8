// serve::Server: admission control, structured refusals, quarantine,
// deadlines, batching, and the cross-worker determinism contract.
#include "avsec/serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/obs/trace.hpp"
#include "avsec/scenario/catalog.hpp"
#include "avsec/serve/request.hpp"

namespace {

using namespace avsec::serve;
using avsec::scenario::serve_catalog;
namespace core = avsec::core;
namespace fault = avsec::fault;

// Test servers freeze the load ladder (escalation takes a million polls)
// unless a test is explicitly about it, so sleeping scenarios can fill the
// queue without flipping admissions to smoke scale mid-test.
ServerConfig quiet_config() {
  ServerConfig c;
  c.supervisor_poll_ms = 5;
  c.ladder.escalate_polls = 1'000'000;
  c.worker_stall_polls = 10'000;
  return c;
}

Scenario sleeper_scenario(const std::string& name, int sleep_ms) {
  Scenario s;
  s.name = name;
  s.description = "test: holds a worker for a fixed wall time";
  s.run_ctx = [sleep_ms](fault::SimContext&, std::uint64_t, Scale) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    fault::Metrics m;
    m["slept"] = 1.0;
    return m;
  };
  s.cost_hint_ms_per_seed = 0.0;
  s.default_max_events = 0;
  return s;
}

TEST(ServerAdmission, UnknownScenarioIsRejected) {
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  const Reply r = client.call({"no-such-scenario", {1}});
  EXPECT_EQ(r.status, ReplyStatus::kRejected);
  EXPECT_NE(r.detail.find("unknown scenario"), std::string::npos);
  EXPECT_EQ(server.stats().rejected_unknown, 1u);
}

TEST(ServerAdmission, EmptySeedListIsRejected) {
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  const Reply r = client.call({"ivn-can", {}});
  EXPECT_EQ(r.status, ReplyStatus::kRejected);
  EXPECT_NE(r.detail.find("no seeds"), std::string::npos);
}

TEST(ServerAdmission, DeadlineBelowStaticCostFloorIsInfeasible) {
  // ivn-can's cost hint is 2.5 ms/seed: 3 seeds need >= 7.5 ms, so a 1 ms
  // deadline is refused as a pure function of the request — no load
  // estimate involved, identical at any worker count.
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  Request req;
  req.scenario = "ivn-can";
  req.seeds = {1, 2, 3};
  req.deadline_ms = 1;
  const Reply r = client.call(std::move(req));
  EXPECT_EQ(r.status, ReplyStatus::kInfeasible);
  EXPECT_EQ(r.detail, "deadline below the scenario's static cost floor");
  EXPECT_EQ(server.stats().rejected_infeasible, 1u);
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(ServerExecution, PoisonSeedIsQuarantinedAfterRetries) {
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  const Reply r = client.call({"poison-crash", {5}});
  EXPECT_EQ(r.status, ReplyStatus::kQuarantined);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].status, fault::RunStatus::kCrashed);
  // Default retry budget is 1 retry: 2 attempts, then quarantine.
  EXPECT_EQ(r.seeds[0].attempts, 2u);
  EXPECT_NE(r.seeds[0].error.find("poisoned"), std::string::npos);
  EXPECT_EQ(server.stats().quarantined, 1u);
  EXPECT_EQ(server.stats().runs_retried, 1u);
}

TEST(ServerExecution, EventBudgetBoundsARunawayRun) {
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  const Reply r = client.call({"busy-loop", {1}});
  EXPECT_EQ(r.status, ReplyStatus::kQuarantined);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].status, fault::RunStatus::kBudgetExhausted);
}

TEST(ServerExecution, RequestMaxEventsOverridesScenarioDefault) {
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  Request req;
  req.scenario = "busy-loop";
  req.seeds = {1};
  req.max_events = 1000;
  const Reply r = client.call(std::move(req));
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].status, fault::RunStatus::kBudgetExhausted);
  EXPECT_NE(r.seeds[0].error.find("1000"), std::string::npos);
}

TEST(ServerExecution, FlakyRunRetriesThenSucceeds) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  ScenarioRegistry reg;
  Scenario flaky;
  flaky.name = "flaky";
  flaky.description = "fails its first attempt only";
  flaky.run_ctx = [calls](fault::SimContext&, std::uint64_t, Scale) {
    if (calls->fetch_add(1) == 0) {
      throw std::runtime_error("transient failure");
    }
    fault::Metrics m;
    m["ok"] = 1.0;
    return m;
  };
  flaky.cost_hint_ms_per_seed = 0.0;
  flaky.default_max_events = 0;
  reg.add(std::move(flaky));

  Server server(std::move(reg), quiet_config());
  ServeClient client(server);
  const Reply r = client.call({"flaky", {1}});
  EXPECT_EQ(r.status, ReplyStatus::kOk);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].status, fault::RunStatus::kPassed);
  EXPECT_EQ(r.seeds[0].attempts, 2u);
  EXPECT_EQ(server.stats().runs_retried, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(ServerExecution, MidRunWallDeadlineChainsOntoRunGuard) {
  // Each sim event burns ~5 ms of wall time, so the 30 ms request deadline
  // trips the RunGuard mid-run: structured kTimedOut, never a hang.
  ScenarioRegistry reg;
  Scenario crawler;
  crawler.name = "crawler";
  crawler.description = "events that burn wall time";
  crawler.run_ctx = [](fault::SimContext& ctx, std::uint64_t, Scale) {
    core::Scheduler& sim = ctx.sim();
    std::function<void()> step = [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      sim.schedule_in(core::microseconds(10), step);
    };
    sim.schedule_at(0, step);
    sim.run_until(core::seconds(1));
    return fault::Metrics{};
  };
  crawler.cost_hint_ms_per_seed = 0.1;
  crawler.default_max_events = 0;
  reg.add(std::move(crawler));

  Server server(std::move(reg), quiet_config());
  ServeClient client(server);
  Request req;
  req.scenario = "crawler";
  req.seeds = {1};
  req.deadline_ms = 30;
  const Reply r = client.call(std::move(req));
  EXPECT_EQ(r.status, ReplyStatus::kQuarantined);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0].status, fault::RunStatus::kTimedOut);
}

TEST(ServerExecution, EverySeedAndRetryStartsFromAResetContext) {
  // Each attempt leaves the slot's scheduler dirty — clock advanced,
  // events dispatched, one event still pending — and each seed's first
  // attempt throws. The retry and every later seed on the slot must still
  // find the context exactly as freshly built, traced or not.
  auto mu = std::make_shared<std::mutex>();
  auto thrown = std::make_shared<std::set<std::uint64_t>>();
  auto dirty = std::make_shared<std::atomic<int>>(0);
  auto attempts = std::make_shared<std::atomic<int>>(0);
  Scenario messy;
  messy.name = "messy";
  messy.description = "leaves work pending and fails its first attempt";
  messy.run_ctx = [=](fault::SimContext& ctx, std::uint64_t seed, Scale) {
    core::Scheduler& sim = ctx.sim();
    attempts->fetch_add(1);
    if (sim.now() != 0 || sim.pending() != 0 || sim.dispatched() != 0 ||
        ctx.recorder().size() != 0) {
      dirty->fetch_add(1);
    }
    AVSEC_TRACE_INSTANT(avsec::obs::Category::kFault, "attempt", 0, 0, 0);
    sim.schedule_at(core::microseconds(5), [] {});
    sim.schedule_at(core::microseconds(10), [] {});
    sim.run_until(core::microseconds(7));
    {
      const std::lock_guard<std::mutex> lock(*mu);
      if (thrown->insert(seed).second) {
        throw std::runtime_error("first try");
      }
    }
    return fault::Metrics{{"ok", 1.0}};
  };
  messy.cost_hint_ms_per_seed = 0.0;
  messy.default_max_events = 0;

  for (const std::size_t workers : {1u, 2u}) {
    thrown->clear();
    dirty->store(0);
    attempts->store(0);
    ScenarioRegistry reg;
    reg.add(messy);
    ServerConfig config = quiet_config();
    config.workers = workers;
    config.supervision.retry.initial_timeout = 0;
    Server server(std::move(reg), config);
    ServeClient client(server);
    Request traced;
    traced.scenario = "messy";
    traced.seeds = {4, 5};
    traced.trace = true;
    std::vector<Request> batch;
    batch.push_back({"messy", {1, 2, 3}});
    batch.push_back(std::move(traced));
    for (const Reply& r : client.call_batch(std::move(batch))) {
      EXPECT_EQ(r.status, ReplyStatus::kOk) << workers << " workers";
      for (const auto& seed : r.seeds) EXPECT_EQ(seed.attempts, 2u);
    }
    EXPECT_EQ(attempts->load(), 10) << workers << " workers";
    EXPECT_EQ(dirty->load(), 0) << workers << " workers";
  }
}

TEST(ServerDeterminism, RenderedRepliesAreByteIdenticalAcrossWorkerCounts) {
  std::vector<Request> stream;
  stream.push_back({"ivn-can", {1, 2, 3}});
  stream.push_back({"heartbeat-net", {7}});
  stream.push_back({"poison-crash", {5}});
  Request infeasible;
  infeasible.scenario = "ivn-can";
  infeasible.seeds = {9, 10, 11};
  infeasible.deadline_ms = 1;
  stream.push_back(infeasible);
  stream.push_back({"no-such-scenario", {1}});

  std::vector<std::string> rendered;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ServerConfig config = quiet_config();
    config.workers = workers;
    Server server(serve_catalog(), config);
    ServeClient client(server);
    std::string out;
    for (const Reply& r : client.call_batch(stream)) {
      out += render_reply(r);
      out += '\n';
    }
    rendered.push_back(std::move(out));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
}

TEST(ServerBatching, SameScenarioRequestsCoalesceIntoOneQueueSlot) {
  // Capacity-1 queue, worker held busy: three same-scenario requests can
  // only all be admitted if they coalesce into a single queued job.
  ScenarioRegistry reg = serve_catalog();
  reg.add(sleeper_scenario("blocker", 200));
  ServerConfig config = quiet_config();
  config.workers = 1;
  config.queue_capacity = 1;
  Server server(std::move(reg), config);

  const std::uint64_t blocker = server.submit({"blocker", {0}});
  while (server.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<Request> batch;
  batch.push_back({"ivn-can", {1}});
  batch.push_back({"ivn-can", {2}});
  batch.push_back({"ivn-can", {3}});
  const std::vector<std::uint64_t> tickets =
      server.submit_batch(std::move(batch));
  EXPECT_EQ(server.stats().rejected_overloaded, 0u);
  EXPECT_EQ(server.stats().accepted, 4u);
  for (const std::uint64_t t : tickets) {
    EXPECT_EQ(server.wait(t).status, ReplyStatus::kOk);
  }
  EXPECT_EQ(server.wait(blocker).status, ReplyStatus::kOk);
}

TEST(ServerOverload, FullQueueYieldsStructuredOverloadReply) {
  ScenarioRegistry reg = serve_catalog();
  reg.add(sleeper_scenario("blocker", 200));
  ServerConfig config = quiet_config();
  config.workers = 1;
  config.queue_capacity = 1;
  Server server(std::move(reg), config);

  const std::uint64_t t1 = server.submit({"blocker", {0}});
  while (server.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t t2 = server.submit({"blocker", {1}});  // fills queue
  ASSERT_EQ(server.queue_depth(), 1u);
  const std::uint64_t t3 = server.submit({"ivn-can", {1}});
  const Reply rejected = server.wait(t3);  // already complete
  EXPECT_EQ(rejected.status, ReplyStatus::kOverloaded);
  EXPECT_EQ(rejected.detail, "request queue is full");
  EXPECT_GE(server.stats().rejected_overloaded, 1u);
  EXPECT_EQ(server.wait(t1).status, ReplyStatus::kOk);
  EXPECT_EQ(server.wait(t2).status, ReplyStatus::kOk);
}

TEST(ServerDeadlines, DeadlineExpiredWhileQueuedIsAnsweredWithoutRunning) {
  ScenarioRegistry reg = serve_catalog();
  reg.add(sleeper_scenario("blocker", 400));
  ServerConfig config = quiet_config();
  config.workers = 1;
  Server server(std::move(reg), config);

  const std::uint64_t blocker = server.submit({"blocker", {0}});
  while (server.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Request req;
  req.scenario = "ivn-can";
  req.seeds = {1};
  req.deadline_ms = 100;  // above the 2.5 ms floor, below the 400 ms block
  const std::uint64_t t = server.submit(std::move(req));
  const Reply r = server.wait(t);
  EXPECT_EQ(r.status, ReplyStatus::kExpired);
  EXPECT_EQ(r.detail, "deadline expired while queued");
  EXPECT_TRUE(r.seeds.empty());  // the work was never attempted
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_EQ(server.wait(blocker).status, ReplyStatus::kOk);
}

TEST(ServerTickets, RedeemOnceAndUnknownTicketsThrow)
{
  Server server(serve_catalog(), quiet_config());
  const std::uint64_t t = server.submit({"heartbeat-net", {1}});
  EXPECT_EQ(server.wait(t).status, ReplyStatus::kOk);
  EXPECT_THROW(server.wait(t), std::invalid_argument);     // double redeem
  EXPECT_THROW(server.wait(t + 999), std::invalid_argument);  // never issued
}

TEST(ServerTickets, TryWaitIsNonBlocking) {
  ScenarioRegistry reg;
  reg.add(sleeper_scenario("slow", 150));
  Server server(std::move(reg), quiet_config());
  const std::uint64_t t = server.submit({"slow", {1}});
  Reply r;
  // Either not ready yet (likely) or already done; both are legal — the
  // contract is only that try_wait never blocks and eventually succeeds.
  while (!server.try_wait(t, r)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(r.status, ReplyStatus::kOk);
}

TEST(ServerShutdown, DrainsQueuedWorkAndRefusesNewWork) {
  ScenarioRegistry reg = serve_catalog();
  reg.add(sleeper_scenario("blocker", 100));
  ServerConfig config = quiet_config();
  config.workers = 1;
  Server server(std::move(reg), config);
  const std::uint64_t t1 = server.submit({"blocker", {0}});
  const std::uint64_t t2 = server.submit({"ivn-can", {1}});
  server.shutdown();  // must drain both, not drop the queued job
  EXPECT_EQ(server.wait(t1).status, ReplyStatus::kOk);
  EXPECT_EQ(server.wait(t2).status, ReplyStatus::kOk);
  const std::uint64_t t3 = server.submit({"ivn-can", {2}});
  const Reply r = server.wait(t3);
  EXPECT_EQ(r.status, ReplyStatus::kOverloaded);
  EXPECT_EQ(r.detail, "server is shutting down");
}

TEST(ServerStatsAccounting, EveryTicketLandsInExactlyOneBucket) {
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  std::vector<Request> batch;
  batch.push_back({"ivn-can", {1}});
  batch.push_back({"poison-crash", {2}});
  batch.push_back({"no-such", {3}});
  Request infeasible;
  infeasible.scenario = "ivn-can";
  infeasible.seeds = {4, 5};
  infeasible.deadline_ms = 1;
  batch.push_back(infeasible);
  client.call_batch(std::move(batch));
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_EQ(s.rejected_unknown, 1u);
  EXPECT_EQ(s.rejected_infeasible, 1u);
  EXPECT_EQ(s.submitted, s.accepted + s.rejected_unknown +
                             s.rejected_infeasible + s.rejected_overloaded +
                             s.shed);
}

TEST(ServerTracing, RequestedTraceIsAttachedAndRendered) {
  Server server(serve_catalog(), quiet_config());
  ServeClient client(server);
  Request req;
  req.scenario = "ivn-can";
  req.seeds = {7};
  req.trace = true;
  const Reply r = client.call(std::move(req));
  EXPECT_EQ(r.status, ReplyStatus::kOk);
  EXPECT_FALSE(r.trace.empty());
  EXPECT_NE(render_reply(r).find("\"trace\":"), std::string::npos);
}

}  // namespace
