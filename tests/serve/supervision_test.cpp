// Worker supervision and the load-shedding ladder, end to end: a wedged
// worker is replaced so the pool keeps draining, and sustained saturation
// walks the ladder to SHED and back.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "avsec/scenario/catalog.hpp"
#include "avsec/serve/server.hpp"

namespace {

using namespace avsec::serve;
using avsec::scenario::serve_catalog;
namespace fault = avsec::fault;

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

// Polls `pred` until true or ~5 s elapse (sleep count, not wall reads,
// so the test file stays R1-clean).
template <class Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(ServerSupervision, WedgedWorkerIsReplacedAndThePoolKeepsDraining) {
  ScenarioRegistry reg = serve_catalog();
  reg.add(sleeper_scenario("wedge", 400));
  ServerConfig config;
  config.workers = 1;
  config.supervisor_poll_ms = 5;
  config.worker_stall_polls = 4;  // ~20 ms of silence = wedged
  config.ladder.escalate_polls = 1'000'000;
  Server server(std::move(reg), config);

  const std::uint64_t wedged = server.submit({"wedge", {0}});
  // The sleeper holds the only worker far past the stall budget; the
  // supervisor must declare it wedged and spawn a replacement that picks
  // up the next request while the sleeper is still asleep.
  const std::uint64_t next = server.submit({"ivn-can", {1}});
  EXPECT_EQ(server.wait(next).status, ReplyStatus::kOk);
  ASSERT_TRUE(eventually(
      [&server] { return server.stats().workers_replaced >= 1; }));
  // The wedged run still completes and publishes — replacement abandons
  // the slot, it never discards the work.
  EXPECT_EQ(server.wait(wedged).status, ReplyStatus::kOk);
  server.shutdown();  // must join the abandoned worker cleanly
}

TEST(ServerSupervision, IdleWorkersAreNeverDeclaredWedged) {
  ServerConfig config;
  config.workers = 2;
  config.supervisor_poll_ms = 2;
  config.worker_stall_polls = 3;
  Server server(serve_catalog(), config);
  // Plenty of polls with both workers idle: no false positives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(server.stats().workers_replaced, 0u);
}

TEST(ServerLadder, SustainedSaturationShedsThenRecovers) {
  ScenarioRegistry reg = serve_catalog();
  reg.add(sleeper_scenario("slow", 100));
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.supervisor_poll_ms = 5;
  config.worker_stall_polls = 10'000;
  config.ladder.degrade_ratio = 0.4;
  config.ladder.shed_ratio = 0.9;
  config.ladder.escalate_polls = 2;
  config.ladder.recover_polls = 2;
  Server server(std::move(reg), config);

  // Hold the worker and keep the queue full: occupancy pinned at 1.0.
  std::vector<std::uint64_t> tickets;
  tickets.push_back(server.submit({"slow", {0}}));
  ASSERT_TRUE(eventually([&server] { return server.queue_depth() == 0; }));
  tickets.push_back(server.submit({"slow", {1}}));
  tickets.push_back(server.submit({"slow", {2}}));
  ASSERT_EQ(server.queue_depth(), 2u);

  // Keep the queue topped up until the ladder reaches SHED.
  ASSERT_TRUE(eventually([&server, &tickets] {
    if (server.queue_depth() < server.config().queue_capacity) {
      tickets.push_back(server.submit({"slow", {9}}));
    }
    return server.load_state() == LoadState::kShed;
  }));
  EXPECT_GE(server.stats().ladder_escalations, 2u);

  // A request hitting the SHED rung gets a structured refusal.
  const std::uint64_t shed = server.submit({"ivn-can", {1}});
  const Reply r = server.wait(shed);
  EXPECT_EQ(r.status, ReplyStatus::kOverloaded);
  EXPECT_EQ(r.detail, "load shed: service is saturated");
  EXPECT_GE(server.stats().shed, 1u);

  // Stop offering load: the backlog drains and the ladder steps back to
  // NOMINAL (recovery is slower than escalation, but bounded).
  for (const std::uint64_t t : tickets) {
    const Reply reply = server.wait(t);
    EXPECT_TRUE(reply.status == ReplyStatus::kOk ||
                reply.status == ReplyStatus::kDegraded ||
                reply.status == ReplyStatus::kOverloaded)
        << static_cast<int>(reply.status);
  }
  ASSERT_TRUE(eventually(
      [&server] { return server.load_state() == LoadState::kNominal; }));
  EXPECT_GE(server.stats().ladder_recoveries, 2u);
}

}  // namespace
