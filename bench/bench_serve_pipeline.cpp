// bench_serve_pipeline: sustained throughput and tail latency of the
// avsec-serve request pipeline across offered-load steps.
//
// Calibrates the sustainable request rate with a sequential warm-up, then
// offers 0.5x / 1x / 2x / 4x that rate in an open loop (paced submission,
// post-hoc redemption — latency is measured server-side from admission to
// publish, so redeeming late does not distort it). Reports per step:
// achieved req/sec, p50/p99 latency of served replies, and the
// reject/shed fractions — the robustness claim is that under >= 2x
// overload the service answers with structured rejects while the p99 of
// what it does accept stays inside the deadline.
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "avsec/core/stats.hpp"
#include "avsec/scenario/catalog.hpp"
#include "avsec/serve/serve.hpp"
#include "harness.hpp"

namespace {

using namespace avsec;

serve::Request make_request(std::uint64_t seed, std::int64_t deadline_ms) {
  serve::Request req;
  req.scenario = "heartbeat-net";
  req.seeds = {seed};
  req.deadline_ms = deadline_ms;
  return req;
}

struct StepOutcome {
  double wall_s = 0.0;
  std::uint64_t served = 0;    // kOk + kDegraded
  std::uint64_t degraded = 0;
  std::uint64_t refused = 0;   // kOverloaded (queue/load/shed)
  std::uint64_t expired = 0;
  std::uint64_t other = 0;
  core::Samples latency_ms;    // served replies only
};

StepOutcome run_step(serve::Server& server, double offered_rps,
                     std::size_t n_requests, std::int64_t deadline_ms) {
  using clock = std::chrono::steady_clock;
  StepOutcome out;
  std::vector<std::uint64_t> tickets;
  tickets.reserve(n_requests);
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / offered_rps));
  const auto start = clock::now();
  auto next = start;
  for (std::size_t i = 0; i < n_requests; ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    tickets.push_back(
        server.submit(make_request(/*seed=*/i + 1, deadline_ms)));
  }
  for (const std::uint64_t t : tickets) {
    const serve::Reply r = server.wait(t);
    switch (r.status) {
      case serve::ReplyStatus::kOk:
      case serve::ReplyStatus::kDegraded:
        ++out.served;
        if (r.status == serve::ReplyStatus::kDegraded) ++out.degraded;
        out.latency_ms.add(r.latency_ms);
        break;
      case serve::ReplyStatus::kOverloaded:
        ++out.refused;
        break;
      case serve::ReplyStatus::kExpired:
        ++out.expired;
        break;
      default:
        ++out.other;
    }
  }
  out.wall_s = std::chrono::duration<double>(clock::now() - start).count();
  return out;
}

void settle(serve::Server& server) {
  // Let the ladder walk back to NOMINAL between steps so each step starts
  // from the same service state.
  for (int i = 0; i < 1000; ++i) {
    if (server.queue_depth() == 0 &&
        server.load_state() == serve::LoadState::kNominal) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("serve_pipeline", argc, argv);

  serve::ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.supervisor_poll_ms = 5;
  serve::Server server(scenario::serve_catalog(), config);
  serve::ServeClient client(server);

  // ---- calibration: sequential latency -> sustainable offered rate ----
  const std::size_t calib_n = harness.iters(60, 12);
  core::Samples calib_ms;
  harness.time("calibrate_sequential", static_cast<double>(calib_n), [&] {
    for (std::size_t i = 0; i < calib_n; ++i) {
      const serve::Reply r = client.call(make_request(i + 1, 0));
      calib_ms.add(r.latency_ms);
    }
  });
  const double mean_ms = calib_ms.mean() > 0.01 ? calib_ms.mean() : 0.01;
  // A worker serves ~1000/mean_ms req/s; call 80% of the pool's ceiling
  // "sustainable" to leave headroom for pacing jitter.
  const double sustainable_rps =
      0.8 * static_cast<double>(config.workers) * 1000.0 / mean_ms;
  const std::int64_t deadline_ms =
      static_cast<std::int64_t>(mean_ms * 8.0) + 50;

  const double step_seconds = harness.smoke() ? 0.4 : 2.0;
  const double factors[] = {0.5, 1.0, 2.0, 4.0};
  for (const double factor : factors) {
    settle(server);
    const double offered = sustainable_rps * factor;
    const std::size_t n = static_cast<std::size_t>(offered * step_seconds) < 20
                              ? 20
                              : static_cast<std::size_t>(offered * step_seconds);
    const StepOutcome out = run_step(server, offered, n, deadline_ms);
    bench::Result r;
    char label[64];
    std::snprintf(label, sizeof(label), "offered_%.1fx", factor);
    r.name = label;
    r.ns = out.wall_s * 1e9;
    r.iters = static_cast<double>(out.served);
    r.extra["offered_rps"] = offered;
    r.extra["achieved_rps"] =
        out.wall_s > 0.0 ? static_cast<double>(out.served) / out.wall_s : 0.0;
    r.extra["requests"] = static_cast<double>(n);
    r.extra["served"] = static_cast<double>(out.served);
    r.extra["degraded"] = static_cast<double>(out.degraded);
    r.extra["refused"] = static_cast<double>(out.refused);
    r.extra["expired"] = static_cast<double>(out.expired);
    r.extra["reject_rate"] =
        static_cast<double>(out.refused + out.expired) / static_cast<double>(n);
    if (out.latency_ms.count() > 0) {
      r.extra["p50_ms"] = out.latency_ms.quantile(0.5);
      r.extra["p99_ms"] = out.latency_ms.quantile(0.99);
      r.extra["p99_within_deadline"] =
          out.latency_ms.quantile(0.99) <= static_cast<double>(deadline_ms)
              ? 1.0
              : 0.0;
    }
    harness.add(std::move(r));
  }

  const serve::ServerStats s = server.stats();
  bench::Result totals;
  totals.name = "totals";
  totals.ns = 1.0;
  totals.extra["submitted"] = static_cast<double>(s.submitted);
  totals.extra["accepted"] = static_cast<double>(s.accepted);
  totals.extra["rejected_overloaded"] = static_cast<double>(s.rejected_overloaded);
  totals.extra["shed"] = static_cast<double>(s.shed);
  totals.extra["expired"] = static_cast<double>(s.expired);
  totals.extra["ladder_escalations"] = static_cast<double>(s.ladder_escalations);
  totals.extra["ladder_recoveries"] = static_cast<double>(s.ladder_recoveries);
  totals.extra["deadline_ms"] = static_cast<double>(deadline_ms);
  totals.extra["sustainable_rps"] = sustainable_rps;
  harness.add(std::move(totals));

  server.shutdown();
  return 0;
}
