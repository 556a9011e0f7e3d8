// Golden replies for the built-in serve catalog: the rendered bytes of a
// fixed request stream are committed here and asserted byte for byte, so a
// change to any built-in scenario body, the run path or the reply renderer
// that moves a single byte fails this test. The worker-count identity test
// in server_test.cpp compares two renderings of the same build; this one
// compares against the bytes of an earlier build.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "avsec/serve/request.hpp"
#include "avsec/serve/server.hpp"

namespace {

using namespace avsec::serve;

// One reply line per request below, in request order.
const char* const kGolden[] = {
    R"({"id":0,"status":"ok","scenario":"ivn-can","scale":"full","detail":")"
    R"(","seeds":[{"seed":1,"status":"passed","attempts":1,"metrics":{"bus_)"
    R"(off_events":1,"error_frames":94,"faults_applied":3,"feed_frames":61,)"
    R"("feed_up_at_end":1,"worst_feed_gap_ms":29.022108485}},{"seed":2,"sta)"
    R"(tus":"passed","attempts":1,"metrics":{"bus_off_events":0,"error_fram)"
    R"(es":0,"faults_applied":3,"feed_frames":61,"feed_up_at_end":1,"worst_)"
    R"(feed_gap_ms":10}},{"seed":3,"status":"passed","attempts":1,"metrics")"
    R"(:{"bus_off_events":0,"error_frames":26,"faults_applied":3,"feed_fram)"
    R"(es":61,"feed_up_at_end":1,"worst_feed_gap_ms":41.565298282999997}}],)"
    R"("aggregate":{"bus_off_events":{"n":3,"mean":0.33333333333333337,"min)"
    R"(":0,"max":1},"error_frames":{"n":3,"mean":40,"min":0,"max":94},"faul)"
    R"(ts_applied":{"n":3,"mean":3,"min":3,"max":3},"feed_frames":{"n":3,"m)"
    R"(ean":61,"min":61,"max":61},"feed_up_at_end":{"n":3,"mean":1,"min":1,)"
    R"("max":1},"worst_feed_gap_ms":{"n":3,"mean":26.862468922666668,"min":)"
    R"(10,"max":41.565298282999997}}})",
    R"({"id":1,"status":"ok","scenario":"heartbeat-net","scale":"full","det)"
    R"(ail":"","seeds":[{"seed":7,"status":"passed","attempts":1,"metrics":)"
    R"({"downs":1,"misses":7,"recoveries":1,"victim_alive_at_end":1}}],"agg)"
    R"(regate":{"downs":{"n":1,"mean":1,"min":1,"max":1},"misses":{"n":1,"m)"
    R"(ean":7,"min":7,"max":7},"recoveries":{"n":1,"mean":1,"min":1,"max":1)"
    R"(},"victim_alive_at_end":{"n":1,"mean":1,"min":1,"max":1}}})",
    R"({"id":2,"status":"quarantined","scenario":"poison-crash","scale":"fu)"
    R"(ll","detail":"","seeds":[{"seed":5,"status":"crashed","attempts":2,")"
    R"(error":"poisoned scenario (seed 5): deterministic crash","metrics":{)"
    R"(}}],"aggregate":{}})",
    R"({"id":3,"status":"ok","scenario":"secure-uplink","scale":"full","det)"
    R"(ail":"","seeds":[{"seed":1,"status":"passed","attempts":1,"metrics":)"
    R"({"datagrams_dropped":0,"datagrams_sent":14,"faults_applied":3,"recon)"
    R"(nects":0,"session_up_at_end":1}}],"aggregate":{"datagrams_dropped":{)"
    R"("n":1,"mean":0,"min":0,"max":0},"datagrams_sent":{"n":1,"mean":14,"m)"
    R"(in":14,"max":14},"faults_applied":{"n":1,"mean":3,"min":3,"max":3},")"
    R"(reconnects":{"n":1,"mean":0,"min":0,"max":0},"session_up_at_end":{"n)"
    R"(":1,"mean":1,"min":1,"max":1}}})",
    R"({"id":4,"status":"quarantined","scenario":"busy-loop","scale":"full")"
    R"(,"detail":"","seeds":[{"seed":1,"status":"budget_exhausted","attempt)"
    R"(s":2,"error":"sim event budget exhausted after 2000000 dispatches",")"
    R"(metrics":{}}],"aggregate":{}})",
};

std::vector<Request> golden_stream() {
  return {{"ivn-can", {1, 2, 3}},
          {"heartbeat-net", {7}},
          {"poison-crash", {5}},
          {"secure-uplink", {1}},
          {"busy-loop", {1}}};
}

TEST(ServeGolden, BuiltinCatalogRepliesMatchCommittedBytes) {
  for (const std::size_t workers : {1u, 2u}) {
    ServerConfig config;
    config.workers = workers;
    config.ladder.escalate_polls = 1'000'000;  // always full scale
    Server server(ScenarioRegistry::builtin(), config);
    ServeClient client(server);
    const std::vector<Reply> replies = client.call_batch(golden_stream());
    ASSERT_EQ(replies.size(), std::size(kGolden));
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(render_reply(replies[i]), kGolden[i])
          << "request " << i << ", " << workers << " workers";
    }
  }
}

}  // namespace
