// Golden replies for the built-in serve catalog: the rendered bytes of a
// fixed request stream are committed here and asserted byte for byte, so a
// change to a built-in spec, the world it compiles to, the run path or the
// reply renderer that moves a single byte fails this test. The worker-count identity test
// in server_test.cpp compares two renderings of the same build; this one
// compares against the bytes of an earlier build.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "avsec/scenario/catalog.hpp"
#include "avsec/serve/request.hpp"
#include "avsec/serve/server.hpp"

namespace {

using namespace avsec::serve;
using avsec::scenario::serve_catalog;

// One reply line per request below, in request order.
const char* const kGolden[] = {
    R"({"id":0,"status":"ok","scenario":"ivn-can","scale":"full","detail":"",)"
    R"("seeds":[{"seed":1,"status":"passed","attempts":1,"metrics":{"attack_a)"
    R"(ccepted":0,"attack_frames":0,"attack_rejected":0,"bus_off_events":2,"e)"
    R"(rror_frames":85,"faults_applied":3,"feed_up_at_end":1,"frames_ok":111,)"
    R"("frames_sent":120,"monitor_downs":0,"monitor_recoveries":0,"worst_gap_)"
    R"(ms":60}},{"seed":2,"status":"passed","attempts":1,"metrics":{"attack_a)"
    R"(ccepted":0,"attack_frames":0,"attack_rejected":0,"bus_off_events":0,"e)"
    R"(rror_frames":22,"faults_applied":3,"feed_up_at_end":1,"frames_ok":115,)"
    R"("frames_sent":120,"monitor_downs":0,"monitor_recoveries":0,"worst_gap_)"
    R"(ms":40}},{"seed":3,"status":"passed","attempts":1,"metrics":{"attack_a)"
    R"(ccepted":0,"attack_frames":0,"attack_rejected":0,"bus_off_events":4,"e)"
    R"(rror_frames":201,"faults_applied":3,"feed_up_at_end":1,"frames_ok":119)"
    R"(,"frames_sent":120,"monitor_downs":0,"monitor_recoveries":0,"worst_gap)"
    R"(_ms":10.761567634}}],"aggregate":{"attack_accepted":{"n":3,"mean":0,"m)"
    R"(in":0,"max":0},"attack_frames":{"n":3,"mean":0,"min":0,"max":0},"attac)"
    R"(k_rejected":{"n":3,"mean":0,"min":0,"max":0},"bus_off_events":{"n":3,")"
    R"(mean":2,"min":0,"max":4},"error_frames":{"n":3,"mean":102.666666666666)"
    R"(66,"min":22,"max":201},"faults_applied":{"n":3,"mean":3,"min":3,"max":)"
    R"(3},"feed_up_at_end":{"n":3,"mean":1,"min":1,"max":1},"frames_ok":{"n":)"
    R"(3,"mean":115,"min":111,"max":119},"frames_sent":{"n":3,"mean":120,"min)"
    R"(":120,"max":120},"monitor_downs":{"n":3,"mean":0,"min":0,"max":0},"mon)"
    R"(itor_recoveries":{"n":3,"mean":0,"min":0,"max":0},"worst_gap_ms":{"n":)"
    R"(3,"mean":36.920522544666667,"min":10.761567634,"max":60}}})",
    R"({"id":1,"status":"ok","scenario":"heartbeat-net","scale":"full","detai)"
    R"(l":"","seeds":[{"seed":7,"status":"passed","attempts":1,"metrics":{"al)"
    R"(ive_at_end":1,"beats_sent":144,"downs":1,"misses":4,"probes_answered":)"
    R"(0,"recoveries":1}}],"aggregate":{"alive_at_end":{"n":1,"mean":1,"min":)"
    R"(1,"max":1},"beats_sent":{"n":1,"mean":144,"min":144,"max":144},"downs")"
    R"(:{"n":1,"mean":1,"min":1,"max":1},"misses":{"n":1,"mean":4,"min":4,"ma)"
    R"(x":4},"probes_answered":{"n":1,"mean":0,"min":0,"max":0},"recoveries":)"
    R"({"n":1,"mean":1,"min":1,"max":1}}})",
    R"({"id":2,"status":"quarantined","scenario":"poison-crash","scale":"full)"
    R"(","detail":"","seeds":[{"seed":5,"status":"crashed","attempts":2,"erro)"
    R"(r":"poisoned scenario (seed 5): deterministic crash","metrics":{}}],"a)"
    R"(ggregate":{}})",
    R"({"id":3,"status":"ok","scenario":"secure-uplink","scale":"full","detai)"
    R"(l":"","seeds":[{"seed":1,"status":"passed","attempts":1,"metrics":{"da)"
    R"(tagrams_delivered":8,"datagrams_dropped":0,"datagrams_sent":8,"faults_)"
    R"(applied":3,"handshakes":4,"monitor_downs":0,"monitor_recoveries":0,"ms)"
    R"(gs_ok":0,"reconnects":0,"session_up_at_end":1}}],"aggregate":{"datagra)"
    R"(ms_delivered":{"n":1,"mean":8,"min":8,"max":8},"datagrams_dropped":{"n)"
    R"(":1,"mean":0,"min":0,"max":0},"datagrams_sent":{"n":1,"mean":8,"min":8)"
    R"(,"max":8},"faults_applied":{"n":1,"mean":3,"min":3,"max":3},"handshake)"
    R"(s":{"n":1,"mean":4,"min":4,"max":4},"monitor_downs":{"n":1,"mean":0,"m)"
    R"(in":0,"max":0},"monitor_recoveries":{"n":1,"mean":0,"min":0,"max":0},")"
    R"(msgs_ok":{"n":1,"mean":0,"min":0,"max":0},"reconnects":{"n":1,"mean":0)"
    R"(,"min":0,"max":0},"session_up_at_end":{"n":1,"mean":1,"min":1,"max":1})"
    R"(}})",
    R"({"id":4,"status":"quarantined","scenario":"busy-loop","scale":"full",")"
    R"(detail":"","seeds":[{"seed":1,"status":"budget_exhausted","attempts":2)"
    R"(,"error":"sim event budget exhausted after 2000000 dispatches","metric)"
    R"(s":{}}],"aggregate":{}})",
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
    Server server(serve_catalog(), config);
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
