// Wire-type tests: render_reply() byte layout (the determinism surface)
// and parse_request() acceptance/rejection.
#include "avsec/serve/request.hpp"

#include <gtest/gtest.h>

namespace {

using namespace avsec::serve;

TEST(RenderReply, RejectLayoutIsExact) {
  Reply r;
  r.ticket = 3;
  r.status = ReplyStatus::kInfeasible;
  r.scenario = "ivn-can";
  r.detail = "deadline below the scenario's static cost floor";
  EXPECT_EQ(render_reply(r),
            "{\"id\":3,\"status\":\"infeasible\",\"scenario\":\"ivn-can\","
            "\"scale\":\"full\",\"detail\":\"deadline below the scenario's "
            "static cost floor\",\"seeds\":[],\"aggregate\":{}}");
}

TEST(RenderReply, SeedsAndAggregateRenderInOrder) {
  Reply r;
  r.ticket = 0;
  r.status = ReplyStatus::kOk;
  r.scenario = "s";
  SeedOutcome a;
  a.seed = 1;
  a.metrics["m"] = 1.5;
  SeedOutcome b;
  b.seed = 2;
  b.metrics["m"] = 2.5;
  r.seeds = {a, b};
  r.aggregate["m"].add(1.5);
  r.aggregate["m"].add(2.5);
  EXPECT_EQ(render_reply(r),
            "{\"id\":0,\"status\":\"ok\",\"scenario\":\"s\",\"scale\":"
            "\"full\",\"detail\":\"\",\"seeds\":[{\"seed\":1,\"status\":"
            "\"passed\",\"attempts\":1,\"metrics\":{\"m\":1.5}},{\"seed\":2,"
            "\"status\":\"passed\",\"attempts\":1,\"metrics\":{\"m\":2.5}}],"
            "\"aggregate\":{\"m\":{\"n\":2,\"mean\":2,\"min\":1.5,"
            "\"max\":2.5}}}");
}

TEST(RenderReply, TelemetryFieldsAreExcluded) {
  // latency_ms / worker / slow_trace are wall-clock telemetry: two replies
  // differing only there must render byte-identically.
  Reply a;
  a.status = ReplyStatus::kOk;
  Reply b = a;
  b.latency_ms = 123.4;
  b.worker = 7;
  b.slow_trace = "trace text";
  EXPECT_EQ(render_reply(a), render_reply(b));
}

TEST(RenderReply, StringsAreEscaped) {
  Reply r;
  r.detail = "a \"quoted\"\nline\\";
  const std::string out = render_reply(r);
  EXPECT_NE(out.find("\"detail\":\"a \\\"quoted\\\"\\nline\\\\\""),
            std::string::npos);
}

TEST(ParseRequest, FullForm) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"scenario":"ivn-can","seeds":[1, 2,3],"deadline_ms":50,)"
      R"("max_events":1000,"trace":true})",
      req, error))
      << error;
  EXPECT_EQ(req.scenario, "ivn-can");
  EXPECT_EQ(req.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(req.deadline_ms, 50);
  EXPECT_EQ(req.max_events, 1000u);
  EXPECT_TRUE(req.trace);
}

TEST(ParseRequest, MinimalFormAndDefaults) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"scenario":"x"})", req, error)) << error;
  EXPECT_EQ(req.scenario, "x");
  EXPECT_TRUE(req.seeds.empty());
  EXPECT_EQ(req.deadline_ms, 0);
  EXPECT_EQ(req.max_events, 0u);
  EXPECT_FALSE(req.trace);
}

TEST(ParseRequest, UnknownKeysAreTolerated) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"scenario":"x","future_knob":"v","flags":[1,2],"n":-3})", req,
      error))
      << error;
  EXPECT_EQ(req.scenario, "x");
}

TEST(ParseRequest, RejectsMalformedInput) {
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request("", req, error));
  EXPECT_FALSE(parse_request("{bogus", req, error));
  EXPECT_FALSE(parse_request(R"({"seeds":[1]})", req, error));
  EXPECT_NE(error.find("scenario"), std::string::npos);
  EXPECT_FALSE(parse_request(R"({"scenario":"x"} trailing)", req, error));
  EXPECT_FALSE(parse_request(R"({"scenario":"x","max_events":-1})", req,
                             error));
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
  // Out-of-range numbers are refused with the byte they start at, never
  // clamped: a seed one past uint64 must not be served as UINT64_MAX, and
  // a negative deadline must not mean "no deadline".
  for (const char* line : {
           R"({"scenario":"poison-crash","seeds":[18446744073709551616]})",
           R"({"scenario":"poison-crash","seeds":[99999999999999999999999]})",
           R"({"scenario":"x","seeds":[1,18446744073709551616]})",
           R"({"scenario":"x","deadline_ms":-5})",
           R"({"scenario":"x","deadline_ms":9223372036854775807})",
           R"({"scenario":"x","max_events":18446744073709551616})",
       }) {
    EXPECT_FALSE(parse_request(line, req, error)) << line;
    EXPECT_NE(error.find("byte"), std::string::npos) << line << ": " << error;
  }
  // The largest seed and budget still parse, exactly.
  ASSERT_TRUE(parse_request(
      R"({"scenario":"x","seeds":[18446744073709551615],)"
      R"("max_events":18446744073709551615,"deadline_ms":0})",
      req, error))
      << error;
  EXPECT_EQ(req.seeds, std::vector<std::uint64_t>{18446744073709551615u});
  EXPECT_EQ(req.max_events, 18446744073709551615u);
  EXPECT_EQ(req.deadline_ms, 0);
}

TEST(ParseRequest, ErrorsCarryBytePositions) {
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request(R"({"scenario": 42})", req, error));
  EXPECT_NE(error.find("byte"), std::string::npos);
}

TEST(ReplyStatusNames, AreStable) {
  EXPECT_STREQ(reply_status_name(ReplyStatus::kOk), "ok");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kDegraded), "degraded");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kQuarantined), "quarantined");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kRejected), "rejected");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kExpired), "expired");
}

}  // namespace
