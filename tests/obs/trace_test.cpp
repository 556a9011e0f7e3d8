// TraceRecorder core semantics: ring wraparound, span nesting depth,
// ambient install/restore, string interning, and the metrics registry's
// deterministic fold/merge behavior.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "avsec/obs/obs.hpp"

namespace avsec::obs {
namespace {

TEST(TraceRecorder, RecordsEventsInOrder) {
  TraceRecorder rec(16);
  rec.instant(Category::kApp, "a", 0, 10);
  rec.instant(Category::kApp, "b", 0, 20, 1, 2, "why");
  rec.counter(Category::kApp, "c", 0, 30, 2.5);

  const auto events = rec.chronological();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts, 10);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].phase, Phase::kInstant);
  EXPECT_EQ(events[1].a0, 1);
  EXPECT_EQ(events[1].a1, 2);
  EXPECT_STREQ(events[1].detail, "why");
  EXPECT_EQ(events[2].phase, Phase::kCounter);
  EXPECT_EQ(events[2].value, 2.5);
  // seq is a strictly increasing tie-break.
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(TraceRecorder, RingWrapsKeepingNewestAndCountsDropped) {
  TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.instant(Category::kApp, "tick", 0, i);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.chronological();
  ASSERT_EQ(events.size(), 4u);
  // The newest window survives, oldest first.
  EXPECT_EQ(events[0].ts, 6);
  EXPECT_EQ(events[3].ts, 9);
}

TEST(TraceRecorder, ExactlyFullRingDropsNothing) {
  TraceRecorder rec(4);
  for (int i = 0; i < 4; ++i) rec.instant(Category::kApp, "t", 0, i);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.chronological().front().ts, 0);
}

TEST(TraceRecorder, SpanNestingDepthPerTrack) {
  TraceRecorder rec;
  const TrackId t1 = rec.register_track("bus0");
  EXPECT_EQ(rec.depth(0), 0);
  rec.begin(Category::kApp, "outer", 0, 1);
  rec.begin(Category::kApp, "inner", 0, 2);
  rec.begin(Category::kCan, "frame", t1, 2);
  EXPECT_EQ(rec.depth(0), 2);
  EXPECT_EQ(rec.depth(t1), 1);
  rec.end(Category::kApp, "inner", 0, 3);
  EXPECT_EQ(rec.depth(0), 1);
  rec.end(Category::kApp, "outer", 0, 4);
  rec.end(Category::kCan, "frame", t1, 5);
  EXPECT_EQ(rec.depth(0), 0);
  EXPECT_EQ(rec.depth(t1), 0);
  // Unbalanced end() floors at zero instead of going negative.
  rec.end(Category::kApp, "stray", 0, 6);
  EXPECT_EQ(rec.depth(0), 0);
}

TEST(TraceRecorder, TrackRegistrationIsOrderedAndMainIsZero) {
  TraceRecorder rec;
  EXPECT_EQ(rec.track_names().size(), 1u);
  EXPECT_EQ(rec.track_names()[0], "main");
  const TrackId a = rec.register_track("can0");
  const TrackId b = rec.register_track("eth0");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(rec.track_names()[2], "eth0");
}

TEST(TraceRecorder, InternDedupesAndOutlivesInput) {
  TraceRecorder rec;
  const char* p1 = nullptr;
  {
    std::string s = "ecu-steering";
    p1 = rec.intern(s);
  }
  const char* p2 = rec.intern(std::string("ecu-steering"));
  EXPECT_EQ(p1, p2);
  EXPECT_STREQ(p1, "ecu-steering");
  EXPECT_NE(rec.intern("other"), p1);
}

TEST(TraceRecorder, DisabledRecorderIgnoresMacroSites) {
  TraceRecorder rec;
  TraceScope scope(rec);
  rec.set_enabled(false);
  AVSEC_TRACE_INSTANT(Category::kApp, "x", 0, 1);
  AVSEC_TRACE_BEGIN(Category::kApp, "y", 0, 2);
  AVSEC_TRACE_COUNTER(Category::kApp, "z", 0, 3, 1.0);
  AVSEC_METRIC_INC("n", 1);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.metrics().empty());
  rec.set_enabled(true);
  AVSEC_TRACE_INSTANT(Category::kApp, "x", 0, 4);
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(TraceScope, InstallsAndRestoresAmbientRecorder) {
  EXPECT_EQ(current(), nullptr);
  TraceRecorder outer;
  {
    TraceScope a(outer);
    EXPECT_EQ(current(), &outer);
    TraceRecorder inner;
    {
      TraceScope b(inner);
      EXPECT_EQ(current(), &inner);
      AVSEC_TRACE_INSTANT(Category::kApp, "in", 0, 1);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
  // No recorder ambient: macro sites are inert, not crashes.
  AVSEC_TRACE_INSTANT(Category::kApp, "nowhere", 0, 1);
  AVSEC_METRIC_INC("nowhere", 1);
}

// The ambient pointer is per thread: a second thread starts with none,
// installs and reads its own across a TraceScope (every macro site, the
// recorder disabled and enabled), and leaves this thread's untouched.
// Without constinit on the declaration these reads go through GCC's TLS
// wrapper, which the sanitizer lane reports as a null-pointer load.
TEST(TraceScope, SecondThreadInstallsAndReadsItsOwnRecorder) {
  TraceRecorder mine;
  TraceScope scope(mine);
  TraceRecorder theirs;
  TraceRecorder* seen_before = &mine;
  TraceRecorder* seen_inside = nullptr;
  TraceRecorder* seen_after = &mine;
  std::thread worker([&] {
    seen_before = current();
    {
      TraceScope s(theirs);
      seen_inside = current();
      theirs.set_enabled(false);
      AVSEC_TRACE_BEGIN(Category::kApp, "off", 0, 1);
      AVSEC_TRACE_COUNTER(Category::kApp, "off", 0, 1, 1.0);
      AVSEC_METRIC_INC("off", 1);
      theirs.set_enabled(true);
      AVSEC_TRACE_INSTANT(Category::kApp, "worker", 0, 1);
    }
    seen_after = current();
  });
  worker.join();
  EXPECT_EQ(seen_before, nullptr);
  EXPECT_EQ(seen_inside, &theirs);
  EXPECT_EQ(seen_after, nullptr);
  EXPECT_EQ(theirs.recorded(), 1u);
  EXPECT_EQ(current(), &mine);
  EXPECT_EQ(mine.recorded(), 0u);
}

TEST(MetricsRegistry, CountersGaugesSeries) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.inc("frames");
  m.inc("frames", 4);
  m.set_gauge("level", 1.5);
  m.set_gauge("level", 2.5);
  m.observe("lat", 1.0);
  m.observe("lat", 3.0);
  EXPECT_EQ(m.counter("frames"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);
  EXPECT_EQ(m.gauge("level"), 2.5);
  EXPECT_EQ(m.gauge("missing", -1.0), -1.0);
  ASSERT_NE(m.series("lat"), nullptr);
  EXPECT_EQ(m.series("lat")->count(), 2u);
  EXPECT_EQ(m.series("missing"), nullptr);

  const auto flat = m.flatten();
  EXPECT_EQ(flat.at("frames"), 5.0);
  EXPECT_EQ(flat.at("level"), 2.5);
  EXPECT_EQ(flat.at("lat.count"), 2.0);
  EXPECT_EQ(flat.at("lat.mean"), 2.0);
  EXPECT_EQ(flat.at("lat.min"), 1.0);
  EXPECT_EQ(flat.at("lat.max"), 3.0);
}

TEST(MetricsRegistry, MergeAndIdentical) {
  MetricsRegistry a;
  a.inc("n", 2);
  a.observe("v", 1.0);
  MetricsRegistry b;
  b.inc("n", 3);
  b.set_gauge("g", 7.0);
  b.observe("v", 2.0);

  MetricsRegistry merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.counter("n"), 5u);
  EXPECT_EQ(merged.gauge("g"), 7.0);
  EXPECT_EQ(merged.series("v")->count(), 2u);

  MetricsRegistry c;
  c.inc("n", 2);
  c.observe("v", 1.0);
  EXPECT_TRUE(a.identical(c));
  EXPECT_FALSE(a.identical(b));
  // Dumps are sorted and reproducible.
  EXPECT_EQ(a.text_dump(), c.text_dump());
}

// One representative recording session: tracks, nested spans, instants,
// counters, metrics, interned details.
void record_session(TraceRecorder& rec) {
  const TrackId bus = rec.register_track("bus0");
  rec.begin(Category::kCan, "arbitrate", bus, 10, 1, 2, "frame 0x1A");
  rec.instant(Category::kIds, "alert", 0, 15, 3);
  rec.counter(Category::kHealth, "load", bus, 20, 0.75);
  rec.end(Category::kCan, "arbitrate", bus, 25);
  rec.metrics().inc("frames", 4);
  rec.metrics().observe("latency", 1.5);
}

TEST(TraceRecorder, ResetMakesAReusedRecorderIndistinguishableFromFresh) {
  // The pooled-context contract (DESIGN.md §8): after reset(), a reused
  // recorder must reproduce a fresh recorder's dump byte for byte — the
  // trace strings land in CampaignReport outcomes, so any drift breaks
  // report identity between pooled and fresh sweeps.
  TraceRecorder fresh(256);
  record_session(fresh);
  const std::string expected = text_dump(fresh);

  TraceRecorder reused(256);
  // Pollute with a different session first (extra tracks, deeper spans,
  // different metrics), then reset and replay.
  const TrackId junk = reused.register_track("junk");
  reused.begin(Category::kApp, "noise", junk, 1);
  reused.begin(Category::kApp, "noise2", junk, 2);
  reused.metrics().inc("garbage", 99);
  reused.intern("frame 0x1A");  // pre-warm the intern cache on purpose
  reused.reset();

  EXPECT_EQ(reused.recorded(), 0u);
  EXPECT_EQ(reused.size(), 0u);
  EXPECT_EQ(reused.track_names(), std::vector<std::string>{"main"});
  EXPECT_EQ(reused.depth(0), 0);

  record_session(reused);
  EXPECT_EQ(text_dump(reused), expected);

  // And again: reset is idempotent across many rounds.
  for (int round = 0; round < 3; ++round) {
    reused.reset();
    record_session(reused);
    EXPECT_EQ(text_dump(reused), expected) << "round " << round;
  }
}

TEST(TraceRecorder, ResetReassignsTrackIdsDeterministically) {
  TraceRecorder rec(64);
  const TrackId first = rec.register_track("nodeA");
  rec.reset();
  // Same registration order after reset -> same ids.
  EXPECT_EQ(rec.register_track("nodeA"), first);
}

}  // namespace
}  // namespace avsec::obs
