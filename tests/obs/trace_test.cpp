#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "test_json.hpp"

namespace xentry::obs {
namespace {

using test::JsonArray;
using test::JsonObject;
using test::JsonParser;
using test::JsonValue;

std::string chrome_json(const TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_chrome_json(os);
  return os.str();
}

// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, SpanRecordsCompleteEvent) {
  TraceRecorder rec;
  {
    TraceRecorder::Span span(&rec, "phase:test", 3);
    span.arg("at_step", 42);
  }
  ASSERT_EQ(rec.events().size(), 1u);
  const TraceEvent& ev = rec.events()[0];
  EXPECT_EQ(ev.name, "phase:test");
  EXPECT_EQ(ev.phase, 'X');
  EXPECT_EQ(ev.tid, 3);
  EXPECT_EQ(ev.arg_name, "at_step");
  EXPECT_EQ(ev.arg_value, 42u);
}

TEST(TraceRecorderTest, NullRecorderSpanIsNoOp) {
  TraceRecorder::Span span(nullptr, "ghost", 0);
  span.arg("x", 1);
  span.end();  // must not crash
}

TEST(TraceRecorderTest, CapDropsExcessAndCounts) {
  TraceRecorder rec(2);
  rec.instant("a", 0);
  rec.instant("b", 0);
  rec.instant("c", 0);
  rec.complete("d", 0, 1, 0);
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 2u);
}

TEST(TraceRecorderTest, MergePreservesShardOrderAndCap) {
  const TraceRecorder::Clock::time_point epoch = TraceRecorder::Clock::now();
  TraceRecorder merged(3, epoch);
  TraceRecorder shard0(8, epoch), shard1(8, epoch);
  shard0.complete("s0_a", 1, 1, 0);
  shard0.complete("s0_b", 2, 1, 0);
  shard1.complete("s1_a", 1, 1, 1);
  shard1.complete("s1_b", 2, 1, 1);
  merged.merge_from(std::move(shard0));
  merged.merge_from(std::move(shard1));
  ASSERT_EQ(merged.events().size(), 3u);
  EXPECT_EQ(merged.events()[0].name, "s0_a");
  EXPECT_EQ(merged.events()[1].name, "s0_b");
  EXPECT_EQ(merged.events()[2].name, "s1_a");
  EXPECT_EQ(merged.dropped(), 1u);
}

/// The satellite's schema check: the export parses as JSON and has the
/// Chrome trace-event structure Perfetto expects — a traceEvents array
/// whose entries carry name/ph/pid/tid/ts (and dur for 'X'), plus one
/// thread_name metadata record per distinct tid.
TEST(TraceRecorderTest, ChromeJsonSchema) {
  TraceRecorder rec;
  rec.complete("phase:warmup", 10, 5, 0);
  rec.complete("exit:hypercall_map", 20, 2, 1, "at_step", 7);
  rec.instant("undetected_sdc", 0, "at_step", 99);

  const JsonValue root = JsonParser(chrome_json(rec)).parse();
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.obj().count("traceEvents"));
  ASSERT_TRUE(root.obj().count("displayTimeUnit"));

  int metadata_events = 0, span_events = 0, instant_events = 0;
  const JsonArray& events = root.obj().at("traceEvents").arr();
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const JsonObject& obj = ev.obj();
    ASSERT_TRUE(obj.count("name"));
    ASSERT_TRUE(obj.count("ph"));
    ASSERT_TRUE(obj.count("pid"));
    ASSERT_TRUE(obj.count("tid"));
    EXPECT_TRUE(obj.at("name").is_string());
    EXPECT_TRUE(obj.at("pid").is_number());
    EXPECT_TRUE(obj.at("tid").is_number());
    const std::string& ph = obj.at("ph").str();
    if (ph == "M") {
      ++metadata_events;
      EXPECT_EQ(obj.at("name").str(), "thread_name");
      ASSERT_TRUE(obj.count("args"));
      const JsonObject& args = obj.at("args").obj();
      ASSERT_TRUE(args.count("name"));
      EXPECT_EQ(args.at("name").str().rfind("shard ", 0), 0u);
    } else if (ph == "X") {
      ++span_events;
      ASSERT_TRUE(obj.count("ts"));
      ASSERT_TRUE(obj.count("dur"));
      EXPECT_TRUE(obj.at("ts").is_number());
      EXPECT_TRUE(obj.at("dur").is_number());
    } else if (ph == "i") {
      ++instant_events;
      ASSERT_TRUE(obj.count("ts"));
      ASSERT_TRUE(obj.count("s"));  // instant scope
    } else {
      FAIL() << "unexpected phase: " << ph;
    }
  }
  EXPECT_EQ(metadata_events, 2);  // tids 0 and 1
  EXPECT_EQ(span_events, 2);
  EXPECT_EQ(instant_events, 1);

  // The span with an argument round-trips it.
  bool found_arg = false;
  for (const JsonValue& ev : events) {
    const JsonObject& obj = ev.obj();
    if (obj.at("name").is_string() &&
        obj.at("name").str() == "exit:hypercall_map") {
      ASSERT_TRUE(obj.count("args"));
      EXPECT_EQ(obj.at("args").obj().at("at_step").num(), 7.0);
      found_arg = true;
    }
  }
  EXPECT_TRUE(found_arg);
}

TEST(TraceRecorderTest, ChromeJsonEmptyRecorderStillValid) {
  TraceRecorder rec;
  const JsonValue root = JsonParser(chrome_json(rec)).parse();
  ASSERT_TRUE(root.is_object());
  EXPECT_TRUE(root.obj().at("traceEvents").is_array());
  EXPECT_TRUE(root.obj().at("traceEvents").arr().empty());
}

}  // namespace
}  // namespace xentry::obs
