#include "obs/snapshot.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace xentry::obs {
namespace {

std::string registry_json(const MetricsRegistry& reg) {
  std::ostringstream os;
  reg.write_json(os);
  return os.str();
}

/// read_snapshots over a stream that must read without refusal.
std::vector<MetricsSnapshot> snaps_of(std::string_view text) {
  std::vector<MetricsSnapshot> out;
  const std::optional<std::string> err = read_snapshots(text, "s.jsonl", out);
  EXPECT_FALSE(err.has_value()) << *err;
  return out;
}

/// The refusal read_snapshots reports for `text`, or "" if it reads.
std::string refusal(std::string_view text) {
  std::vector<MetricsSnapshot> out;
  return read_snapshots(text, "s.jsonl", out).value_or("");
}

TEST(SnapshotTest, FirstWriteIsFullThenDeltas) {
  MetricsRegistry reg;
  std::ostringstream os;
  SnapshotWriter w(os);
  reg.counter("a").inc(5);
  w.write(reg);
  reg.counter("a").inc(2);
  w.write(reg);

  const auto snaps = snaps_of(os.str());
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_TRUE(snaps[0].full);
  EXPECT_FALSE(snaps[1].full);
  EXPECT_EQ(snaps[0].seq, 0u);
  EXPECT_EQ(snaps[1].seq, 1u);
  EXPECT_EQ(snaps[0].counters.at("a"), 5u);
  EXPECT_EQ(snaps[1].counters.at("a"), 2u);  // delta, not absolute
}

TEST(SnapshotTest, EveryPrefixReconstructsTheRegistryExactly) {
  MetricsRegistry reg;
  std::ostringstream os;
  SnapshotWriter w(os);
  std::vector<std::string> want;  // registry JSON at each snapshot point

  for (int step = 0; step < 6; ++step) {
    reg.counter("campaign.injections").inc(10 + step);
    if (step % 2 == 0) reg.counter("campaign.detected").inc(step);
    reg.gauge("campaign.shards").set(3);
    reg.gauge("wobble").set(step - 2);
    reg.histogram("latency").observe(1u << step);
    w.write(reg);
    want.push_back(registry_json(reg));
  }

  // Split the sidecar into lines and replay every prefix.
  const std::string text = os.str();
  std::vector<std::size_t> line_ends;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') line_ends.push_back(i + 1);
  }
  ASSERT_EQ(line_ends.size(), want.size());
  for (std::size_t k = 0; k < line_ends.size(); ++k) {
    const auto snaps =
        snaps_of(std::string_view(text).substr(0, line_ends[k]));
    ASSERT_EQ(snaps.size(), k + 1);
    const MetricsRegistry rebuilt = merge_snapshots(snaps);
    EXPECT_EQ(registry_json(rebuilt), want[k]) << "prefix of " << k + 1;
  }
}

TEST(SnapshotTest, TornFinalLineIsIgnored) {
  MetricsRegistry reg;
  std::ostringstream os;
  SnapshotWriter w(os);
  reg.counter("a").inc(1);
  w.write(reg);
  reg.counter("a").inc(1);
  w.write(reg);

  std::string text = os.str();
  const std::size_t first_end = text.find('\n') + 1;
  // Cut the second line mid-way: a killed process's final write.
  const std::string torn = text.substr(0, (first_end + text.size()) / 2);
  const auto snaps = snaps_of(torn);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(merge_snapshots(snaps).find_counter("a")->value(), 1u);
}

TEST(SnapshotTest, NewMetricAppearsInTheDeltaWhereItIsBorn) {
  MetricsRegistry reg;
  std::ostringstream os;
  SnapshotWriter w(os);
  reg.counter("a").inc(1);
  w.write(reg);
  MetricsRegistry reg2;
  reg2.counter("a").inc(1);
  reg2.counter("late").inc(0);  // born at zero — must still be encoded
  w.write(reg2);

  const auto snaps = snaps_of(os.str());
  ASSERT_EQ(snaps.size(), 2u);
  ASSERT_TRUE(snaps[1].counters.count("late"));
  const MetricsRegistry rebuilt = merge_snapshots(snaps);
  ASSERT_NE(rebuilt.find_counter("late"), nullptr);
  EXPECT_EQ(rebuilt.find_counter("late")->value(), 0u);
}

TEST(SnapshotTest, PrimeContinuesADeltaStreamWithoutDoubleCounting) {
  // First process: two snapshots, then dies.
  MetricsRegistry reg;
  std::ostringstream os1;
  SnapshotWriter w1(os1);
  reg.counter("n").inc(7);
  reg.histogram("h").observe(4);
  w1.write(reg);
  reg.counter("n").inc(3);
  reg.histogram("h").observe(9);
  w1.write(reg);

  // Resume: rebuild from the sidecar, prime a fresh writer, keep going.
  const auto snaps1 = snaps_of(os1.str());
  MetricsRegistry restored = merge_snapshots(snaps1);
  EXPECT_EQ(registry_json(restored), registry_json(reg));

  std::ostringstream os2;
  SnapshotWriter w2(os2);
  w2.prime(restored, snaps1.size());
  EXPECT_EQ(w2.next_seq(), 2u);
  restored.counter("n").inc(5);
  restored.histogram("h").observe(100);
  w2.write(restored);

  // The concatenated sidecar replays to the final registry exactly; the
  // primed delta encodes only the post-resume change.
  const auto all = snaps_of(os1.str() + os2.str());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].seq, 2u);
  EXPECT_FALSE(all[2].full);
  EXPECT_EQ(all[2].counters.at("n"), 5u);
  EXPECT_EQ(registry_json(merge_snapshots(all)), registry_json(restored));
}

TEST(SnapshotTest, HistogramMergePreservesMinMaxAndBuckets) {
  MetricsRegistry reg;
  std::ostringstream os;
  SnapshotWriter w(os);
  reg.histogram("h").observe(1000);
  w.write(reg);
  reg.histogram("h").observe(2);  // min moves after the full snapshot
  w.write(reg);

  const MetricsRegistry rebuilt = merge_snapshots(snaps_of(os.str()));
  const Log2Histogram* h = rebuilt.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->min(), 2u);
  EXPECT_EQ(h->max(), 1000u);
  EXPECT_EQ(registry_json(rebuilt), registry_json(reg));
}

TEST(SnapshotTest, TimingMetricsAreRecognizedAndStripped) {
  EXPECT_TRUE(is_timing_metric("machine.snapshot_ns"));
  EXPECT_TRUE(is_timing_metric("campaign.elapsed_us"));
  EXPECT_TRUE(is_timing_metric("campaign.injections_per_sec"));
  EXPECT_FALSE(is_timing_metric("campaign.injections"));
  EXPECT_FALSE(is_timing_metric("obs.sink.appends"));

  MetricsRegistry reg;
  reg.counter("campaign.injections").inc(10);
  reg.gauge("campaign.elapsed_us").set(12345);
  reg.histogram("machine.snapshot_ns").observe(500);
  const MetricsRegistry bare = strip_timing_metrics(reg);
  EXPECT_NE(bare.find_counter("campaign.injections"), nullptr);
  EXPECT_EQ(bare.find_gauge("campaign.elapsed_us"), nullptr);
  EXPECT_EQ(bare.find_histogram("machine.snapshot_ns"), nullptr);
}

TEST(SnapshotTest, CorruptLineIsRefusedNamingPathAndLine) {
  MetricsRegistry reg;
  std::ostringstream os;
  SnapshotWriter w(os);
  reg.counter("a").inc(1);
  w.write(reg);
  const std::string good = os.str();
  const std::string bad = good + "{\"seq\":1,\"kind\":\"delta\"}\n" + good;
  std::vector<MetricsSnapshot> out;
  const std::optional<std::string> err = read_snapshots(bad, "s.jsonl", out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "s.jsonl:2: missing key 'counters'");
  ASSERT_EQ(out.size(), 1u);  // the line before it was kept
  EXPECT_EQ(out[0].counters.at("a"), 1u);
}

TEST(SnapshotTest, UnknownDuplicateAndMissingKeysAreRefused) {
  const std::string tail =
      "\"counters\":{},\"gauges\":{},\"histograms\":{}}\n";
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"full\"," + tail), "");
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"full\",\"x\":1," + tail),
            "s.jsonl:1: unknown key 'x'");
  EXPECT_EQ(refusal("{\"seq\":0,\"seq\":0,\"kind\":\"full\"," + tail),
            "s.jsonl:1: duplicate key 'seq'");
  EXPECT_EQ(refusal("{\"seq\":0," + tail), "s.jsonl:1: missing key 'kind'");
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"most\"," + tail),
            "s.jsonl:1: bad value for 'kind'");
  EXPECT_EQ(refusal("{\"seq\":-1,\"kind\":\"full\"," + tail),
            "s.jsonl:1: bad value for 'seq'");
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"full\"," + tail + "x\n"),
            "s.jsonl:2: not an object");
  // One '}' too many before the newline.
  const std::string trailing = "{\"seq\":0,\"kind\":\"full\"," +
                               tail.substr(0, tail.size() - 1) + "}\n";
  EXPECT_EQ(refusal(trailing), "s.jsonl:1: trailing bytes");
  // A repeated metric name, and a counter that is not an unsigned count.
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"full\",\"counters\":"
                    "{\"a\":1,\"a\":2},\"gauges\":{},\"histograms\":{}}\n"),
            "s.jsonl:1: duplicate metric 'a'");
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"full\",\"counters\":"
                    "{\"a\":\"1\"},\"gauges\":{},\"histograms\":{}}\n"),
            "s.jsonl:1: bad value for 'a'");
}

TEST(SnapshotTest, HistogramBucketKeysMustBeBucketLowerBounds) {
  const auto line = [](std::string_view buckets) {
    return "{\"seq\":0,\"kind\":\"full\",\"counters\":{},\"gauges\":{},"
           "\"histograms\":{\"h\":{\"count\":1,\"sum\":8,\"min\":8,"
           "\"max\":8,\"buckets\":{" +
           std::string(buckets) + "}}}}\n";
  };
  const std::vector<MetricsSnapshot> snaps = snaps_of(line("\"8\":1"));
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].histograms.at("h").buckets[4], 1u);  // [8, 16)
  EXPECT_EQ(snaps_of(line("\"0\":1")).at(0).histograms.at("h").buckets[0],
            1u);
  // Not a number, past UINT64_MAX, not a lower bound, repeated, or empty.
  EXPECT_EQ(refusal(line("\"abc\":1")), "s.jsonl:1: bad bucket key 'abc'");
  EXPECT_EQ(refusal(line("\"\":1")), "s.jsonl:1: bad bucket key 'buckets'");
  EXPECT_EQ(refusal(line("\"18446744073709551616\":1")),
            "s.jsonl:1: bad bucket key '18446744073709551616'");
  EXPECT_EQ(refusal(line("\"9\":1")), "s.jsonl:1: bad bucket key '9'");
  EXPECT_EQ(refusal(line("\"8\":1,\"8\":2")),
            "s.jsonl:1: duplicate bucket '8'");
  EXPECT_EQ(refusal(line("\"8\":0")), "s.jsonl:1: bad value for '8'");
  // The highest bucket's lower bound, 2^63, still reads.
  EXPECT_EQ(refusal(line("\"9223372036854775808\":1")), "");
}

TEST(SnapshotTest, AnyMetricNameRoundTrips) {
  MetricsRegistry reg;
  const std::string name = std::string("q\"b\\n\nt\t") + '\x01' + "end";
  reg.counter(name).inc(3);
  reg.gauge(name).set(-4);
  reg.histogram(name).observe(5);
  std::ostringstream os;
  SnapshotWriter w(os);
  w.write(reg);
  const std::vector<MetricsSnapshot> snaps = snaps_of(os.str());
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].counters.at(name), 3u);
  EXPECT_EQ(snaps[0].gauges.at(name), -4);
  EXPECT_EQ(snaps[0].histograms.at(name).count, 1u);
  EXPECT_EQ(registry_json(merge_snapshots(snaps)), registry_json(reg));
  // Only the writer's escapes read: `\/` and a raw control byte do not.
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"full\",\"counters\":"
                    "{\"a\\/\":1},\"gauges\":{},\"histograms\":{}}\n"),
            "s.jsonl:1: malformed key 'counters'");
  EXPECT_EQ(refusal("{\"seq\":0,\"kind\":\"full\",\"counters\":"
                    "{\"a\x02\":1},\"gauges\":{},\"histograms\":{}}\n"),
            "s.jsonl:1: malformed key 'counters'");
}

TEST(SnapshotTest, EmptyStreamMergesToEmptyRegistry) {
  EXPECT_TRUE(merge_snapshots({}).empty());
  EXPECT_TRUE(snaps_of("").empty());
}

}  // namespace
}  // namespace xentry::obs
