#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace xentry::obs {
namespace {

TEST(CounterTest, IncrementAndMerge) {
  Counter a, b;
  a.inc();
  a.inc(41);
  b.inc(8);
  EXPECT_EQ(a.value(), 42u);
  a.merge_from(b);
  EXPECT_EQ(a.value(), 50u);
}

TEST(GaugeTest, SetOverwritesAndMergeSums) {
  Gauge g, h;
  g.set(3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  h.set(10);
  g.merge_from(h);
  EXPECT_EQ(g.value(), 3);
}

TEST(Log2HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i - 1].
  Log2Histogram h;
  h.observe(0);
  EXPECT_EQ(h.bucket(0), 1u);
  h.observe(1);
  EXPECT_EQ(h.bucket(1), 1u);
  h.observe(2);
  h.observe(3);
  EXPECT_EQ(h.bucket(2), 2u);
  h.observe(4);
  h.observe(7);
  EXPECT_EQ(h.bucket(3), 2u);
  h.observe(8);
  EXPECT_EQ(h.bucket(4), 1u);
  h.observe(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.bucket(64), 1u);

  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());

  // The static bounds agree with where observe actually lands values.
  EXPECT_EQ(Log2Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(0), 0u);
  for (int i = 1; i < Log2Histogram::kNumBuckets; ++i) {
    Log2Histogram probe;
    probe.observe(Log2Histogram::bucket_lower_bound(i));
    probe.observe(Log2Histogram::bucket_upper_bound(i));
    EXPECT_EQ(probe.bucket(i), 2u) << "bucket " << i;
  }
}

TEST(Log2HistogramTest, MergePreservesMomentsAndExtremes) {
  Log2Histogram a, b;
  a.observe(5);
  a.observe(100);
  b.observe(3);
  b.observe(70000);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 5u + 100u + 3u + 70000u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 70000u);
  // Merging an empty histogram must not clobber min/max.
  Log2Histogram empty;
  a.merge_from(empty);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 70000u);
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  // Force rebalancing-ish churn; node-based storage keeps &c valid.
  for (int i = 0; i < 100; ++i) {
    reg.counter("name_" + std::to_string(i));
  }
  c.inc(7);
  EXPECT_EQ(reg.find_counter("a")->value(), 7u);
  EXPECT_EQ(&reg.counter("a"), &c);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

std::string registry_json(const MetricsRegistry& reg) {
  std::ostringstream os;
  reg.write_json(os);
  return os.str();
}

/// The determinism contract: distributing one observation stream over K
/// shard registries and merging in shard order yields byte-identical
/// exports for any K.  Mirrors how run_campaign merges per-shard metrics.
TEST(MetricsRegistryTest, MergeDeterministicAcrossShardCounts) {
  // A synthetic observation stream with enough spread to hit many
  // buckets; derived deterministically from the index.
  struct Obs {
    std::uint64_t histogram_value;
    bool bump_counter;
  };
  std::vector<Obs> stream;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    stream.push_back({x >> (x % 50), (x & 3) == 0});
  }

  std::string baseline;
  for (int shards : {1, 2, 7}) {
    std::vector<MetricsRegistry> regs(static_cast<std::size_t>(shards));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      MetricsRegistry& reg = regs[i % static_cast<std::size_t>(shards)];
      reg.histogram("h").observe(stream[i].histogram_value);
      if (stream[i].bump_counter) reg.counter("c").inc();
      reg.gauge("g").set(1);  // per-shard contribution; merged = shard count
    }
    MetricsRegistry merged;
    for (const MetricsRegistry& reg : regs) merged.merge_from(reg);
    // Gauges sum across shards by design, so normalize before comparing.
    merged.gauge("g").set(1);
    const std::string json = registry_json(merged);
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "shards=" << shards;
    }
  }
  EXPECT_NE(baseline.find("\"counters\""), std::string::npos);
  EXPECT_NE(baseline.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, JsonIsSortedAndEscaped) {
  MetricsRegistry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc(2);
  reg.counter("quote\"key").inc(3);
  const std::string json = registry_json(reg);
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
  EXPECT_NE(json.find("quote\\\"key"), std::string::npos);
}

TEST(Log2HistogramTest, PercentileEmptyAndSingleValue) {
  Log2Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  h.observe(42);
  // One observation: every quantile is that value (the min/max clamp
  // collapses the bucket interpolation).
  EXPECT_EQ(h.percentile(0.0), 42.0);
  EXPECT_EQ(h.percentile(0.5), 42.0);
  EXPECT_EQ(h.percentile(1.0), 42.0);
}

TEST(Log2HistogramTest, PercentileWalksBucketsInOrder) {
  Log2Histogram h;
  // 100 values: 90 small (bucket of 1) and 10 large (bucket of 1024).
  for (int i = 0; i < 90; ++i) h.observe(1);
  for (int i = 0; i < 10; ++i) h.observe(1024);
  EXPECT_EQ(h.percentile(0.5), 1.0);   // rank 49.5 sits in the small mass
  EXPECT_GE(h.percentile(0.95), 1024.0);  // rank 94.05 is in the large mass
  EXPECT_LE(h.percentile(0.95), 2047.0);  // ...and within its bucket range
  EXPECT_LE(h.percentile(0.99), h.max());
  // Quantiles are monotone in q.
  EXPECT_LE(h.percentile(0.5), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
}

TEST(Log2HistogramTest, PercentileClampedToObservedRange) {
  Log2Histogram h;
  h.observe(1000);
  h.observe(1030);
  // Both land in bucket [1024's neighborhood]: interpolation must not
  // leave [min, max].
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GE(h.percentile(q), 1000.0);
    EXPECT_LE(h.percentile(q), 1030.0);
  }
}

TEST(Log2HistogramTest, JsonHasPercentilesWhenNonEmpty) {
  Log2Histogram h;
  std::ostringstream empty_os;
  h.write_json(empty_os);
  EXPECT_EQ(empty_os.str().find("\"p50\""), std::string::npos);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<std::uint64_t>(i));
  std::ostringstream os;
  h.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
}

TEST(MetricsRegistryTest, RegistryJsonIncludesHistogramPercentiles) {
  MetricsRegistry reg;
  for (int i = 0; i < 32; ++i) reg.histogram("lat").observe(8);
  const std::string json = registry_json(reg);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 8.0"), std::string::npos);
}

TEST(MetricsRegistryTest, MergeAdoptsMetricsAbsentOnOneSide) {
  MetricsRegistry a, b;
  a.counter("only_a").inc(1);
  b.counter("only_b").inc(2);
  b.histogram("h").observe(9);
  a.merge_from(b);
  EXPECT_EQ(a.find_counter("only_a")->value(), 1u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 2u);
  EXPECT_EQ(a.find_histogram("h")->count(), 1u);
}

// -- the one-line codec a journal line carries --------------------------

/// The registry as write_line writes it, into a buffer line_chars() long.
std::string line_of(const MetricsRegistry& reg) {
  std::string buf(reg.line_chars(), '\0');
  BufferWriter w(buf.data());
  reg.write_line(w);
  EXPECT_LE(w.size(), reg.line_chars());
  buf.resize(w.size());
  return buf;
}

/// The refusal read_line reports for `line` (with nothing after it), or
/// "" if it reads; the registry read goes to `out`.
std::string refusal(std::string_view line, MetricsRegistry* out = nullptr) {
  MetricsRegistry reg;
  LineScanner in(line);
  if (!MetricsRegistry::read_line(in, reg) || !in.end()) return in.error();
  if (out != nullptr) *out = std::move(reg);
  return "";
}

/// read_line over a line that must read.
MetricsRegistry read_back(std::string_view line) {
  MetricsRegistry reg;
  EXPECT_EQ(refusal(line, &reg), "") << line;
  return reg;
}

TEST(MetricsLineTest, EmptyRegistryRoundTrips) {
  const MetricsRegistry empty;
  EXPECT_EQ(line_of(empty),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  EXPECT_TRUE(read_back(line_of(empty)).empty());
}

TEST(MetricsLineTest, AnyMetricNameRoundTrips) {
  MetricsRegistry reg;
  const std::string name = std::string("q\"b\\n\nt\t") + '\x01' + "end";
  reg.counter(name).inc(3);
  reg.gauge(name).set(-4);
  reg.histogram(name).observe(5);
  const MetricsRegistry back = read_back(line_of(reg));
  ASSERT_NE(back.find_counter(name), nullptr);
  EXPECT_EQ(back.find_counter(name)->value(), 3u);
  ASSERT_NE(back.find_gauge(name), nullptr);
  EXPECT_EQ(back.find_gauge(name)->value(), -4);
  ASSERT_NE(back.find_histogram(name), nullptr);
  EXPECT_EQ(back.find_histogram(name)->count(), 1u);
  EXPECT_EQ(registry_json(back), registry_json(reg));
  // Only the writer's escapes read: `\/` and a raw control byte do not.
  EXPECT_EQ(refusal("{\"counters\":{\"a\\/\":1},\"gauges\":{},"
                    "\"histograms\":{}}"),
            "malformed key 'counters'");
  EXPECT_EQ(refusal("{\"counters\":{\"a\x02\":1},\"gauges\":{},"
                    "\"histograms\":{}}"),
            "malformed key 'counters'");
}

TEST(MetricsLineTest, HistogramMinMaxAndBucketsAreExact) {
  MetricsRegistry reg;
  Log2Histogram& h = reg.histogram("h");
  for (const std::uint64_t v : {1000u, 2u, 2u, 0u}) h.observe(v);
  reg.histogram("empty");  // no observations: no min or max to write
  const std::string line = line_of(reg);
  EXPECT_NE(line.find("\"empty\":{\"count\":0,\"sum\":0,\"buckets\":{}}"),
            std::string::npos)
      << line;
  const MetricsRegistry back = read_back(line);
  const Log2Histogram* b = back.find_histogram("h");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count(), 4u);
  EXPECT_EQ(b->sum(), 1004u);
  EXPECT_EQ(b->min(), 0u);
  EXPECT_EQ(b->max(), 1000u);
  for (int i = 0; i < Log2Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(b->bucket(i), h.bucket(i)) << "bucket " << i;
  }
  ASSERT_NE(back.find_histogram("empty"), nullptr);
  EXPECT_EQ(back.find_histogram("empty")->count(), 0u);
  EXPECT_EQ(registry_json(back), registry_json(reg));
}

TEST(MetricsLineTest, WidestRegistryFitsLineChars) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  MetricsRegistry reg;
  const std::string name(40, '\x01');  // six bytes per escaped byte
  reg.counter(name).inc(kMax);
  reg.gauge(name).set(std::numeric_limits<std::int64_t>::min());
  std::uint64_t full[Log2Histogram::kNumBuckets];
  for (std::uint64_t& n : full) n = kMax;
  reg.histogram(name) = Log2Histogram::from_parts(full, kMax, kMax, kMax, kMax);
  // line_of checks the line against line_chars().
  EXPECT_EQ(registry_json(read_back(line_of(reg))), registry_json(reg));
}

TEST(MetricsLineTest, HistogramBucketKeysMustBeBucketLowerBounds) {
  const auto line = [](std::string_view buckets) {
    return "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{"
           "\"count\":1,\"sum\":8,\"min\":8,\"max\":8,\"buckets\":{" +
           std::string(buckets) + "}}}}";
  };
  EXPECT_EQ(read_back(line("\"8\":1")).find_histogram("h")->bucket(4),
            1u);  // [8, 16)
  EXPECT_EQ(read_back(line("\"0\":1")).find_histogram("h")->bucket(0), 1u);
  // Not a number, past UINT64_MAX, not a lower bound, repeated, or empty.
  EXPECT_EQ(refusal(line("\"abc\":1")), "bad bucket key 'abc'");
  EXPECT_EQ(refusal(line("\"\":1")), "bad bucket key 'buckets'");
  EXPECT_EQ(refusal(line("\"18446744073709551616\":1")),
            "bad bucket key '18446744073709551616'");
  EXPECT_EQ(refusal(line("\"9\":1")), "bad bucket key '9'");
  EXPECT_EQ(refusal(line("\"8\":1,\"8\":2")), "duplicate bucket '8'");
  // The writer skips empty buckets, so a zero count is refused.
  EXPECT_EQ(refusal(line("\"8\":0")), "bad value for '8'");
  // The highest bucket's lower bound, 2^63, still reads.
  EXPECT_EQ(refusal(line("\"9223372036854775808\":1")), "");
}

TEST(MetricsLineTest, UnknownDuplicateAndMissingKeysAreRefused) {
  const std::string body = "\"counters\":{},\"gauges\":{},\"histograms\":{}}";
  EXPECT_EQ(refusal("{" + body), "");
  EXPECT_EQ(refusal("{\"x\":1," + body), "unknown key 'x'");
  EXPECT_EQ(refusal("{\"gauges\":{}," + body), "duplicate key 'gauges'");
  EXPECT_EQ(refusal("{\"counters\":{},\"gauges\":{}}"),
            "missing key 'histograms'");
  EXPECT_EQ(refusal("{\"counters\":[]," + body.substr(14)),
            "not an object 'counters'");
  EXPECT_EQ(refusal("{" + body + "}"), "trailing bytes");
  // A repeated metric name, and counts that are not unsigned integers.
  const auto counters = [](std::string_view map) {
    return "{\"counters\":{" + std::string(map) +
           "},\"gauges\":{},\"histograms\":{}}";
  };
  EXPECT_EQ(refusal(counters("\"a\":1,\"a\":2")), "duplicate metric 'a'");
  EXPECT_EQ(refusal(counters("\"a\":\"1\"")), "bad value for 'a'");
  EXPECT_EQ(refusal(counters("\"a\":-1")), "bad value for 'a'");
  // A histogram's own members are held to the same rules.
  const auto histogram = [](std::string_view members) {
    return "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{" +
           std::string(members) + "}}}";
  };
  EXPECT_EQ(refusal(histogram("\"count\":0,\"sum\":0,\"buckets\":{}")), "");
  EXPECT_EQ(refusal(histogram("\"count\":0,\"sum\":0,\"buckets\":{},"
                              "\"p50\":0")),
            "unknown key 'p50'");
  EXPECT_EQ(refusal(histogram("\"count\":0,\"count\":0,\"sum\":0,"
                              "\"buckets\":{}")),
            "duplicate key 'count'");
  EXPECT_EQ(refusal(histogram("\"count\":0,\"buckets\":{}")),
            "missing key 'sum'");
  EXPECT_EQ(refusal("{\"counters\":{},\"gauges\":{},\"histograms\":{"
                    "\"h\":{\"count\":0,\"sum\":0,\"buckets\":{}},"
                    "\"h\":{\"count\":0,\"sum\":0,\"buckets\":{}}}}"),
            "duplicate metric 'h'");
}

// -- the one JSON string escaper -------------------------------------------

TEST(JsonStringTest, EveryByteRoundTripsThroughTheOneEscaper) {
  const auto round_trip = [](const std::string& s) {
    std::ostringstream os;
    write_json_string(os, s);
    const std::string written = os.str();
    // Valid JSON: no raw control byte is left in the string.
    for (const char c : written) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << written;
    }
    EXPECT_LE(written.size(), max_escaped_chars(s.size()));
    LineScanner in(written);
    std::string back;
    EXPECT_TRUE(in.escaped(back)) << written;
    EXPECT_TRUE(in.end()) << written;
    return back;
  };
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(round_trip(one), one) << "byte " << b;
    all += one;
  }
  EXPECT_EQ(round_trip(all), all);
}

}  // namespace
}  // namespace xentry::obs
