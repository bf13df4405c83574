// Byte oracles for the one-pass writers (obs::BufferWriter).  Each reference
// writer below is the append-per-token encoder the record and journal
// formats were first written with, kept here verbatim: std::string appends,
// one push_back per binary byte, and snprintf("%" PRIx64) for image words.
// The library's writers must reproduce their bytes exactly, on every field
// at its extremes and on memory images of every zero-run shape, since
// shard files and journals from either writer must be interchangeable.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"

namespace xentry::fault {
namespace {

// -- reference writers --------------------------------------------------

void ref_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}
void ref_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}
void ref_double(std::string& out, double v) {
  char buf[40];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void ref_jsonl(const InjectionRecord& r, std::string& out) {
  out += "{\"cat\":";
  ref_u64(out, static_cast<std::uint64_t>(r.reason.category));
  out += ",\"idx\":";
  ref_i64(out, r.reason.index);
  out += ",\"seed\":";
  ref_u64(out, r.activation_seed);
  out += ",\"vcpu\":";
  ref_i64(out, r.vcpu);
  out += ",\"step\":";
  ref_u64(out, r.injection.at_step);
  out += ",\"reg\":";
  ref_u64(out, static_cast<std::uint64_t>(r.injection.reg));
  out += ",\"bit\":";
  ref_i64(out, r.injection.bit);
  out += ",\"inj\":";
  out += r.injected ? '1' : '0';
  out += ",\"act\":";
  out += r.activated ? '1' : '0';
  out += ",\"cons\":\"";
  out += consequence_name(r.consequence);
  out += "\",\"det\":";
  out += r.detected ? '1' : '0';
  out += ",\"tech\":";
  ref_u64(out, static_cast<std::uint64_t>(r.technique));
  out += ",\"lat\":";
  ref_u64(out, r.latency);
  out += ",\"trap\":";
  ref_u64(out, static_cast<std::uint64_t>(r.trap));
  out += ",\"assert\":";
  ref_u64(out, r.assert_id);
  out += ",\"div\":";
  out += r.trace_diverged ? '1' : '0';
  out += ",\"undet\":\"";
  out += undetected_class_name(r.undetected);
  out += "\",\"f\":[";
  bool first = true;
  for (std::int64_t f : r.features.as_array()) {
    if (!first) out += ',';
    first = false;
    ref_i64(out, f);
  }
  out += "],\"w\":";
  ref_double(out, r.weight);
  out += ",\"mw\":";
  ref_double(out, r.masked_weight);
  out += "}\n";
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ref_binary(const InjectionRecord& r, std::string& out) {
  const std::size_t len_at = out.size();
  put_u32(out, 0);  // patched below
  const std::size_t payload_at = out.size();
  put_u8(out, static_cast<std::uint8_t>(r.reason.category));
  put_u32(out, static_cast<std::uint32_t>(r.reason.index));
  put_u64(out, r.activation_seed);
  put_u32(out, static_cast<std::uint32_t>(r.vcpu));
  put_u64(out, r.injection.at_step);
  put_u8(out, static_cast<std::uint8_t>(r.injection.reg));
  put_u32(out, static_cast<std::uint32_t>(r.injection.bit));
  std::uint8_t flags = 0;
  if (r.injected) flags |= 1u << 0;
  if (r.activated) flags |= 1u << 1;
  if (r.detected) flags |= 1u << 2;
  if (r.trace_diverged) flags |= 1u << 3;
  put_u8(out, flags);
  put_u8(out, static_cast<std::uint8_t>(r.consequence));
  put_u8(out, static_cast<std::uint8_t>(r.technique));
  put_u64(out, r.latency);
  put_u8(out, static_cast<std::uint8_t>(r.trap));
  put_u32(out, r.assert_id);
  put_u8(out, static_cast<std::uint8_t>(r.undetected));
  for (std::int64_t f : r.features.as_array()) {
    put_u64(out, static_cast<std::uint64_t>(f));
  }
  put_u64(out, std::bit_cast<std::uint64_t>(r.weight));
  put_u64(out, std::bit_cast<std::uint64_t>(r.masked_weight));
  const std::uint32_t len = static_cast<std::uint32_t>(out.size() - payload_at);
  for (int i = 0; i < 4; ++i) {
    out[len_at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

void ref_words(std::string& out, const std::vector<std::uint64_t>& words) {
  std::size_t i = 0;
  bool first = true;
  char buf[24];
  while (i < words.size()) {
    if (!first) out += ',';
    first = false;
    if (words[i] == 0) {
      std::size_t run = 1;
      while (i + run < words.size() && words[i + run] == 0) ++run;
      out += 'z';
      ref_u64(out, run);
      i += run;
    } else {
      std::snprintf(buf, sizeof buf, "%" PRIx64, words[i]);
      out += buf;
      ++i;
    }
  }
}

/// A metric name as the metrics-snapshot writer escaped it.
void ref_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// A registry as the metrics-snapshot writer spelled a full snapshot, less
/// its seq and kind.
void ref_registry(std::string& out, const obs::MetricsRegistry& reg) {
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : reg.counters()) {
    if (!first) out += ',';
    first = false;
    ref_escaped(out, name);
    out += ':';
    ref_u64(out, c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    if (!first) out += ',';
    first = false;
    ref_escaped(out, name);
    out += ':';
    ref_i64(out, g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (!first) out += ',';
    first = false;
    ref_escaped(out, name);
    out += ":{\"count\":";
    ref_u64(out, h.count());
    out += ",\"sum\":";
    ref_u64(out, h.sum());
    if (h.count() > 0) {
      out += ",\"min\":";
      ref_u64(out, h.min());
      out += ",\"max\":";
      ref_u64(out, h.max());
    }
    out += ",\"buckets\":{";
    bool first_bucket = true;
    for (int i = 0; i < obs::Log2Histogram::kNumBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += '"';
      ref_u64(out, obs::Log2Histogram::bucket_lower_bound(i));
      out += "\":";
      ref_u64(out, h.bucket(i));
    }
    out += "}}";
  }
  out += "}}";
}

std::string ref_header_line(const CheckpointHeader& h) {
  std::string line = "{\"type\":\"header\",\"seed\":";
  ref_u64(line, h.seed);
  line += ",\"injections\":";
  ref_u64(line, static_cast<std::uint64_t>(h.injections));
  line += ",\"shards\":";
  ref_u64(line, static_cast<std::uint64_t>(h.shards));
  line += ",\"bias\":";
  ref_double(line, h.activation_bias);
  line += ",\"warmup\":";
  ref_u64(line, static_cast<std::uint64_t>(h.warmup_activations));
  line += ",\"gap\":";
  ref_u64(line, static_cast<std::uint64_t>(h.stream_gap));
  line += ",\"importance\":";
  line += h.importance ? '1' : '0';
  line += ",\"every\":";
  ref_u64(line, static_cast<std::uint64_t>(h.checkpoint_every));
  line += ",\"fmt\":";
  ref_u64(line, h.records_format);
  line += "}\n";
  return line;
}

std::string ref_checkpoint_line(const ShardCheckpoint& c) {
  std::string line = "{\"type\":\"ckpt\",\"shard\":";
  ref_u64(line, static_cast<std::uint64_t>(c.shard));
  line += ",\"iter\":";
  ref_u64(line, c.iterations);
  line += ",\"records\":";
  ref_u64(line, c.records_written);
  line += ",\"digest\":";
  ref_u64(line, c.digest);
  line += ",\"eff\":";
  ref_double(line, c.effective);
  line += ",\"sink_off\":";
  ref_u64(line, c.sink_offset);
  line += ",\"forensics\":";
  ref_u64(line, c.forensics_counter);
  line += ",\"acts\":";
  ref_u64(line, c.activations_generated);
  line += ",\"gen_rng\":\"";
  line += c.gen_rng;
  line += "\",\"main_rng\":\"";
  line += c.main_rng;
  line += "\",\"aux_rng\":\"";
  line += c.aux_rng;
  line += "\",\"tsc\":";
  ref_u64(line, c.tsc);
  line += ",\"mem\":[";
  bool first = true;
  for (const std::vector<std::uint64_t>& region : c.memory) {
    if (!first) line += ',';
    first = false;
    line += '"';
    ref_words(line, region);
    line += '"';
  }
  line += ']';
  if (!c.metrics.empty()) {
    line += ",\"metrics\":";
    ref_registry(line, c.metrics);
  }
  line += "}\n";
  return line;
}

// -- records ------------------------------------------------------------

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

/// 1, +0 and -0 (the writer's fast paths and the value they must not
/// catch), then values whose %.17g needs every digit, and the extremes.
const std::vector<double>& sweep_weights() {
  static const std::vector<double> w = {
      1.0,
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      1.0 - std::ldexp(1.0, -53),
      5e-324,
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::max(),
      -2.2250738585072014e-308,
      std::nextafter(1.0, 2.0),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  return w;
}

InjectionRecord random_record(std::mt19937_64& rng) {
  const auto any = [&rng] { return rng(); };
  InjectionRecord r;
  r.reason = {static_cast<hv::ExitCategory>(any() % 6),
              static_cast<int>(any())};
  r.activation_seed = any();
  r.vcpu = static_cast<int>(any());
  r.injection.at_step = any() >> (any() % 64);
  r.injection.reg = static_cast<sim::Reg>(any() % 256);
  r.injection.bit = static_cast<int>(any() % 64);
  r.injected = any() % 2 == 0;
  r.activated = any() % 2 == 0;
  r.consequence = static_cast<Consequence>(any() % kNumConsequences);
  r.detected = any() % 2 == 0;
  r.technique = static_cast<Technique>(any() % 256);
  r.latency = any() >> (any() % 64);
  r.trap = static_cast<sim::TrapKind>(any() % 256);
  r.assert_id = static_cast<std::uint32_t>(any());
  r.trace_diverged = any() % 2 == 0;
  r.undetected = static_cast<UndetectedClass>(any() % 5);
  r.features = {static_cast<std::int64_t>(any()),
                static_cast<std::int64_t>(any() >> 40),
                static_cast<std::int64_t>(any() % 1000),
                -static_cast<std::int64_t>(any() % 1000),
                static_cast<std::int64_t>(any())};
  const auto weight = [&] {
    const std::vector<double>& w = sweep_weights();
    return any() % 2 == 0 ? w[any() % w.size()]
                          : std::bit_cast<double>(any());
  };
  r.weight = weight();
  r.masked_weight = weight();
  return r;
}

/// Records that put each field at its extremes in turn: every consequence
/// and undetected class (and an unnamed value of each), every enum
/// through its whole underlying range, each integer field at 0 and at its
/// widest, and each sweep weight in both weight slots.
std::vector<InjectionRecord> sweep_records() {
  std::mt19937_64 rng(2903);
  std::vector<InjectionRecord> out;
  const auto vary = [&](auto&& set) {
    InjectionRecord r = random_record(rng);
    set(r);
    out.push_back(r);
  };
  for (unsigned c = 0; c <= kNumConsequences; ++c) {
    vary([c](InjectionRecord& r) { r.consequence = Consequence(c); });
  }
  for (unsigned u = 0; u <= 5; ++u) {
    vary([u](InjectionRecord& r) { r.undetected = UndetectedClass(u); });
  }
  for (unsigned v = 0; v < 256; ++v) {
    vary([v](InjectionRecord& r) {
      r.reason.category = hv::ExitCategory(v);
      r.injection.reg = sim::Reg(v);
      r.technique = Technique(v);
      r.trap = sim::TrapKind(v);
      r.consequence = Consequence(v);
      r.undetected = UndetectedClass(v);
    });
  }
  for (std::uint64_t u : {std::uint64_t{0}, std::uint64_t{9}, kU64Max}) {
    vary([u](InjectionRecord& r) { r.activation_seed = u; });
    vary([u](InjectionRecord& r) { r.injection.at_step = u; });
    vary([u](InjectionRecord& r) { r.latency = u; });
  }
  for (std::int64_t f : {std::int64_t{0}, kI64Min, kI64Max}) {
    for (int i = 0; i < kNumFeatures; ++i) {
      vary([f, i](InjectionRecord& r) {
        std::array<std::int64_t, kNumFeatures> a = r.features.as_array();
        a[static_cast<std::size_t>(i)] = f;
        r.features = {a[0], a[1], a[2], a[3], a[4]};
      });
    }
  }
  for (int v : {0, -1, kIntMin, kIntMax}) {
    vary([v](InjectionRecord& r) { r.reason.index = v; });
    vary([v](InjectionRecord& r) { r.vcpu = v; });
    vary([v](InjectionRecord& r) { r.injection.bit = v; });
  }
  for (std::uint32_t a : {0u, 0xffffffffu}) {
    vary([a](InjectionRecord& r) { r.assert_id = a; });
  }
  for (double w : sweep_weights()) {
    vary([w](InjectionRecord& r) { r.weight = w; });
    vary([w](InjectionRecord& r) { r.masked_weight = w; });
  }
  // Every field at its widest at once: the longest JSONL line.
  vary([](InjectionRecord& r) {
    r.reason = {hv::ExitCategory(255), kIntMin};
    r.activation_seed = r.injection.at_step = r.latency = kU64Max;
    r.vcpu = r.injection.bit = kIntMin;
    r.injection.reg = sim::Reg(255);
    r.consequence = Consequence::HypervisorCrash;
    r.technique = Technique(255);
    r.trap = sim::TrapKind(255);
    r.assert_id = 0xffffffffu;
    r.undetected = UndetectedClass::MisClassified;
    r.features = {kI64Min, kI64Min, kI64Min, kI64Min, kI64Min};
    r.weight = r.masked_weight = -2.2250738585072014e-308;
  });
  for (int i = 0; i < 2000; ++i) out.push_back(random_record(rng));
  return out;
}

TEST(WriterOracleTest, JsonlRecordsMatchTheReferenceWriterByteForByte) {
  std::string want, got;
  for (const InjectionRecord& r : sweep_records()) {
    want.clear();
    got = "prefix";  // the writer appends
    ref_jsonl(r, want);
    encode_record(r, obs::RecordFormat::kJsonl, got);
    ASSERT_EQ(got, "prefix" + want);
  }
}

TEST(WriterOracleTest, BinaryRecordsMatchTheReferenceWriterByteForByte) {
  std::string want, got;
  for (const InjectionRecord& r : sweep_records()) {
    want.clear();
    got = "prefix";
    ref_binary(r, want);
    encode_record(r, obs::RecordFormat::kBinary, got);
    ASSERT_EQ(got, "prefix" + want);
  }
}

TEST(WriterOracleTest, WeightsPrintAsPercent17g) {
  // The named spellings, independent of any reference writer: the fast
  // paths must not turn -0.0 into "0" or 1 - 2^-53 into "1".
  const std::pair<double, const char*> cases[] = {
      {1.0, "1"},
      {0.0, "0"},
      {-0.0, "-0"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3.0, "0.33333333333333331"},
      {1.0 - std::ldexp(1.0, -53), "0.99999999999999989"},
      {5e-324, "4.9406564584124654e-324"},
  };
  for (const auto& [w, text] : cases) {
    InjectionRecord r;
    r.weight = w;
    std::string line;
    encode_record(r, obs::RecordFormat::kJsonl, line);
    EXPECT_NE(line.find(std::string(",\"w\":") + text + ",\"mw\":"),
              std::string::npos)
        << line;
  }
}

// -- journal ------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class JournalOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("xentry_writer_oracle_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".ckpt"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// The bytes CheckpointJournal writes for `h` and then `lines`.
  std::string journal(const CheckpointHeader& h,
                      const std::vector<ShardCheckpoint>& lines) {
    auto j = CheckpointJournal::create(path_, h);
    EXPECT_TRUE(j != nullptr && j->ok());
    for (const ShardCheckpoint& c : lines) j->append(c);
    EXPECT_TRUE(j->ok());
    j.reset();
    return slurp(path_);
  }

  std::string path_;
};

/// Images of every zero-run shape: empty, all zero, all nonzero, and
/// random densities with the zeros at the start, the end, both or neither;
/// the nonzero words spread over every hex width.
std::vector<std::vector<std::uint64_t>> sweep_images(std::mt19937_64& rng) {
  std::vector<std::vector<std::uint64_t>> out = {
      {}, {0}, {1}, {kU64Max}, std::vector<std::uint64_t>(4992, 0)};
  const auto nonzero = [&rng] {
    const std::uint64_t v = rng() >> (rng() % 64);
    return v == 0 ? 1 : v;
  };
  for (std::size_t n : {1u, 2u, 3u, 17u, 512u, 4992u}) {
    for (int zero_ends = 0; zero_ends < 4; ++zero_ends) {
      for (unsigned density : {0u, 1u, 4u, 16u, 64u}) {
        std::vector<std::uint64_t> words(n);
        for (std::uint64_t& w : words) {
          w = density > 0 && rng() % 64 < density ? nonzero() : 0;
        }
        if (density == 64) {
          for (std::uint64_t& w : words) w = nonzero();
        }
        const std::size_t run = std::min<std::size_t>(n, 1 + rng() % 40);
        if ((zero_ends & 1) != 0) {
          std::fill(words.begin(), words.begin() + run, 0);
        }
        if ((zero_ends & 2) != 0) {
          std::fill(words.end() - run, words.end(), 0);
        }
        out.push_back(std::move(words));
      }
    }
  }
  return out;
}

TEST_F(JournalOracleTest, HeaderLineMatchesTheReferenceWriter) {
  std::vector<CheckpointHeader> headers(4);
  headers[1].seed = 7;
  headers[1].injections = 20000;
  headers[1].shards = 2;
  headers[1].warmup_activations = 32;
  headers[1].stream_gap = 2;
  headers[1].checkpoint_every = 1024;
  headers[1].records_format = 1;
  headers[2].seed = kU64Max;
  headers[2].injections = headers[2].shards = kIntMax;
  headers[2].activation_bias = 1.0 / 3.0;
  headers[2].warmup_activations = headers[2].stream_gap = kIntMax;
  headers[2].importance = true;
  headers[2].checkpoint_every = kIntMax;
  headers[2].records_format = 255;
  // Negative counts print as their unsigned wrap: the widest header.
  headers[3].injections = headers[3].shards = kIntMin;
  headers[3].activation_bias = -2.2250738585072014e-308;
  headers[3].warmup_activations = headers[3].stream_gap = -1;
  headers[3].checkpoint_every = kIntMin;
  for (const CheckpointHeader& h : headers) {
    EXPECT_EQ(journal(h, {}), ref_header_line(h));
  }
}

TEST_F(JournalOracleTest, CheckpointLinesMatchTheReferenceWriter) {
  std::mt19937_64 rng(2911);
  std::mt19937_64 engine(17);
  const std::vector<std::vector<std::uint64_t>> images = sweep_images(rng);

  std::vector<ShardCheckpoint> lines;
  ShardCheckpoint empty;  // no regions, empty RNG states
  lines.push_back(empty);
  ShardCheckpoint widest;
  widest.shard = kIntMin;
  widest.iterations = widest.records_written = widest.digest = kU64Max;
  widest.effective = -2.2250738585072014e-308;
  widest.sink_offset = kU64Max;
  widest.forensics_counter = widest.activations_generated = kU64Max;
  widest.tsc = kU64Max;
  widest.memory = {std::vector<std::uint64_t>(100, kU64Max), {0}, {}};
  // Every name byte escapes to six, and every bucket is full.
  const std::string controls(8, '\x1f');
  widest.metrics.counter(controls).inc(kU64Max);
  widest.metrics.gauge(controls).set(kI64Min);
  std::uint64_t full[obs::Log2Histogram::kNumBuckets];
  std::fill(std::begin(full), std::end(full), kU64Max);
  widest.metrics.histogram(controls) = obs::Log2Histogram::from_parts(
      full, kU64Max, kU64Max, kU64Max, kU64Max);
  lines.push_back(widest);
  // One line per image, then one line holding every image.
  for (std::size_t i = 0; i <= images.size(); ++i) {
    ShardCheckpoint c;
    c.shard = static_cast<int>(i % 7);
    c.iterations = rng();
    c.records_written = rng() >> 20;
    c.digest = rng();
    c.effective = std::bit_cast<double>(rng() >> 2);
    c.sink_offset = rng() >> 30;
    c.forensics_counter = rng() % 3;
    c.activations_generated = rng() >> 30;
    engine.discard(i);
    c.gen_rng = rng_state_string(engine);
    c.main_rng = rng_state_string(engine);
    c.aux_rng = i % 2 == 0 ? "" : rng_state_string(engine);
    c.tsc = rng();
    if (i < images.size()) {
      c.memory = {images[i]};
    } else {
      c.memory = images;
    }
    // Every other line carries a registry, with a name that needs
    // escapes, an empty histogram and one with observations.
    if (i % 2 == 1) {
      c.metrics.counter("campaign.injections").inc(rng() >> 44);
      c.metrics.counter("tab\tquote\"").inc(i);
      c.metrics.gauge("campaign.shards").set(static_cast<std::int64_t>(i) - 3);
      c.metrics.histogram("empty");
      obs::Log2Histogram& h = c.metrics.histogram("fault.iteration_ns");
      for (std::size_t k = 0; k < i; ++k) h.observe(rng() >> (rng() % 64));
    }
    lines.push_back(std::move(c));
  }

  CheckpointHeader h;
  h.shards = 7;
  std::string want = ref_header_line(h);
  for (const ShardCheckpoint& c : lines) want += ref_checkpoint_line(c);
  const std::string got = journal(h, lines);
  ASSERT_EQ(got.size(), want.size());
  // Line by line, so a mismatch names the line.
  std::size_t pos = 0;
  for (std::size_t line = 1; pos < want.size(); ++line) {
    const std::size_t eol = want.find('\n', pos) + 1;
    ASSERT_EQ(got.substr(pos, eol - pos), want.substr(pos, eol - pos))
        << "line " << line;
    pos = eol;
  }
}

}  // namespace
}  // namespace xentry::fault
