#include "fault/record_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "fault/outcome.hpp"
#include "test_dir.hpp"

namespace xentry::fault {
namespace {

/// A record with every encoded field away from its default.
InjectionRecord sample_record(int i) {
  InjectionRecord r;
  switch (i % 3) {
    case 0:
      r.reason = hv::ExitReason::hypercall(static_cast<hv::Hypercall>(2));
      break;
    case 1:
      r.reason = hv::ExitReason::irq(5);
      break;
    default:
      r.reason = hv::ExitReason::softirq();
      break;
  }
  r.activation_seed = 0x123456789abcdef0ull + static_cast<std::uint64_t>(i);
  r.vcpu = i % 4;
  r.injection.at_step = 77 + static_cast<std::uint64_t>(i);
  r.injection.reg = static_cast<sim::Reg>(i % 8);
  r.injection.bit = (i * 7) % 64;
  r.injected = true;
  r.activated = i % 2 == 0;
  r.consequence = static_cast<Consequence>(i % kNumConsequences);
  r.detected = i % 2 == 1;
  r.technique = static_cast<Technique>(i % kNumTechniques);
  r.latency = 1000u * static_cast<std::uint64_t>(i);
  r.trap = sim::TrapKind::None;
  r.assert_id = static_cast<std::uint32_t>(i);
  r.trace_diverged = i % 5 == 0;
  r.undetected = static_cast<UndetectedClass>(i % 5);
  r.features = {100 + i, 200 + i, 300 + i, 400 + i, 500 + i};
  r.weight = 1.0 / (1.0 + i);  // exercises %.17g round-tripping
  r.masked_weight = 1.0 - r.weight;
  return r;
}

std::vector<InjectionRecord> sample_records(int n) {
  std::vector<InjectionRecord> recs;
  for (int i = 0; i < n; ++i) recs.push_back(sample_record(i));
  return recs;
}

class RecordIoFormatTest : public ::testing::TestWithParam<obs::RecordFormat> {
};

TEST_P(RecordIoFormatTest, EncodeDecodeRoundTripsEveryField) {
  const auto fmt = GetParam();
  const auto recs = sample_records(12);
  std::string stream;
  for (const auto& r : recs) encode_record(r, fmt, stream);

  std::vector<InjectionRecord> decoded;
  EXPECT_TRUE(decode_records(stream, fmt, decoded));
  ASSERT_EQ(decoded.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& a = recs[i];
    const auto& b = decoded[i];
    EXPECT_EQ(a.reason, b.reason) << i;
    EXPECT_EQ(a.activation_seed, b.activation_seed) << i;
    EXPECT_EQ(a.vcpu, b.vcpu) << i;
    EXPECT_EQ(a.injection.at_step, b.injection.at_step) << i;
    EXPECT_EQ(a.injection.reg, b.injection.reg) << i;
    EXPECT_EQ(a.injection.bit, b.injection.bit) << i;
    EXPECT_EQ(a.injected, b.injected) << i;
    EXPECT_EQ(a.activated, b.activated) << i;
    EXPECT_EQ(a.consequence, b.consequence) << i;
    EXPECT_EQ(a.detected, b.detected) << i;
    EXPECT_EQ(a.technique, b.technique) << i;
    EXPECT_EQ(a.latency, b.latency) << i;
    EXPECT_EQ(a.trap, b.trap) << i;
    EXPECT_EQ(a.assert_id, b.assert_id) << i;
    EXPECT_EQ(a.trace_diverged, b.trace_diverged) << i;
    EXPECT_EQ(a.undetected, b.undetected) << i;
    EXPECT_EQ(a.features.as_array(), b.features.as_array()) << i;
    // Weights survive exactly (%.17g / raw bits round-trip).
    EXPECT_EQ(a.weight, b.weight) << i;
    EXPECT_EQ(a.masked_weight, b.masked_weight) << i;
  }
  // The digest contract: the persisted stream is digest-equivalent to the
  // in-memory records it came from.
  EXPECT_EQ(records_digest(decoded), records_digest(recs));
}

TEST_P(RecordIoFormatTest, TruncatedStreamKeepsTheIntactPrefix) {
  const auto fmt = GetParam();
  const auto recs = sample_records(4);
  std::string stream;
  for (const auto& r : recs) encode_record(r, fmt, stream);

  std::string one;
  encode_record(recs[0], fmt, one);
  const std::string torn = stream.substr(0, stream.size() - one.size() / 2);
  std::vector<InjectionRecord> decoded;
  EXPECT_FALSE(decode_records(torn, fmt, decoded));
  EXPECT_EQ(decoded.size(), 3u);

  // decode_record on the torn tail reports failure without advancing.
  std::size_t pos = 0;
  std::string_view tail =
      std::string_view(torn).substr(torn.size() - one.size() / 2);
  InjectionRecord out;
  EXPECT_FALSE(decode_record(tail, fmt, pos, out));
  EXPECT_EQ(pos, 0u);
}

INSTANTIATE_TEST_SUITE_P(Formats, RecordIoFormatTest,
                         ::testing::Values(obs::RecordFormat::kJsonl,
                                           obs::RecordFormat::kBinary),
                         [](const auto& info) {
                           return std::string(
                               obs::record_format_name(info.param));
                         });

TEST(RecordIoTest, FormatsAreDecodeEquivalent) {
  const auto recs = sample_records(8);
  std::string jsonl, bin;
  for (const auto& r : recs) {
    encode_record(r, obs::RecordFormat::kJsonl, jsonl);
    encode_record(r, obs::RecordFormat::kBinary, bin);
  }
  std::vector<InjectionRecord> from_jsonl, from_bin;
  ASSERT_TRUE(decode_records(jsonl, obs::RecordFormat::kJsonl, from_jsonl));
  ASSERT_TRUE(decode_records(bin, obs::RecordFormat::kBinary, from_bin));
  ASSERT_EQ(from_jsonl.size(), from_bin.size());
  EXPECT_EQ(records_digest(from_jsonl), records_digest(from_bin));
  // Binary earns its keep: meaningfully denser than JSONL.
  EXPECT_LT(bin.size(), jsonl.size());
}

TEST(RecordIoTest, DigestIgnoresPostmortemPayloadsAndWeights) {
  InjectionRecord a = sample_record(1);
  InjectionRecord b = a;
  b.weight = 0.125;
  b.masked_weight = 0.875;
  b.postmortem.fill().blackbox.resize(3);
  const std::uint64_t da = digest_update(kDigestBasis, a);
  EXPECT_EQ(da, digest_update(kDigestBasis, b));

  // But every digested field matters.
  InjectionRecord c = a;
  c.latency += 1;
  EXPECT_NE(da, digest_update(kDigestBasis, c));
  InjectionRecord d = a;
  d.detected = !d.detected;
  EXPECT_NE(da, digest_update(kDigestBasis, d));
}

TEST(RecordIoTest, StreamDigestIsTheFoldOfRecordDigests) {
  const auto recs = sample_records(5);
  std::uint64_t h = kDigestBasis;
  for (const auto& r : recs) h = digest_update(h, r);
  EXPECT_EQ(records_digest(recs), h);
  EXPECT_EQ(records_digest({}), kDigestBasis);
}

/// FNV-1a as defined: every one of the 8 bytes, low byte first.
std::uint64_t fnv1a_bytewise(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(RecordIoTest, Fnv1aFoldsHighZeroBytesExactly) {
  const std::uint64_t kStarts[] = {kDigestBasis, 0, 1, ~0ull,
                                   0x0123456789abcdefull};
  const std::uint64_t kEdges[] = {0,
                                  1,
                                  0xff,
                                  0x100,
                                  (1ull << 56) - 1,
                                  1ull << 56,
                                  1ull << 63,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t h : kStarts) {
    for (std::uint64_t v : kEdges) {
      EXPECT_EQ(fnv1a(h, v), fnv1a_bytewise(h, v)) << h << " " << v;
    }
  }
  // Every significant-byte length, 0 to 8, from several starting h.
  std::mt19937_64 rng(0xf1a);
  for (int i = 0; i < 100000; ++i) {
    const int bytes = i % 9;
    // `bytes` significant bytes: random low bytes, top one nonzero.
    const std::uint64_t v =
        bytes == 0 ? 0
                   : (rng() >> (8 * (8 - bytes))) | (1ull << (8 * bytes - 1));
    const std::uint64_t h = kStarts[static_cast<std::size_t>(i / 9) % 5];
    ASSERT_EQ(fnv1a(h, v), fnv1a_bytewise(h, v)) << h << " " << v;
  }
}

TEST(RecordIoTest, JsonlFramesAreSingleTerminatedLines) {
  std::string out;
  encode_record(sample_record(0), obs::RecordFormat::kJsonl, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(out.find('\n'), out.size() - 1);  // no embedded newlines
  EXPECT_EQ(out.front(), '{');
}

// -- JSONL decoding contract ------------------------------------------------

std::string jsonl_line(const InjectionRecord& r) {
  std::string out;
  encode_record(r, obs::RecordFormat::kJsonl, out);
  return out;
}

/// The members of a writer's line, each `"key":value`.  Only the feature
/// array holds commas, and those are never followed by a quote.
std::vector<std::string> jsonl_members(const std::string& line) {
  const std::string body = line.substr(1, line.size() - 3);  // drop {, }\n
  std::vector<std::string> members;
  std::size_t at = 0;
  for (std::size_t next; (next = body.find(",\"", at)) != std::string::npos;
       at = next + 1) {
    members.push_back(body.substr(at, next - at));
  }
  members.push_back(body.substr(at));
  return members;
}

std::string join_members(const std::vector<std::string>& members) {
  std::string line = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) line += ',';
    line += members[i];
  }
  return line + "}\n";
}

/// `line` with the member for `key` rewritten to `"key":value`.
std::string with_member(const std::string& line, std::string_view key,
                        std::string_view value) {
  std::vector<std::string> members = jsonl_members(line);
  const std::string prefix = "\"" + std::string(key) + "\":";
  for (std::string& m : members) {
    if (m.starts_with(prefix)) m = prefix + std::string(value);
  }
  return join_members(members);
}

std::string without_member(const std::string& line, std::string_view key) {
  std::vector<std::string> members = jsonl_members(line);
  const std::string prefix = "\"" + std::string(key) + "\":";
  std::erase_if(members,
                [&](const std::string& m) { return m.starts_with(prefix); });
  return join_members(members);
}

/// Decodes `frame` placed after one good frame, so a rejection can be
/// seen to leave a nonzero `pos` where it was.
bool decodes_after_a_good_frame(const std::string& frame,
                                obs::RecordFormat fmt, InjectionRecord& out) {
  std::string data;
  encode_record(sample_record(0), fmt, data);
  const std::size_t start = data.size();
  data += frame;
  std::size_t pos = start;
  if (!decode_record(data, fmt, pos, out)) {
    EXPECT_EQ(pos, start) << "a rejected frame moved pos";
    return false;
  }
  EXPECT_EQ(pos, data.size());
  return true;
}

bool decodes(const std::string& frame, obs::RecordFormat fmt) {
  InjectionRecord out;
  return decodes_after_a_good_frame(frame, fmt, out);
}

bool jsonl_decodes(const std::string& line) {
  return decodes(line, obs::RecordFormat::kJsonl);
}

TEST(RecordIoJsonlTest, AnyKeyOrderAndWhitespaceDecodeToTheSameRecord) {
  const InjectionRecord r = sample_record(7);
  const std::string line = jsonl_line(r);
  std::vector<std::string> members = jsonl_members(line);
  ASSERT_EQ(members.size(), 20u);
  std::mt19937 rng(20);
  std::shuffle(members.begin(), members.end(), rng);
  // Each member becomes `key\t: \r value`, every ',' inside it " ,  ".
  const auto spread_commas = [](std::string_view s) {
    std::string out;
    for (const char ch : s) {
      if (ch == ',') {
        out += " ,  ";
      } else {
        out += ch;
      }
    }
    return out;
  };
  std::string spaced = " {\t";
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string_view m = members[i];
    const std::size_t colon = m.find(':');
    spaced += (i > 0 ? " ,\t" : "") + spread_commas(m.substr(0, colon)) +
              "\t: \r " + spread_commas(m.substr(colon + 1));
  }
  spaced += " }  \r\n";

  InjectionRecord out;
  ASSERT_TRUE(decodes_after_a_good_frame(spaced, obs::RecordFormat::kJsonl,
                                         out));
  EXPECT_EQ(jsonl_line(out), line);
  EXPECT_EQ(out.weight, r.weight);
  EXPECT_EQ(out.masked_weight, r.masked_weight);
}

TEST(RecordIoJsonlTest, WriterLinesStillDecode) {
  EXPECT_TRUE(jsonl_decodes(jsonl_line(sample_record(4))));
}

TEST(RecordIoJsonlTest, RejectsDuplicateUnknownAndMissingKeys) {
  const std::string line = jsonl_line(sample_record(4));
  std::vector<std::string> members = jsonl_members(line);
  members.push_back("\"seed\":1");
  EXPECT_FALSE(jsonl_decodes(join_members(members)));
  members.back() = "\"extra\":1";
  EXPECT_FALSE(jsonl_decodes(join_members(members)));
  // A missing required key is an error, never a default of 0.
  EXPECT_FALSE(jsonl_decodes(without_member(line, "seed")));
  EXPECT_FALSE(jsonl_decodes(without_member(line, "f")));
  EXPECT_FALSE(jsonl_decodes("{}\n"));
}

TEST(RecordIoJsonlTest, FlagsAreExactlyZeroOrOne) {
  const std::string line = jsonl_line(sample_record(4));
  EXPECT_TRUE(jsonl_decodes(with_member(line, "inj", "0")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "inj", "2")));
  // A JSON boolean is not a flag.
  EXPECT_FALSE(jsonl_decodes(with_member(line, "inj", "true")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "det", "10")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "div", "1.0")));
}

TEST(RecordIoJsonlTest, RejectsEscapesNumbersOutOfSyntaxAndTrailingBytes) {
  const std::string line = jsonl_line(sample_record(4));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "cons", "\"m\\u0061sked\"")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "cons", "\"nonsense\"")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "seed", "-1")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "seed", "+1")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "seed", "01")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "lat", "1e3")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "f", "[1,2,3,4]")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "f", "[1,2,3,4,5,6]")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "w", ".5")));

  std::string trailing = line;
  trailing.insert(trailing.size() - 1, "x");
  EXPECT_FALSE(jsonl_decodes(trailing));
  trailing = line;
  trailing.insert(trailing.size() - 1, "}");
  EXPECT_FALSE(jsonl_decodes(trailing));
}

TEST(RecordIoJsonlTest, AbsentWeightsDefaultToUniformSampling) {
  InjectionRecord r = sample_record(4);
  r.weight = 0.25;
  r.masked_weight = 0.75;
  const std::string line =
      without_member(without_member(jsonl_line(r), "w"), "mw");
  InjectionRecord out;
  ASSERT_TRUE(decodes_after_a_good_frame(line, obs::RecordFormat::kJsonl,
                                         out));
  EXPECT_EQ(out.weight, 1.0);
  EXPECT_EQ(out.masked_weight, 0.0);
  EXPECT_EQ(out.activation_seed, r.activation_seed);
}

TEST(RecordIoJsonlTest, RejectsAssertIdsAboveUint32) {
  const std::string line = jsonl_line(sample_record(4));
  EXPECT_TRUE(jsonl_decodes(with_member(line, "assert", "4294967295")));
  EXPECT_FALSE(jsonl_decodes(with_member(line, "assert", "4294967296")));
}

// -- range checks, both formats ---------------------------------------------

TEST_P(RecordIoFormatTest, RangeChecksRejectOutOfRangeRecords) {
  const auto fmt = GetParam();
  const auto frame = [&](const InjectionRecord& r) {
    std::string out;
    encode_record(r, fmt, out);
    return out;
  };
  const auto with_reason = [&](hv::ExitCategory cat, int index) {
    InjectionRecord r = sample_record(4);
    r.reason = {cat, index};
    return frame(r);
  };
  using hv::ExitCategory;
  const std::pair<ExitCategory, int> kCounts[] = {
      {ExitCategory::Hypercall, hv::kNumHypercalls},
      {ExitCategory::Exception, hv::kNumGuestExceptions},
      {ExitCategory::Apic, hv::kNumApicInterrupts},
      {ExitCategory::Irq, hv::kNumIrqLines},
      {ExitCategory::Softirq, 1},
      {ExitCategory::Tasklet, 1},
  };
  for (const auto& [cat, count] : kCounts) {
    const int c = static_cast<int>(cat);
    EXPECT_TRUE(decodes(with_reason(cat, count - 1), fmt)) << c;
    EXPECT_FALSE(decodes(with_reason(cat, count), fmt)) << c;
    EXPECT_FALSE(decodes(with_reason(cat, -1), fmt)) << c;
  }
  // hv::handler_symbol indexes its tables with whatever decodes here.
  EXPECT_FALSE(decodes(with_reason(ExitCategory::Hypercall, 999), fmt));
  EXPECT_FALSE(decodes(with_reason(static_cast<ExitCategory>(6), 0), fmt));

  const auto mutated = [&](auto&& edit) {
    InjectionRecord r = sample_record(4);
    edit(r);
    return frame(r);
  };
  EXPECT_TRUE(decodes(mutated([](auto& r) { r.vcpu = 15; }), fmt));
  EXPECT_FALSE(decodes(mutated([](auto& r) { r.vcpu = 16; }), fmt));
  EXPECT_FALSE(decodes(mutated([](auto& r) { r.vcpu = -1; }), fmt));
  EXPECT_TRUE(decodes(mutated([](auto& r) { r.injection.bit = 63; }), fmt));
  EXPECT_FALSE(decodes(mutated([](auto& r) { r.injection.bit = 64; }), fmt));
  EXPECT_FALSE(decodes(mutated([](auto& r) { r.injection.bit = -1; }), fmt));
  EXPECT_FALSE(decodes(mutated([](auto& r) {
                         r.injection.reg = static_cast<sim::Reg>(
                             sim::kNumArchRegs);
                       }),
                       fmt));

  const double kBad[] = {-0.5, 1.5, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()};
  for (double w : kBad) {
    EXPECT_FALSE(decodes(mutated([&](auto& r) { r.weight = w; }), fmt)) << w;
    EXPECT_FALSE(decodes(mutated([&](auto& r) { r.masked_weight = w; }), fmt))
        << w;
  }
  EXPECT_TRUE(decodes(mutated([](auto& r) {
                        r.weight = 0.0;
                        r.masked_weight = 1.0;
                      }),
                      fmt));
}

// -- decode sizing and the failure contract, both formats --------------------

std::string stream_of(const std::vector<InjectionRecord>& recs,
                      obs::RecordFormat fmt) {
  std::string out;
  for (const auto& r : recs) encode_record(r, fmt, out);
  return out;
}

TEST_P(RecordIoFormatTest, DecodeIntoAnEmptyVectorAllocatesExactly) {
  const auto fmt = GetParam();
  std::vector<InjectionRecord> out;
  ASSERT_TRUE(decode_records(stream_of(sample_records(37), fmt), fmt, out));
  EXPECT_EQ(out.size(), 37u);
  EXPECT_EQ(out.capacity(), out.size());
}

TEST_P(RecordIoFormatTest, AppendingAStreamReallocatesAtMostOnce) {
  const auto fmt = GetParam();
  const auto recs = sample_records(40);
  std::vector<InjectionRecord> out;
  ASSERT_TRUE(decode_records(stream_of(sample_records(10), fmt), fmt, out));
  // One reserve lands on max(needed, 2 * old capacity) exactly; growing
  // element by element would double past `needed` (10 -> 20 -> 40 -> 80).
  for (const int n : {40, 3}) {
    const std::vector<InjectionRecord> more(recs.begin(), recs.begin() + n);
    const std::size_t needed = out.size() + static_cast<std::size_t>(n);
    const std::size_t cap = out.capacity();
    ASSERT_TRUE(decode_records(stream_of(more, fmt), fmt, out));
    EXPECT_EQ(out.size(), needed);
    EXPECT_EQ(out.capacity(),
              needed <= cap ? cap : std::max(needed, 2 * cap)) << n;
  }
  EXPECT_EQ(records_digest(std::vector<InjectionRecord>(out.begin() + 10,
                                                        out.begin() + 50)),
            records_digest(recs));
}

TEST_P(RecordIoFormatTest, CorruptKthFrameAppendsExactlyTheFramesBeforeIt) {
  const auto fmt = GetParam();
  const auto recs = sample_records(6);
  const auto head = sample_records(2);
  for (int k = 1; k <= 6; ++k) {
    // Framing intact, every field decoded, then the range check fails.
    auto bad = recs;
    bad[static_cast<std::size_t>(k - 1)].vcpu = 16;
    std::vector<InjectionRecord> out = head;
    EXPECT_FALSE(decode_records(stream_of(bad, fmt), fmt, out)) << k;
    ASSERT_EQ(out.size(), head.size() + static_cast<std::size_t>(k - 1)) << k;
    EXPECT_EQ(stream_of(out, fmt),
              stream_of(head, fmt) +
                  stream_of({recs.begin(), recs.begin() + (k - 1)}, fmt))
        << k;
  }
}

TEST_P(RecordIoFormatTest, FailedDecodeRecordLeavesOutAndPosUntouched) {
  const auto fmt = GetParam();
  InjectionRecord out = sample_record(3);
  Postmortem& pm = out.postmortem.fill();
  pm.blackbox.resize(2);
  pm.blackbox[1].seq = 99;
  pm.blackbox[1].trap_addr = 0x4000;
  pm.forensics.emplace();
  pm.forensics->attributed = 2;
  const Postmortem* payload = out.postmortem.get();
  const InjectionRecord before = out;

  // A frame whose every field decodes before its range check fails.
  InjectionRecord bad = sample_record(4);
  bad.vcpu = 16;
  std::string data;
  encode_record(sample_record(0), fmt, data);
  const std::size_t start = data.size();
  encode_record(bad, fmt, data);
  std::size_t pos = start;
  EXPECT_FALSE(decode_record(data, fmt, pos, out));
  EXPECT_EQ(pos, start);
  EXPECT_EQ(stream_of({out}, fmt), stream_of({before}, fmt));
  // The payload is the same allocation, with the same contents.
  EXPECT_EQ(out.postmortem.get(), payload);
  EXPECT_TRUE(std::ranges::equal(out.blackbox(), before.blackbox()));
  ASSERT_NE(out.forensics(), nullptr);
  EXPECT_EQ(out.forensics()->attributed, 2);
}

TEST_P(RecordIoFormatTest, FramePreCountIsBoundedOnHostileBytes) {
  const auto fmt = GetParam();
  std::string stream;
  std::vector<std::size_t> frame_at;
  for (const auto& r : sample_records(16)) {
    frame_at.push_back(stream.size());
    encode_record(r, fmt, stream);
  }
  std::vector<std::string> mutants = {std::string(64, '\0'),
                                      std::string(64, '\n'), "\n", "x"};
  std::mt19937_64 rng(0xc0c0);
  const std::uint32_t kPrefixes[] = {0, 1, 3, 4, 102, 103, 104, 0xffffffffu};
  for (int i = 0; i < 400; ++i) {
    std::string m = stream;
    // A length prefix in binary, a stray newline in JSONL, at a frame start
    // or anywhere.
    const std::size_t at = i % 4 < 2 ? frame_at[rng() % frame_at.size()]
                                     : rng() % m.size();
    const std::uint32_t len =
        i % 2 == 0 ? kPrefixes[rng() % 8] : static_cast<std::uint32_t>(rng());
    if (fmt == obs::RecordFormat::kJsonl) {
      m.insert(at, i % 3 == 0 ? "\n\n\n" : "\n");
    } else {
      for (int b = 0; b < 4 && at + static_cast<std::size_t>(b) < m.size();
           ++b) {
        m[at + static_cast<std::size_t>(b)] =
            static_cast<char>((len >> (8 * b)) & 0xff);
      }
    }
    mutants.push_back(m);
  }
  for (const std::string& m : mutants) {
    std::vector<InjectionRecord> out;
    decode_records(m, fmt, out);
    // On an empty vector the one reserve is exactly the pre-count.
    EXPECT_LE(out.capacity(), m.size() / 4 + 1) << m.size();
  }
}

TEST(RecordIoBinaryTest, RejectsUnknownFlagBits) {
  std::string frame;
  encode_record(sample_record(4), obs::RecordFormat::kBinary, frame);
  // length(4) cat(1) idx(4) seed(8) vcpu(4) step(8) reg(1) bit(4), then flags.
  constexpr std::size_t kFlagsAt = 34;
  ASSERT_TRUE(decodes(frame, obs::RecordFormat::kBinary));
  frame[kFlagsAt] = static_cast<char>(frame[kFlagsAt] | 0x10);
  EXPECT_FALSE(decodes(frame, obs::RecordFormat::kBinary));
}

TEST(RecordIoTest, DecodeShardFileNamesTheFileAndTheFirstBadRecord) {
  const auto recs = sample_records(3);
  std::string stream;
  for (const auto& r : recs) {
    encode_record(r, obs::RecordFormat::kJsonl, stream);
  }
  std::vector<InjectionRecord> out(5);  // indices count within this file
  EXPECT_EQ(decode_shard_file(stream, "s.jsonl", obs::RecordFormat::kJsonl,
                              out),
            std::nullopt);
  EXPECT_EQ(out.size(), 8u);
  stream += with_member(jsonl_line(recs[0]), "inj", "true");
  stream += jsonl_line(recs[1]);
  out.clear();
  EXPECT_EQ(decode_shard_file(stream, "s.jsonl", obs::RecordFormat::kJsonl,
                              out),
            "s.jsonl: record 4 does not decode");
  EXPECT_EQ(out.size(), 3u);
}

TEST(RecordIoTest, ReadShardStreamTellsTheFormatByExtension) {
  const std::string dir = test::scratch_path("read_shard_stream");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/run";
  const auto recs = sample_records(5);
  const auto write_shard = [&](obs::RecordFormat fmt, std::size_t shard,
                               std::size_t first, std::size_t end) {
    std::string bytes;
    for (std::size_t i = first; i < end; ++i) {
      encode_record(recs[i], fmt, bytes);
    }
    std::ofstream(obs::ShardedFileSink::shard_path(base, fmt, shard),
                  std::ios::binary)
        << bytes;
  };
  ShardStream none;
  EXPECT_EQ(read_shard_stream(base, none),
            "no shard files found for '" + base + "'");

  for (const obs::RecordFormat fmt :
       {obs::RecordFormat::kBinary, obs::RecordFormat::kJsonl}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    write_shard(fmt, 0, 0, 2);
    write_shard(fmt, 1, 2, 5);
    ShardStream stream;
    ASSERT_EQ(read_shard_stream(base, stream), std::nullopt);
    EXPECT_EQ(stream.shard_ends, (std::vector<std::size_t>{2, 5}));
    EXPECT_EQ(records_digest(stream.records), records_digest(recs));
  }
  // A second kind of shard under the same base, at any index, is refused.
  write_shard(obs::RecordFormat::kBinary, 2, 0, 1);
  ShardStream mixed;
  EXPECT_EQ(read_shard_stream(base, mixed),
            "both .jsonl and .bin shard files found for '" + base + "'");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xentry::fault
