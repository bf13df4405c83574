// Deterministic mutation test for the record codec: hostile bytes reach
// fault::decode_records from every shard file a tool reads back.  A
// 64-record stream in each format takes seeded single-bit flips,
// truncations at every byte offset of one frame, and splices of two
// frames.  Every decode must return, and every record it yields must be
// in range and survive a re-encode.  Run under the ASan/UBSan job, an
// out-of-bounds read fails the test too.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "fault/outcome.hpp"
#include "fault/record_io.hpp"

namespace xentry::fault {
namespace {

constexpr int kRecords = 64;

/// Varied in-range records: every exit category, both sampling modes, and
/// weights that need all 17 digits.
InjectionRecord varied_record(std::mt19937_64& rng, int i) {
  constexpr int kReasonCounts[] = {hv::kNumHypercalls,
                                   hv::kNumGuestExceptions,
                                   hv::kNumApicInterrupts, hv::kNumIrqLines,
                                   1, 1};
  InjectionRecord r;
  const int cat = i % 6;
  r.reason = {static_cast<hv::ExitCategory>(cat),
              static_cast<int>(rng() % kReasonCounts[cat])};
  r.activation_seed = rng();
  r.vcpu = static_cast<int>(rng() % 16);
  r.injection.at_step = rng() % 100000;
  r.injection.reg = static_cast<sim::Reg>(rng() % sim::kNumArchRegs);
  r.injection.bit = static_cast<int>(rng() % 64);
  r.injected = true;
  r.activated = (rng() & 1) != 0;
  r.consequence = static_cast<Consequence>(rng() % kNumConsequences);
  r.detected = (rng() & 1) != 0;
  r.technique = static_cast<Technique>(rng() % kNumTechniques);
  r.latency = rng() % 5000;
  r.trap = static_cast<sim::TrapKind>(
      rng() % (static_cast<int>(sim::TrapKind::StackCheck) + 1));
  r.assert_id = static_cast<std::uint32_t>(rng());
  r.trace_diverged = (rng() & 1) != 0;
  r.undetected = static_cast<UndetectedClass>(rng() % 5);
  r.features = {r.reason.code(), static_cast<std::int64_t>(rng() % 400),
                static_cast<std::int64_t>(rng() % 90), -7,
                static_cast<std::int64_t>(rng() % 60)};
  if (i % 2 == 0) {
    r.weight = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    r.masked_weight = 1.0 - r.weight;
  }
  return r;
}

std::string encoded(const InjectionRecord& r, obs::RecordFormat fmt) {
  std::string out;
  encode_record(r, fmt, out);
  return out;
}

class RecordIoMutationTest
    : public ::testing::TestWithParam<obs::RecordFormat> {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(0x5eed);
    for (int i = 0; i < kRecords; ++i) {
      frame_at_.push_back(stream_.size());
      encode_record(varied_record(rng, i), GetParam(), stream_);
    }
    frame_at_.push_back(stream_.size());
  }

  std::string_view frame(std::size_t i) const {
    return std::string_view(stream_).substr(
        frame_at_[i], frame_at_[i + 1] - frame_at_[i]);
  }

  /// Decodes one mutant and checks every record it yields.
  void check(const std::string& mutant) {
    std::vector<InjectionRecord> out;
    decode_records(mutant, GetParam(), out);
    for (const InjectionRecord& r : out) {
      ASSERT_TRUE(record_in_range(r));
      // Re-encoded, the record decodes back to itself: encoding covers
      // every persisted field, so equal bytes mean an equal record.
      const std::string bytes = encoded(r, GetParam());
      std::size_t pos = 0;
      InjectionRecord again;
      ASSERT_TRUE(decode_record(bytes, GetParam(), pos, again));
      ASSERT_EQ(pos, bytes.size());
      ASSERT_EQ(encoded(again, GetParam()), bytes);
    }
  }

  std::string stream_;
  std::vector<std::size_t> frame_at_;  ///< frame offsets, then the end
};

TEST_P(RecordIoMutationTest, IntactStreamDecodesWhole) {
  std::vector<InjectionRecord> out;
  ASSERT_TRUE(decode_records(stream_, GetParam(), out));
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kRecords));
  check(stream_);
}

TEST_P(RecordIoMutationTest, SingleBitFlipsYieldOnlyValidRecords) {
  std::mt19937_64 rng(0xf11b);
  for (int i = 0; i < 1500; ++i) {
    std::string mutant = stream_;
    const std::size_t at = rng() % mutant.size();
    mutant[at] = static_cast<char>(mutant[at] ^ (1 << (rng() % 8)));
    check(mutant);
    if (HasFatalFailure()) return;
  }
}

TEST_P(RecordIoMutationTest, TruncationAtEveryOffsetOfAFrameKeepsThePrefix) {
  const std::size_t k = kRecords / 2;
  for (std::size_t cut = frame_at_[k]; cut < frame_at_[k + 1]; ++cut) {
    const std::string mutant = stream_.substr(0, cut);
    std::vector<InjectionRecord> out;
    EXPECT_EQ(decode_records(mutant, GetParam(), out), cut == frame_at_[k])
        << cut;
    EXPECT_EQ(out.size(), k) << cut;
    check(mutant);
    if (HasFatalFailure()) return;
  }
}

TEST_P(RecordIoMutationTest, SplicedFramesYieldOnlyValidRecords) {
  std::mt19937_64 rng(0x5b1c);
  for (int i = 0; i < 1000; ++i) {
    const std::string_view a = frame(rng() % kRecords);
    const std::string_view b = frame(rng() % kRecords);
    const std::size_t head = frame_at_[rng() % kRecords];
    std::string mutant = stream_.substr(0, head);
    mutant += a.substr(0, rng() % (a.size() + 1));
    mutant += b.substr(rng() % (b.size() + 1));
    mutant += frame(rng() % kRecords);
    check(mutant);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, RecordIoMutationTest,
                         ::testing::Values(obs::RecordFormat::kJsonl,
                                           obs::RecordFormat::kBinary),
                         [](const auto& info) {
                           return std::string(
                               obs::record_format_name(info.param));
                         });

}  // namespace
}  // namespace xentry::fault
