// Deterministic mutation test for the persisted format other than the
// record streams: the checkpoint journal, whose lines carry each shard's
// metrics registry, taken from one real 2-shard checkpointed campaign.
// The file takes seeded single-bit flips, truncations at every byte
// offset of one line, and splices of two lines, the same mutations
// RecordIoMutationTest applies to record streams.  Every read must return
// either a typed error or a value that is valid: a journal that reads
// back rewrites to a stable journal, registries included.  Run under the
// ASan/UBSan job, an out-of-bounds read fails the test too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "test_dir.hpp"

namespace xentry::fault {
namespace {

enum class Persisted { kJournal };

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spill(const std::string& path, std::string_view text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

class PersistedMutationTest : public ::testing::TestWithParam<Persisted> {
 protected:
  /// A 96-injection campaign on two shards, checkpointing every 16
  /// iterations with metrics on: a header and six checkpoint lines.
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = test::scratch_path("persisted_" + name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    CampaignConfig cfg;
    cfg.injections = 96;
    cfg.seed = 29;
    cfg.shards = 2;
    cfg.xentry.transition_detection = false;
    cfg.obs.metrics = true;
    cfg.streaming.records_path = dir_ + "/records";
    cfg.streaming.checkpoint_path = dir_ + "/records.ckpt";
    cfg.streaming.checkpoint_every = 16;
    cfg.streaming.keep_records = false;
    run_campaign(cfg);
    text_ = slurp(cfg.streaming.checkpoint_path);
    ASSERT_FALSE(text_.empty());
    for (std::size_t pos = 0; pos < text_.size();) {
      line_at_.push_back(pos);
      pos = text_.find('\n', pos) + 1;
      ASSERT_NE(pos, 0u) << "every line of a finished file ends in '\\n'";
    }
    line_at_.push_back(text_.size());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::size_t lines() const { return line_at_.size() - 1; }
  std::string_view line(std::size_t i) const {
    return std::string_view(text_).substr(line_at_[i],
                                          line_at_[i + 1] - line_at_[i]);
  }

  /// Reads one mutant and checks the outcome.
  void check(const std::string& mutant) {
    const std::string path = dir_ + "/mutant.ckpt";
    spill(path, mutant);
    const JournalContents j = read_journal(path);
    ASSERT_LE(j.intact_bytes, mutant.size());
    if (!j.error.empty()) {
      ASSERT_FALSE(j.valid);
      ASSERT_EQ(j.error.rfind(path + ":", 0), 0u) << j.error;
      return;
    }
    if (!j.valid) return;  // no intact header line
    ASSERT_EQ(j.shards.size(), static_cast<std::size_t>(j.header.shards));
    // A journal that reads is one the writer can write back, and the
    // rewritten journal reads back to itself.
    const std::string once = rewrite(j);
    const JournalContents again = read_journal(dir_ + "/rewrite.ckpt");
    ASSERT_TRUE(again.valid) << again.error;
    ASSERT_EQ(again.header, j.header);
    ASSERT_EQ(rewrite(again), once);
  }

  std::string rewrite(const JournalContents& j) const {
    const std::string path = dir_ + "/rewrite.ckpt";
    auto w = CheckpointJournal::create(path, j.header);
    for (const auto& ck : j.shards) {
      if (ck.has_value()) w->append(*ck);
    }
    w.reset();
    return slurp(path);
  }

  std::string dir_;
  std::string text_;
  std::vector<std::size_t> line_at_;  ///< line offsets, then the end
};

TEST_P(PersistedMutationTest, IntactFileReads) {
  // A checkpointed campaign with metrics on leaves its shard files and its
  // journal, and nothing else.
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{
                       "records.ckpt", "records.shard0.jsonl",
                       "records.shard1.jsonl"}));

  const std::string path = dir_ + "/intact.ckpt";
  spill(path, text_);
  const JournalContents j = read_journal(path);
  ASSERT_TRUE(j.valid) << j.error;
  // The header carries the campaign identity and nothing else.
  EXPECT_EQ(line(0).find("\"units\""), std::string_view::npos);
  EXPECT_EQ(lines(), 7u);
  for (const auto& ck : j.shards) {
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->iterations, 48u);
    const obs::Counter* injections =
        ck->metrics.find_counter("campaign.injections");
    ASSERT_NE(injections, nullptr);
    EXPECT_EQ(injections->value(), 48u);
  }
  check(text_);
}

TEST_P(PersistedMutationTest, SingleBitFlipsYieldErrorsOrValidValues) {
  std::mt19937_64 rng(0xf11b);
  for (int i = 0; i < 500; ++i) {
    std::string mutant = text_;
    const std::size_t at = rng() % mutant.size();
    mutant[at] = static_cast<char>(mutant[at] ^ (1 << (rng() % 8)));
    check(mutant);
    if (HasFatalFailure()) return;
  }
}

TEST_P(PersistedMutationTest, TruncationAtEveryOffsetOfALineIsATornTail) {
  // The first line after the header.  One file, cut shorter step by
  // step: no mutant is written out.
  const std::size_t k = 1;
  const std::string path = dir_ + "/torn.ckpt";
  spill(path, std::string_view(text_).substr(0, line_at_[k + 1]));
  for (std::size_t cut = line_at_[k + 1]; cut-- > line_at_[k];) {
    std::filesystem::resize_file(path, cut);
    const JournalContents j = read_journal(path);
    ASSERT_TRUE(j.valid) << j.error;
    ASSERT_EQ(j.intact_bytes, line_at_[k]) << cut;
  }
}

TEST_P(PersistedMutationTest, SplicedLinesYieldErrorsOrValidValues) {
  std::mt19937_64 rng(0x5b1c);
  for (int i = 0; i < 333; ++i) {
    const std::string_view a = line(rng() % lines());
    const std::string_view b = line(rng() % lines());
    std::string mutant = text_.substr(0, line_at_[rng() % lines()]);
    mutant += a.substr(0, rng() % (a.size() + 1));
    mutant += b.substr(rng() % (b.size() + 1));
    mutant += line(rng() % lines());
    check(mutant);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Files, PersistedMutationTest,
                         ::testing::Values(Persisted::kJournal),
                         [](const auto&) -> std::string { return "Journal"; });

}  // namespace
}  // namespace xentry::fault
