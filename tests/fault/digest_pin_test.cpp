// Absolute determinism pins.  Every other determinism test compares two
// runs of the current build with each other; these compare one run with a
// fixed value, so a change that moves every run the same way (a new draw,
// a reordered diff, a sync that leaks state into the faulted run) fails
// here.  The configurations mirror `bench/micro_campaign N S SEED [flags]`,
// whose `records_digest` field prints the same value.
//
// Rule: changing a pin needs a CHANGES.md line that names the cause.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/record_io.hpp"
#include "fault/report.hpp"
#include "hv/microvisor.hpp"
#include "test_dir.hpp"

namespace xentry::fault {
namespace {

/// micro_campaign's configuration for `injections shards seed`.
CampaignConfig micro_campaign_cfg(int injections, int shards) {
  CampaignConfig cfg;
  cfg.injections = injections;
  cfg.shards = shards;
  cfg.seed = 7;
  cfg.collect_dataset = true;
  cfg.xentry.transition_detection = true;
  return cfg;
}

TEST(DigestPinTest, UniformOneShard) {
  const auto res = run_campaign(micro_campaign_cfg(2000, 1));
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), 0xea90685bedc71d1bull);
}

TEST(DigestPinTest, UniformFourShards) {
  const auto res = run_campaign(micro_campaign_cfg(2000, 4));
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), 0x93cbe61a5fef0188ull);
}

// More shards than a typical host has cores: shards queue for the worker
// threads, and the records still equal the one-thread-per-shard run's.
TEST(DigestPinTest, UniformSixteenShards) {
  const auto res = run_campaign(micro_campaign_cfg(2000, 16));
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), 0x6cd4dbf1048d547eull);
}

// The default stream count is a constant, so a campaign that leaves it
// alone prints the same records on every host.
TEST(DigestPinTest, DefaultStreamCount) {
  const auto res =
      run_campaign(micro_campaign_cfg(2000, CampaignConfig{}.shards));
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), 0x93cbe61a5fef0188ull);
}

TEST(DigestPinTest, ImportanceSampled) {
  // `micro_campaign 2000 1 7 --sampling`.
  CampaignConfig cfg = micro_campaign_cfg(2000, 1);
  cfg.sampling.importance = true;
  cfg.analysis = std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(hv::build_microvisor(cfg.machine).program));
  const auto res = run_campaign(cfg);
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), 0x1a2dc40e709dc7b3ull);
}

/// `micro_campaign 2000 1 7 --records-out R --records-format F
/// --checkpoint R.ckpt`: a checkpointed run trades away the dataset and
/// transition detection.  Pins both the in-memory records and the ones
/// decoded back from the persisted shard file.
void expect_streamed_pin(obs::RecordFormat format, const std::string& tag,
                         std::uint64_t pin) {
  const std::string dir = test::scratch_path("digest_pin_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignConfig cfg = micro_campaign_cfg(2000, 1);
  cfg.collect_dataset = false;
  cfg.xentry.transition_detection = false;
  cfg.obs.metrics = true;
  cfg.streaming.records_path = dir + "/records";
  cfg.streaming.records_format = format;
  cfg.streaming.checkpoint_path = dir + "/records.ckpt";
  const auto res = run_campaign(cfg);
  ASSERT_FALSE(res.resumed);
  ASSERT_EQ(res.records_streamed, 2000u);
  EXPECT_EQ(records_digest(res.records), pin);

  std::ifstream in(obs::ShardedFileSink::shard_path(
                       cfg.streaming.records_path, cfg.streaming.records_format,
                       0),
                   std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<InjectionRecord> decoded;
  ASSERT_TRUE(decode_records(bytes, cfg.streaming.records_format, decoded));
  ASSERT_EQ(decoded.size(), 2000u);
  EXPECT_EQ(records_digest(decoded), pin);
  std::filesystem::remove_all(dir);
}

TEST(DigestPinTest, JsonlStreamedWithCheckpoint) {
  expect_streamed_pin(obs::RecordFormat::kJsonl, "jsonl",
                      0x6b4f35cc7be7acb9ull);
}

TEST(DigestPinTest, BinaryStreamedWithCheckpoint) {
  // Same campaign through the binary wire format (`--records-format bin`);
  // the digest covers records, not bytes, so the pin equals the JSONL one.
  expect_streamed_pin(obs::RecordFormat::kBinary, "binary",
                      0x6b4f35cc7be7acb9ull);
}

TEST(DigestPinTest, ForensicsEvidence) {
  // `micro_campaign 2000 1 7 --forensics-out F`: the records digest
  // excludes forensics, so this pins the lockstep replay's evidence, byte
  // for byte, as write_forensics_jsonl exports it.
  CampaignConfig cfg = micro_campaign_cfg(2000, 1);
  cfg.obs.forensics = true;
  const auto res = run_campaign(cfg);
  std::ostringstream os;
  write_forensics_jsonl(os, res.records);
  const std::string jsonl = os.str();
  std::uint64_t h = kDigestBasis;
  for (const unsigned char c : jsonl) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  ASSERT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 77);
  EXPECT_EQ(h, 0x071a354e0354f06aull) << std::hex << h;
}

TEST(DigestPinTest, FlightRecorderBlackbox) {
  // The flight-recorder campaign of CampaignTest: every frame of every
  // record's blackbox, `seq` included, so a faulted run that skips its
  // frame (or appends a different one) moves the pin.
  CampaignConfig cfg;
  cfg.injections = 600;
  cfg.seed = 9;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;
  cfg.obs.flight_recorder = true;
  cfg.obs.flight_recorder_depth = 8;
  const auto res = run_campaign(cfg);
  std::uint64_t h = kDigestBasis;
  std::size_t frames = 0;
  for (const InjectionRecord& r : res.records) {
    for (const obs::FlightFrame& f : r.blackbox()) {
      for (const std::uint64_t v :
           {f.seq, static_cast<std::uint64_t>(f.exit_code), f.steps,
            f.inst_retired, f.branches, f.loads, f.stores,
            static_cast<std::uint64_t>(f.source),
            static_cast<std::uint64_t>(f.reached_vm_entry),
            static_cast<std::uint64_t>(f.trap_kind),
            static_cast<std::uint64_t>(f.trap_aux), f.trap_addr}) {
        h = fnv1a(h, v);
      }
      ++frames;
    }
  }
  ASSERT_GT(frames, 0u);
  EXPECT_EQ(h, 0x45f60422395ac8eeull) << std::hex << h;
}

}  // namespace
}  // namespace xentry::fault
