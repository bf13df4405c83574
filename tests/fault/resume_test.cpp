// Kill/resume determinism: a campaign killed at (or between) checkpoint
// boundaries and resumed under the identical config must reproduce the
// uninterrupted run's record stream byte for byte — same records digest,
// same merged (timing-stripped) metrics.  `streaming.abort_after` is the
// in-process SIGKILL: the shard drops its buffered sink bytes and returns
// without a final flush or checkpoint, exactly what a killed process
// leaves behind.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "hv/machine.hpp"
#include "hv/microvisor.hpp"
#include "obs/metrics.hpp"
#include "test_dir.hpp"

namespace xentry::fault {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Decodes the persisted shard streams in shard order — the full-stream
/// view a resumed run cannot hold in memory.
std::vector<InjectionRecord> decode_stream(const std::string& base,
                                           obs::RecordFormat fmt, int shards) {
  std::vector<InjectionRecord> recs;
  for (int s = 0; s < shards; ++s) {
    const std::string path = obs::ShardedFileSink::shard_path(
        base, fmt, static_cast<std::size_t>(s));
    EXPECT_TRUE(decode_records(slurp(path), fmt, recs)) << path;
  }
  return recs;
}

/// Wall-clock-derived metrics, which differ between any two runs: latency
/// histograms (…_ns/…_us) and throughput rates (…per_sec, …elapsed…).
bool is_timing_metric(std::string_view name) {
  return name.ends_with("_ns") || name.ends_with("_us") ||
         name.find("per_sec") != std::string_view::npos ||
         name.find("elapsed") != std::string_view::npos;
}

obs::MetricsRegistry strip_timing_metrics(const obs::MetricsRegistry& reg) {
  obs::MetricsRegistry out;
  for (const auto& [name, c] : reg.counters()) {
    if (!is_timing_metric(name)) out.counter(name).inc(c.value());
  }
  for (const auto& [name, g] : reg.gauges()) {
    if (!is_timing_metric(name)) out.gauge(name).set(g.value());
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (!is_timing_metric(name)) out.histogram(name).merge_from(h);
  }
  return out;
}

std::string stripped_metrics_json(const obs::MetricsRegistry& reg) {
  std::ostringstream os;
  strip_timing_metrics(reg).write_json(os);
  return os.str();
}

std::shared_ptr<const analysis::AnalysisArtifacts> analyze_machine(
    const hv::MicrovisorOptions& opt) {
  const hv::Microvisor mv = hv::build_microvisor(opt);
  return std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(mv.program, hv::analyze_options(mv)));
}

/// Fresh scratch directory per test; removed on teardown.
class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_path(
        std::string("resume_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  CampaignConfig make_cfg(const std::string& tag, int shards, bool importance,
                          obs::RecordFormat fmt = obs::RecordFormat::kJsonl) {
    CampaignConfig cfg;
    cfg.injections = 240;
    cfg.seed = 31;
    cfg.shards = shards;
    cfg.xentry.transition_detection = false;  // no model installed
    cfg.obs.metrics = true;  // tracing/flight recorder stay off: their
                             // payloads are not resume-stable
    cfg.streaming.records_path = dir_ + "/" + tag;
    cfg.streaming.records_format = fmt;
    cfg.streaming.checkpoint_path = dir_ + "/" + tag + ".ckpt";
    cfg.streaming.checkpoint_every = 16;
    if (importance) {
      cfg.analysis = analyze_machine(cfg.machine);
      cfg.sampling.importance = true;
    }
    return cfg;
  }

  std::string dir_;
};

void expect_resume_matches_reference(CampaignConfig ref_cfg,
                                     CampaignConfig victim_cfg,
                                     int abort_after) {
  const auto ref = run_campaign(ref_cfg);
  EXPECT_FALSE(ref.resumed);
  const auto ref_stream =
      decode_stream(ref_cfg.streaming.records_path,
                    ref_cfg.streaming.records_format, ref_cfg.shards);
  ASSERT_EQ(ref_stream.size(), ref.records.size());
  const std::uint64_t want_digest = records_digest(ref.records);
  ASSERT_EQ(records_digest(ref_stream), want_digest);

  victim_cfg.streaming.abort_after = abort_after;
  const auto victim = run_campaign(victim_cfg);
  EXPECT_LT(victim.records_streamed, ref.records_streamed)
      << "the abort hook should have cut the campaign short";

  victim_cfg.streaming.abort_after = 0;
  const auto resumed = run_campaign(victim_cfg);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.records_streamed, ref.records_streamed);

  // Byte-identical shard streams, hence identical digests.
  for (int s = 0; s < ref_cfg.shards; ++s) {
    const auto sp = static_cast<std::size_t>(s);
    EXPECT_EQ(slurp(obs::ShardedFileSink::shard_path(
                  victim_cfg.streaming.records_path,
                  victim_cfg.streaming.records_format, sp)),
              slurp(obs::ShardedFileSink::shard_path(
                  ref_cfg.streaming.records_path,
                  ref_cfg.streaming.records_format, sp)))
        << "shard " << s;
  }
  const auto resumed_stream =
      decode_stream(victim_cfg.streaming.records_path,
                    victim_cfg.streaming.records_format, victim_cfg.shards);
  EXPECT_EQ(records_digest(resumed_stream), want_digest);

  // The merged metrics are the journaled registries plus the live suffix;
  // stripped of timing they match the uninterrupted run.
  EXPECT_EQ(stripped_metrics_json(resumed.metrics),
            stripped_metrics_json(ref.metrics));
}

TEST_F(ResumeTest, TimingMetricsAreRecognizedAndStripped) {
  // The resume comparisons above mean something only if the strip keeps
  // the counts.
  EXPECT_TRUE(is_timing_metric("machine.snapshot_ns"));
  EXPECT_TRUE(is_timing_metric("campaign.elapsed_us"));
  EXPECT_TRUE(is_timing_metric("campaign.injections_per_sec"));
  EXPECT_FALSE(is_timing_metric("campaign.injections"));
  EXPECT_FALSE(is_timing_metric("obs.sink.appends"));

  obs::MetricsRegistry reg;
  reg.counter("campaign.injections").inc(10);
  reg.gauge("campaign.elapsed_us").set(12345);
  reg.histogram("machine.snapshot_ns").observe(500);
  const obs::MetricsRegistry bare = strip_timing_metrics(reg);
  ASSERT_NE(bare.find_counter("campaign.injections"), nullptr);
  EXPECT_EQ(bare.find_counter("campaign.injections")->value(), 10u);
  EXPECT_EQ(bare.find_gauge("campaign.elapsed_us"), nullptr);
  EXPECT_EQ(bare.find_histogram("machine.snapshot_ns"), nullptr);
}

TEST_F(ResumeTest, KillBetweenCheckpointsSingleShard) {
  // abort_after=21 with checkpoint_every=16: the last 5 iterations were
  // never durable and must be re-executed identically.
  expect_resume_matches_reference(make_cfg("ref", 1, false),
                                  make_cfg("victim", 1, false), 21);
}

TEST_F(ResumeTest, ForeignImageRestoreCopiesEveryPageThenSyncsIncrementally) {
  // restore_machine rebuilds the golden machine from a journal image with
  // no source identity and no page generations: it must copy every page,
  // and the incremental syncs that follow must match full copies.
  const auto& reasons = hv::all_exit_reasons();
  hv::Machine source, machine, mirror;
  for (std::uint64_t i = 0; i < 5; ++i) {
    source.run(source.make_activation(reasons[i], i));
  }
  ShardCheckpoint ck;
  capture_machine(source, ck);
  machine.run(machine.make_activation(reasons[7], 3));
  mirror.restore(machine.snapshot());  // machine now has sync history

  const auto page_gens = [](const hv::Machine& m) {
    std::vector<std::uint64_t> gens;
    for (const sim::Memory::Region& r : m.memory().regions()) {
      gens.insert(gens.end(), r.gens.begin(), r.gens.end());
    }
    return gens;
  };
  for (int round = 0; round < 2; ++round) {
    const std::vector<std::uint64_t> before = page_gens(machine);
    restore_machine(machine, ck);
    const std::vector<std::uint64_t> after = page_gens(machine);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t p = 0; p < after.size(); ++p) {
      EXPECT_EQ(after[p], before[p] + 1) << "page " << p << " not copied";
    }
    EXPECT_EQ(machine.memory().snapshot(), source.memory().snapshot());
  }

  hv::Machine::Snapshot snap;
  for (std::uint64_t round = 0; round < 8; ++round) {
    const hv::ExitReason& r = reasons[round % reasons.size()];
    machine.run(machine.make_activation(r, 100 + round));
    machine.snapshot_into(snap);
    EXPECT_EQ(snap.memory, machine.memory().snapshot()) << "round " << round;
    mirror.restore(snap);
    EXPECT_EQ(mirror.memory().snapshot(), snap.memory) << "round " << round;
    mirror.run(mirror.make_activation(r, 200 + round));
    machine.run(machine.make_activation(r, 300 + round));
    machine.restore(snap);
    EXPECT_EQ(machine.memory().snapshot(), snap.memory) << "round " << round;
  }

  // Campaign level: killed after several checkpoints, the resumed golden
  // machine starts from such an image and must still reproduce the
  // uninterrupted stream.
  expect_resume_matches_reference(make_cfg("ref", 1, false),
                                  make_cfg("victim", 1, false), 150);
}

TEST_F(ResumeTest, KillExactlyAtCheckpointBoundary) {
  // The buffered suffix is empty at the kill: resume re-executes nothing
  // before the boundary and everything after it.
  expect_resume_matches_reference(make_cfg("ref", 2, false),
                                  make_cfg("victim", 2, false), 16);
}

TEST_F(ResumeTest, KillBeforeFirstCheckpointRestartsFromScratch) {
  // Journal holds only the header: every shard restarts at iteration 0,
  // truncating its streams to zero — still bit-identical at the end.
  expect_resume_matches_reference(make_cfg("ref", 2, false),
                                  make_cfg("victim", 2, false), 5);
}

TEST_F(ResumeTest, KillBetweenCheckpointsSevenShards) {
  expect_resume_matches_reference(make_cfg("ref", 7, false),
                                  make_cfg("victim", 7, false), 20);
}

TEST_F(ResumeTest, KillWithImportanceSampling) {
  // The sampler's aux RNG cursor is journaled too; a resumed importance
  // campaign must redraw the same slots with the same weights.
  expect_resume_matches_reference(make_cfg("ref", 2, true),
                                  make_cfg("victim", 2, true), 21);
}

TEST_F(ResumeTest, KillWithImportanceSamplingSevenShards) {
  expect_resume_matches_reference(make_cfg("ref", 7, true),
                                  make_cfg("victim", 7, true), 17);
}

TEST_F(ResumeTest, KillWithForensicsSamplingResumesTheEscapeCounter) {
  // Undetected escapes replay 1-in-3, counted by the experiment's escape
  // counter; the journal carries it, so the resumed shard replays the
  // same escapes and the forensics.* counters match the reference's.
  auto ref = make_cfg("ref", 2, false);
  auto victim = make_cfg("victim", 2, false);
  for (CampaignConfig* c : {&ref, &victim}) {
    c->obs.forensics = true;
    c->obs.forensics_sample_every = 3;
  }
  auto plain = ref;
  plain.streaming.records_path = dir_ + "/plain";
  plain.streaming.checkpoint_path.clear();
  const auto res = run_campaign(plain);
  const obs::Counter* replays = res.metrics.find_counter("forensics.replays");
  ASSERT_NE(replays, nullptr);
  ASSERT_GT(replays->value(), 0u) << "no escape to sample";
  expect_resume_matches_reference(ref, victim, 37);
}

TEST_F(ResumeTest, HeartbeatAcrossResumeCountsEveryRecord) {
  // A resumed shard's progress cells start at its journaled record
  // count, so the final heartbeat covers the records streamed before the
  // kill as well as after it, and all of them are checkpointed.
  auto cfg = make_cfg("victim", 2, false);
  cfg.streaming.abort_after = 37;
  run_campaign(cfg);
  cfg.streaming.abort_after = 0;
  std::mutex mu;
  std::vector<HeartbeatSample> samples;
  cfg.heartbeat.interval_sec = 0.002;
  cfg.heartbeat.callback = [&](const HeartbeatSample& s) {
    const std::lock_guard<std::mutex> lock(mu);
    samples.push_back(s);
  };
  const auto res = run_campaign(cfg);
  ASSERT_TRUE(res.resumed);
  EXPECT_EQ(res.records_streamed, decode_stream(cfg.streaming.records_path,
                                                cfg.streaming.records_format,
                                                cfg.shards)
                                      .size());
  ASSERT_FALSE(samples.empty());
  const HeartbeatSample& fin = samples.back();
  EXPECT_TRUE(fin.last);
  EXPECT_EQ(fin.total, 240u);
  EXPECT_EQ(fin.completed, res.records_streamed);
  EXPECT_EQ(fin.checkpointed, res.records_streamed);
  EXPECT_EQ(fin.sink_lag_bytes, 0u);
  EXPECT_GT(res.records.size(), 0u);
  EXPECT_LT(res.records.size(), res.records_streamed);  // a real resume
}

TEST_F(ResumeTest, BinaryFormatResumesIdentically) {
  expect_resume_matches_reference(
      make_cfg("ref", 2, false, obs::RecordFormat::kBinary),
      make_cfg("victim", 2, false, obs::RecordFormat::kBinary), 21);
}

TEST_F(ResumeTest, JsonlAndBinaryStreamsAreDigestEquivalent) {
  auto jcfg = make_cfg("jsonl_run", 2, false, obs::RecordFormat::kJsonl);
  auto bcfg = make_cfg("bin_run", 2, false, obs::RecordFormat::kBinary);
  const auto a = run_campaign(jcfg);
  const auto b = run_campaign(bcfg);
  const auto ja = decode_stream(jcfg.streaming.records_path,
                                obs::RecordFormat::kJsonl, 2);
  const auto jb = decode_stream(bcfg.streaming.records_path,
                                obs::RecordFormat::kBinary, 2);
  ASSERT_EQ(ja.size(), jb.size());
  EXPECT_EQ(records_digest(ja), records_digest(jb));
  EXPECT_EQ(records_digest(ja), records_digest(a.records));
  EXPECT_EQ(records_digest(jb), records_digest(b.records));
}

TEST_F(ResumeTest, StreamingWithoutCheckpointMatchesInMemoryRecords) {
  auto cfg = make_cfg("plain", 3, false);
  cfg.streaming.checkpoint_path.clear();
  const auto res = run_campaign(cfg);
  const auto stream =
      decode_stream(cfg.streaming.records_path, obs::RecordFormat::kJsonl, 3);
  ASSERT_EQ(stream.size(), res.records.size());
  EXPECT_EQ(records_digest(stream), records_digest(res.records));
  EXPECT_EQ(res.records_streamed, stream.size());
  // Sink accounting reached the metrics registry.
  ASSERT_NE(res.metrics.find_counter("obs.sink.appends"), nullptr);
  EXPECT_EQ(res.metrics.find_counter("obs.sink.appends")->value(),
            res.records_streamed);
}

TEST_F(ResumeTest, KeepRecordsOffStreamsWithoutAccumulating) {
  auto keep = make_cfg("keep", 2, false);
  auto drop = make_cfg("drop", 2, false);
  drop.streaming.keep_records = false;
  const auto a = run_campaign(keep);
  const auto b = run_campaign(drop);
  EXPECT_TRUE(b.records.empty());
  EXPECT_EQ(b.records_streamed, a.records_streamed);
  const auto stream =
      decode_stream(drop.streaming.records_path, obs::RecordFormat::kJsonl, 2);
  EXPECT_EQ(records_digest(stream), records_digest(a.records));
}

TEST_F(ResumeTest, ResumeUnderDifferentConfigIsRejected) {
  auto victim = make_cfg("victim", 2, false);
  victim.streaming.abort_after = 20;
  run_campaign(victim);

  auto other = victim;
  other.streaming.abort_after = 0;
  other.seed = 77;  // same journal path, different campaign identity
  EXPECT_THROW(run_campaign(other), std::invalid_argument);

  auto reshard = victim;
  reshard.streaming.abort_after = 0;
  reshard.shards = 3;
  EXPECT_THROW(run_campaign(reshard), std::invalid_argument);
}

TEST_F(ResumeTest, JournalRoundTripsShardState) {
  auto cfg = make_cfg("journal", 2, false);
  const CampaignResult result = run_campaign(cfg);
  const JournalContents j = read_journal(cfg.streaming.checkpoint_path);
  ASSERT_TRUE(j.valid);
  EXPECT_EQ(j.header.seed, 31u);
  EXPECT_EQ(j.header.injections, 240);
  EXPECT_EQ(j.header.shards, 2);
  EXPECT_EQ(j.header.checkpoint_every, 16);
  ASSERT_EQ(j.shards.size(), 2u);
  std::uint64_t records = 0;
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE(j.shards[s].has_value()) << s;
    const ShardCheckpoint& ck = *j.shards[s];
    EXPECT_EQ(ck.shard, s);
    EXPECT_GT(ck.iterations, 0u);
    EXPECT_FALSE(ck.main_rng.empty());
    EXPECT_FALSE(ck.gen_rng.empty());
    EXPECT_TRUE(ck.aux_rng.empty());  // uniform sampling: no aux stream
    EXPECT_FALSE(ck.memory.empty());
    records += ck.records_written;
    // The final checkpoint's sink offset covers the whole shard file.
    const std::string path = obs::ShardedFileSink::shard_path(
        cfg.streaming.records_path, obs::RecordFormat::kJsonl,
        static_cast<std::size_t>(s));
    EXPECT_EQ(ck.sink_offset, std::filesystem::file_size(path));
    // The final line carries the shard's final registry.
    const obs::Counter* injections =
        ck.metrics.find_counter("campaign.injections");
    ASSERT_NE(injections, nullptr) << s;
    EXPECT_EQ(injections->value(), ck.records_written);
    EXPECT_FALSE(ck.metrics.histograms().empty());
  }
  // Final checkpoints land at the quota: every record is journaled.
  const auto stream =
      decode_stream(cfg.streaming.records_path, obs::RecordFormat::kJsonl, 2);
  EXPECT_EQ(records, stream.size());
  // The shards' registries merge to the campaign's, less the gauges the
  // campaign adds after its shards end.
  obs::MetricsRegistry merged;
  merged.merge_from(j.shards[0]->metrics);
  merged.merge_from(j.shards[1]->metrics);
  for (const auto& [name, c] : result.metrics.counters()) {
    ASSERT_NE(merged.find_counter(name), nullptr) << name;
    EXPECT_EQ(merged.find_counter(name)->value(), c.value()) << name;
  }
  std::ostringstream histograms_written, histograms_read;
  for (const auto& [name, h] : result.metrics.histograms()) {
    h.write_json(histograms_written);
    ASSERT_NE(merged.find_histogram(name), nullptr) << name;
    merged.find_histogram(name)->write_json(histograms_read);
  }
  EXPECT_EQ(histograms_read.str(), histograms_written.str());

  // Written back, each shard's line reads back to the same registry.
  const std::string copy = dir_ + "/copy.ckpt";
  {
    auto w = CheckpointJournal::create(copy, j.header);
    for (const auto& ck : j.shards) w->append(*ck);
  }
  const JournalContents again = read_journal(copy);
  ASSERT_TRUE(again.valid) << again.error;
  for (int s = 0; s < 2; ++s) {
    std::ostringstream a, b;
    j.shards[s]->metrics.write_json(a);
    again.shards[s]->metrics.write_json(b);
    EXPECT_EQ(b.str(), a.str()) << s;
  }
}

TEST_F(ResumeTest, TornJournalLineIsCutAwayBeforeResumeAppends) {
  // A kill can tear the journal's last line (a long line is written in
  // more than one write).  Resume must cut the torn bytes away before it
  // appends; otherwise its first line is glued onto them, and every later
  // line goes unread by the next resume.
  const CampaignConfig ref_cfg = make_cfg("ref", 2, false);
  const auto ref = run_campaign(ref_cfg);
  CampaignConfig victim = make_cfg("victim", 2, false);
  const std::string& journal = victim.streaming.checkpoint_path;
  victim.streaming.abort_after = 40;
  run_campaign(victim);
  {
    const std::string text = slurp(journal);
    const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
    ASSERT_GT(last, 0u);
    std::filesystem::resize_file(journal, last + (text.size() - last) / 2);
  }

  victim.streaming.abort_after = 100;  // killed again after checkpoint 96
  const auto first = run_campaign(victim);
  EXPECT_TRUE(first.resumed);
  const JournalContents j = read_journal(journal);
  ASSERT_TRUE(j.valid) << j.error;
  EXPECT_EQ(j.intact_bytes, std::filesystem::file_size(journal));
  std::uint64_t journaled = 0;
  for (const auto& ck : j.shards) {
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->iterations, 96u);  // the first resume's latest checkpoint
    journaled += ck->records_written;
  }

  victim.streaming.abort_after = 0;
  const auto second = run_campaign(victim);
  EXPECT_TRUE(second.resumed);
  // The second resume starts from those checkpoints: it holds only the
  // records after them.
  EXPECT_EQ(second.records.size(), ref.records.size() - journaled);
  for (int s = 0; s < 2; ++s) {
    const auto sp = static_cast<std::size_t>(s);
    EXPECT_EQ(slurp(obs::ShardedFileSink::shard_path(
                  victim.streaming.records_path, obs::RecordFormat::kJsonl,
                  sp)),
              slurp(obs::ShardedFileSink::shard_path(
                  ref_cfg.streaming.records_path, obs::RecordFormat::kJsonl,
                  sp)))
        << "shard " << s;
  }
  EXPECT_EQ(stripped_metrics_json(second.metrics),
            stripped_metrics_json(ref.metrics));
}

TEST_F(ResumeTest, CorruptJournalLineRefusesResumeNamingTheLine) {
  CampaignConfig victim = make_cfg("victim", 2, false);
  victim.streaming.abort_after = 40;
  run_campaign(victim);
  const std::string& journal = victim.streaming.checkpoint_path;
  std::string text = slurp(journal);
  const std::size_t second_line = text.find('\n') + 1;
  text.replace(text.find("\"iter\":", second_line), 7, "\"iter\":-");
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << text;

  victim.streaming.abort_after = 0;
  try {
    run_campaign(victim);
    FAIL() << "resume accepted a corrupt journal";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(journal + ":2: bad value for 'iter'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(slurp(journal), text);  // refused before anything is written
}

/// A journal written by CheckpointJournal: the header and one checkpoint
/// line per shard.
std::string write_journal(const std::string& path, int shards) {
  CheckpointHeader h;
  h.seed = 5;
  h.injections = 100;
  h.shards = shards;
  h.checkpoint_every = 16;
  auto journal = CheckpointJournal::create(path, h);
  for (int s = 0; s < shards; ++s) {
    ShardCheckpoint c;
    c.shard = s;
    c.iterations = 16;
    c.records_written = 15;
    c.digest = 0xfeedu + static_cast<unsigned>(s);
    c.effective = 15.5;
    c.gen_rng = rng_state_string(std::mt19937_64(1));
    c.main_rng = rng_state_string(std::mt19937_64(2));
    c.tsc = 99;
    c.memory = {{0, 0, 7, 0xdeadbeefull, 0}, {}, {1}};
    journal->append(c);
  }
  journal.reset();
  return slurp(path);
}

TEST_F(ResumeTest, JournalReaderRefusesCorruptLines) {
  const std::string path = dir_ + "/j.ckpt";
  const std::string good = write_journal(path, 2);
  const JournalContents j = read_journal(path);
  ASSERT_TRUE(j.valid) << j.error;
  EXPECT_EQ(j.intact_bytes, good.size());
  ASSERT_TRUE(j.shards[1].has_value());
  EXPECT_EQ(j.shards[1]->digest, 0xfeedu + 1);
  EXPECT_EQ(j.shards[1]->memory,
            (std::vector<std::vector<std::uint64_t>>{
                {0, 0, 7, 0xdeadbeefull, 0}, {}, {1}}));

  const auto refusal = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    const JournalContents bad = read_journal(path);
    EXPECT_FALSE(bad.valid);
    return bad.error.substr(std::min(bad.error.size(), path.size()));
  };
  // 4294967298 is 2 modulo 2^32: it must not read as 2 shards.
  EXPECT_EQ(refusal("\"shards\":2", "\"shards\":4294967298"),
            ":1: bad value for 'shards'");
  EXPECT_EQ(refusal("\"shards\":2", "\"shards\":0"),
            ":1: shard count out of range");
  EXPECT_EQ(refusal("\"shards\":2", "\"shards\":101"),
            ":1: shard count out of range");
  EXPECT_EQ(refusal("\"seed\":5", "\"seed\":\"5\""),
            ":1: bad value for 'seed'");
  EXPECT_EQ(refusal("\"type\":\"header\"", "\"type\":\"ckpt\""),
            ":1: bad value for 'type'");
  // `units` is no header member: a journal that carries one is refused.
  EXPECT_EQ(refusal("\"fmt\":0}", "\"fmt\":0,\"units\":[0,1]}"),
            ":1: unknown key 'units'");
  EXPECT_EQ(refusal("\"iter\":16", "\"iter\":16,\"extra\":1"),
            ":2: unknown key 'extra'");
  EXPECT_EQ(refusal("\"iter\":16", "\"iter\":16,\"iter\":16"),
            ":2: duplicate key 'iter'");
  // A journal from before lines carried their registry names its metrics
  // sidecar's offset, which no line has any more.
  EXPECT_EQ(refusal("\"forensics\":", "\"snap_off\":0,\"forensics\":"),
            ":2: unknown key 'snap_off'");
  EXPECT_EQ(refusal("]}\n{", "],\"metrics\":{\"counters\":{}}}\n{"),
            ":2: missing key 'gauges'");
  EXPECT_EQ(refusal(",\"mem\":[\"z2,7,deadbeef,z1\",\"\",\"1\"]", ""),
            ":2: missing key 'mem'");
  EXPECT_EQ(refusal("\"shard\":1", "\"shard\":2"),
            ":3: shard index out of range");
  EXPECT_EQ(refusal("z2,7", "z2,,7"), ":2: corrupt memory image in 'mem'");
  EXPECT_EQ(refusal("z2,7", "z2097153,7"),
            ":2: corrupt memory image in 'mem'");
  EXPECT_EQ(refusal("deadbeef", "deadbeefdeadbeef0"),
            ":2: corrupt memory image in 'mem'");
  EXPECT_EQ(refusal("]}\n", "]}}\n"), ":2: trailing bytes");
  // An RNG state must print back to its own bytes: the stream operator
  // alone would take the state before trailing words, wrap a negative
  // word to 2^64-1, and only a missing word makes it fail.
  const std::string gen = rng_state_string(std::mt19937_64(1));
  const std::string first_word = gen.substr(0, gen.find(' '));
  EXPECT_EQ(refusal(gen, gen + " 17 garbage"),
            ":2: corrupt RNG state in 'gen_rng'");
  EXPECT_EQ(refusal("\"gen_rng\":\"" + first_word + " ",
                    "\"gen_rng\":\"-1 "),
            ":2: corrupt RNG state in 'gen_rng'");
  EXPECT_EQ(refusal(gen, gen.substr(0, gen.rfind(' '))),
            ":2: corrupt RNG state in 'gen_rng'");
  EXPECT_EQ(refusal("\"aux_rng\":\"\"", "\"aux_rng\":\"1 2 3\""),
            ":2: corrupt RNG state in 'aux_rng'");
  // Nor may it spell a word any way the stream operator does not print
  // it: with a leading zero, after a doubled space, or past 64 bits.
  EXPECT_EQ(refusal("\"gen_rng\":\"" + first_word + " ",
                    "\"gen_rng\":\"0" + first_word + " "),
            ":2: corrupt RNG state in 'gen_rng'");
  EXPECT_EQ(refusal("\"gen_rng\":\"" + first_word + " ",
                    "\"gen_rng\":\"" + first_word + "  "),
            ":2: corrupt RNG state in 'gen_rng'");
  EXPECT_EQ(refusal("\"gen_rng\":\"" + first_word + " ",
                    "\"gen_rng\":\"18446744073709551616 "),
            ":2: corrupt RNG state in 'gen_rng'");
  EXPECT_EQ(refusal("\n{", "\n\n{"), ":2: not an object");

  // A torn final line is not an error; intact_bytes stops before it.
  const std::size_t last = good.rfind('\n', good.size() - 2) + 1;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << good.substr(0, last + 10);
  const JournalContents torn = read_journal(path);
  EXPECT_TRUE(torn.valid) << torn.error;
  EXPECT_EQ(torn.intact_bytes, last);
  EXPECT_TRUE(torn.shards[0].has_value());
  EXPECT_FALSE(torn.shards[1].has_value());
}

// rng_state_string prints what the stream operator prints, byte for byte,
// and rng_state_from_string loads that text back to the same engine, at
// every index the engine's state can be at.
TEST(RngStateTest, TextMatchesTheStreamOperators) {
  std::mt19937_64 draws(17);
  for (int i = 0; i < 64; ++i) {
    std::mt19937_64 engine(draws());
    engine.discard(i == 0 ? 0 : draws() % 2000);
    std::ostringstream os;
    os << engine;
    const std::string text = rng_state_string(engine);
    ASSERT_EQ(text, os.str());
    std::mt19937_64 loaded;
    ASSERT_TRUE(rng_state_from_string(loaded, text));
    EXPECT_EQ(loaded, engine);
    EXPECT_EQ(loaded(), engine());
  }
}

// A shard's registry snapshot rides in its journal line.  These read a
// stream of such lines the way resume does: the last intact line per shard.
class SnapshotTest : public ResumeTest {
 protected:
  /// A one-shard journal whose checkpoint lines carry counter `a` at 1,
  /// then 2, then 3.
  std::string write_counter_lines(const std::string& path) {
    CheckpointHeader h;
    h.seed = 5;
    h.injections = 100;
    h.shards = 1;
    h.checkpoint_every = 16;
    auto journal = CheckpointJournal::create(path, h);
    ShardCheckpoint c;
    c.shard = 0;
    c.gen_rng = rng_state_string(std::mt19937_64(1));
    c.main_rng = rng_state_string(std::mt19937_64(2));
    c.memory = {{1}};
    for (int i = 1; i <= 3; ++i) {
      c.iterations = static_cast<std::uint64_t>(16 * i);
      c.metrics.counter("a").inc(1);
      journal->append(c);
    }
    journal.reset();
    return slurp(path);
  }
};

TEST_F(SnapshotTest, TornFinalLineIsIgnored) {
  const std::string path = dir_ + "/j.ckpt";
  const std::string text = write_counter_lines(path);
  const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
  // Cut the last line mid-way: a killed process's final write.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << text.substr(0, (last + text.size()) / 2);
  const JournalContents j = read_journal(path);
  ASSERT_TRUE(j.valid) << j.error;
  EXPECT_EQ(j.intact_bytes, last);
  ASSERT_TRUE(j.shards[0].has_value());
  EXPECT_EQ(j.shards[0]->iterations, 32u);
  ASSERT_NE(j.shards[0]->metrics.find_counter("a"), nullptr);
  EXPECT_EQ(j.shards[0]->metrics.find_counter("a")->value(), 2u);
}

TEST_F(SnapshotTest, CorruptLineIsRefusedNamingPathAndLine) {
  const std::string path = dir_ + "/j.ckpt";
  std::string text = write_counter_lines(path);
  // Drop the counters from the registry on line 3 (the second checkpoint).
  const std::string counters = "\"counters\":{\"a\":2},";
  const std::size_t at = text.find(counters);
  ASSERT_NE(at, std::string::npos) << text;
  text.erase(at, counters.size());
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  const JournalContents j = read_journal(path);
  EXPECT_FALSE(j.valid);
  EXPECT_EQ(j.error, path + ":3: missing key 'counters'");
  ASSERT_TRUE(j.shards[0].has_value());  // the line before it was kept
  EXPECT_EQ(j.shards[0]->metrics.find_counter("a")->value(), 1u);
}

TEST_F(ResumeTest, StreamingConfigValidation) {
  const auto valid = [this] { return make_cfg("v", 1, false); };
  EXPECT_NO_THROW(validate_campaign_config(valid()));

  auto c = valid();
  c.streaming.checkpoint_path = dir_ + "/c.ckpt";
  c.streaming.records_path.clear();  // checkpoint needs a record stream
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.checkpoint_every = 0;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.abort_after = -1;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.sink_buffer_bytes = 0;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.records_path.clear();
  c.streaming.checkpoint_path.clear();
  c.streaming.keep_records = false;  // would discard every record
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  // The dataset accumulator is not journaled: checkpointing + dataset
  // collection is an up-front error, not a silent wrong resume.
  c = valid();
  c.xentry.transition_detection = false;
  c.collect_dataset = true;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
}

}  // namespace
}  // namespace xentry::fault
