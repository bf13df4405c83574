#include "perfbench/workloads.hpp"

#include <time.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analysis/artifacts.hpp"
#include "bench/bench_util.hpp"
#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "fault/training.hpp"
#include "hv/microvisor.hpp"

namespace perfbench {

using namespace xentry;

namespace {

/// The paper pipeline's training campaign size (Section III-B).
constexpr int kTrainingInjections = 23400;

void expect(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("read-back: " + what);
}

}  // namespace

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error("cannot open " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

const std::vector<WorkloadInfo>& all_workloads() {
  static const std::vector<WorkloadInfo> w = {
      {Workload::kUniformStream, "uniform_stream", 30000},
      {Workload::kEnsembleSampled, "ensemble_sampled", 25000},
      {Workload::kDurableReadback, "durable_readback", 40000},
  };
  return w;
}

const WorkloadInfo* find_workload(std::string_view name) {
  for (const WorkloadInfo& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::int64_t cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Prepared prepare(Workload w, std::uint64_t seed, int injections,
                 const std::string& workdir) {
  Prepared p;
  fault::CampaignConfig& cfg = p.cfg;
  cfg.injections = injections;
  cfg.seed = seed;
  cfg.shards = 1;
  switch (w) {
    case Workload::kUniformStream:
      // micro_campaign's headline configuration: uniform sweep, uniform
      // sampling, dataset collection on, no record I/O.
      cfg.collect_dataset = true;
      cfg.xentry.transition_detection = true;
      break;
    case Workload::kEnsembleSampled: {
      // The fig8 / ablation_ensemble pipeline with importance sampling.
      // Default seed 7 trains at fig8's seed 101 and evaluates at 202.
      const hv::Microvisor mv = hv::build_microvisor(cfg.machine);
      std::int64_t t0 = now_ns();
      cfg.analysis = std::make_shared<const analysis::AnalysisArtifacts>(
          analysis::analyze_program(mv.program, hv::analyze_options(mv)));
      p.analyze_ms = seconds_since(t0) * 1e3;

      fault::CampaignConfig tc;
      tc.injections = kTrainingInjections;
      tc.seed = seed + 94;
      tc.shards = 1;
      tc.collect_dataset = true;
      tc.workload = bench::pooled_benchmark_profile();
      t0 = now_ns();
      const fault::CampaignResult training = fault::run_campaign(tc);
      p.training_campaign_s = seconds_since(t0);
      fault::TrainingOptions opt;
      opt.incorrect_target_fraction = 0.20;
      t0 = now_ns();
      const fault::TrainedDetector det =
          fault::train_detector(training.dataset, opt);
      p.train_ms = seconds_since(t0) * 1e3;

      cfg.seed = seed + 195;
      cfg.workload = bench::pooled_benchmark_profile();
      cfg.model = det.rules;
      cfg.xentry.transition_detection = true;
      cfg.xentry.control_flow_detection = true;
      cfg.xentry.timing_detection = true;
      cfg.sampling.importance = true;
      break;
    }
    case Workload::kDurableReadback:
      // Checkpointing excludes dataset collection, and without a dataset
      // or model the transition detector could never fire.
      cfg.shards = 2;
      cfg.xentry.transition_detection = false;
      cfg.streaming.records_format = obs::RecordFormat::kJsonl;
      cfg.streaming.keep_records = false;
      cfg.streaming.checkpoint_every = 1024;
      cfg.streaming.records_path = workdir + "/records";
      cfg.streaming.checkpoint_path = workdir + "/records.ckpt";
      break;
  }
  return p;
}

void set_stream_base(fault::CampaignConfig& cfg, const std::string& base) {
  if (cfg.streaming.records_path.empty()) return;
  cfg.streaming.records_path = base;
  cfg.streaming.checkpoint_path = base + ".ckpt";
}

int resolved_shards(const fault::CampaignConfig& cfg) {
  int shards = cfg.shards;
  if (shards <= 0) {
    shards = static_cast<int>(std::thread::hardware_concurrency());
    if (shards <= 0) shards = 4;
  }
  if (shards > cfg.injections && cfg.injections > 0) shards = cfg.injections;
  return shards;
}

void clear_streams(const fault::CampaignConfig& cfg) {
  const fault::CampaignConfig::StreamingConfig& st = cfg.streaming;
  if (st.records_path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(st.records_path).parent_path(), ec);
  for (int s = 0; s < resolved_shards(cfg); ++s) {
    std::filesystem::remove(
        obs::ShardedFileSink::shard_path(st.records_path, st.records_format,
                                         static_cast<std::size_t>(s)),
        ec);
  }
  if (!st.checkpoint_path.empty()) {
    std::filesystem::remove(st.checkpoint_path, ec);
  }
}

std::string encode_binary(const std::vector<fault::InjectionRecord>& records) {
  std::string out;
  for (const fault::InjectionRecord& r : records) {
    fault::encode_record(r, obs::RecordFormat::kBinary, out);
  }
  return out;
}

ReadBack read_back(const fault::CampaignConfig& cfg,
                   const fault::CampaignResult& res) {
  ReadBack rb;
  const fault::CampaignConfig::StreamingConfig& st = cfg.streaming;
  if (st.records_path.empty()) {
    const std::string data = encode_binary(res.records);
    const std::int64_t t0 = now_ns();
    expect(fault::decode_records(data, obs::RecordFormat::kBinary, rb.records),
           "binary export does not decode");
    rb.digest = fault::records_digest(rb.records);
    rb.seconds = seconds_since(t0);
    expect(rb.records.size() == res.records.size(),
           "decoded record count differs from the campaign's");
    expect(rb.digest == fault::records_digest(res.records),
           "decoded digest differs from the campaign's");
    return rb;
  }

  // Durable stream: decode every shard file in shard order, chain the
  // campaign digest, and reconcile each shard with its last journal line.
  const std::int64_t t0 = now_ns();
  const int shards = resolved_shards(cfg);
  const fault::JournalContents journal =
      fault::read_journal(st.checkpoint_path);
  expect(journal.valid, "journal " + st.checkpoint_path + " has no header");
  expect(journal.header.shards == shards, "journal shard count differs");
  rb.digest = fault::kDigestBasis;
  for (int s = 0; s < shards; ++s) {
    const std::string data = slurp(obs::ShardedFileSink::shard_path(
        st.records_path, st.records_format, static_cast<std::size_t>(s)));
    const std::size_t first = rb.records.size();
    expect(fault::decode_records(data, st.records_format, rb.records),
           "shard " + std::to_string(s) + " has undecodable bytes");
    std::uint64_t shard_digest = fault::kDigestBasis;
    for (std::size_t i = first; i < rb.records.size(); ++i) {
      shard_digest = fault::digest_update(shard_digest, rb.records[i]);
      rb.digest = fault::digest_update(rb.digest, rb.records[i]);
    }
    const auto& ck = journal.shards[static_cast<std::size_t>(s)];
    expect(ck.has_value(), "shard " + std::to_string(s) + " never journaled");
    expect(ck->records_written == rb.records.size() - first,
           "shard " + std::to_string(s) + " record count differs from journal");
    expect(ck->digest == shard_digest,
           "shard " + std::to_string(s) + " digest " + hex(shard_digest) +
               " differs from journal " + hex(ck->digest));
    expect(ck->sink_offset == data.size(),
           "shard " + std::to_string(s) + " size differs from journal offset");
  }
  rb.seconds = seconds_since(t0);
  expect(rb.records.size() == res.records_streamed,
         "decoded record count differs from records_streamed");
  return rb;
}

Answer answer_of(const ReadBack& rb) {
  Answer a;
  a.records = rb.records.size();
  a.digest = rb.digest;
  const fault::WeightedRates w = fault::weighted_rates(rb.records);
  a.effective_injections = w.effective_injections;
  a.coverage = fault::coverage_breakdown(rb.records).coverage();
  a.masked_rate = w.rate(fault::Consequence::Masked);
  a.sdc_rate = w.rate(fault::Consequence::AppSdc);
  a.crash_rate = w.rate(fault::Consequence::AppCrash);
  a.manifested_rate = w.manifested_rate();
  a.detected_rate = w.detected_rate();
  return a;
}

}  // namespace perfbench
