// End-to-end campaign throughput benchmark (no google-benchmark
// dependency: one shot, wall-clock timed, JSON out).
//
// The paper's headline experiment is a 30,000-injection campaign; the
// injections/sec of `run_campaign` bounds every study we can afford.
// This bench runs one campaign and reports its records digest, outcome
// rates, end-to-end injections/sec, the process's peak RSS and the
// in-memory size of one kept record.  Per-layer costs (engine steps,
// snapshot/restore) are measured in context by perfbench/.
//
// Output is a single JSON object, suitable for seeding a BENCH_*.json
// trajectory.  A fourth argument enables the campaign progress heartbeat
// on stderr (stdout stays pure JSON).
// Usage:  micro_campaign [injections] [shards] [seed] [heartbeat_sec]
//                        [--engine fast|reference] [--sampling]
//                        [--metrics-out FILE] [--forensics-out FILE]
//                        [--records-out PATH] [--records-format jsonl|bin]
//                        [--checkpoint PATH] [--help]
// Run `micro_campaign --help` for the flag reference.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/artifacts.hpp"
#include "bench/bench_util.hpp"
#include "fault/campaign.hpp"
#include "fault/record_io.hpp"
#include "fault/report.hpp"
#include "fault/stats.hpp"
#include "hv/microvisor.hpp"
#include "obs/atomic_file.hpp"
#include "obs/record_sink.hpp"

namespace {

using namespace xentry;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The process's peak resident set so far, in MiB (as perfbench reads it).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct StreamingFlags {
  std::string records_out;
  obs::RecordFormat records_format = obs::RecordFormat::kJsonl;
  std::string checkpoint;
  int checkpoint_every = 1024;
};

struct CampaignScore {
  double elapsed = 0;
  std::size_t records = 0;
  std::size_t manifested = 0;
  std::size_t detected = 0;
  std::size_t forensics = 0;
  std::uint64_t digest = 0;
  std::uint64_t streamed = 0;
  bool resumed = false;
  fault::WeightedRates weighted;
};

/// Reads back every persisted record (fault::read_shard_stream).  A frame
/// that does not decode exits 1 naming the file and the record: scoring
/// the intact prefix would report a digest of the wrong stream.
std::vector<fault::InjectionRecord> read_streamed_records(
    const std::string& base) {
  fault::ShardStream stream;
  if (const auto err = fault::read_shard_stream(base, stream)) {
    std::fprintf(stderr, "micro_campaign: %s\n", err->c_str());
    std::exit(1);
  }
  return std::move(stream.records);
}

/// Progress heartbeat on stderr, one line per sample, so a long campaign
/// is observable without touching the JSON contract on stdout.  Sink
/// drops only appear when nonzero — a healthy campaign's line stays free
/// of alarm fields.
void print_heartbeat(const fault::HeartbeatSample& s) {
  std::string alerts;
  if (s.sink_dropped > 0) {
    alerts += "  drops=" + std::to_string(s.sink_dropped);
  }
  std::fprintf(
      stderr,
      "[micro_campaign] %llu/%llu injections  %.0f inj/s "
      "(recent %.0f)  detected %llu  ckpt=%llu  lag=%lluB%s  elapsed %.1fs  "
      "eta %.0fs%s\n",
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.total), s.injections_per_sec,
      s.recent_per_sec, static_cast<unsigned long long>(s.detected_total),
      static_cast<unsigned long long>(s.checkpointed),
      static_cast<unsigned long long>(s.sink_lag_bytes), alerts.c_str(),
      s.elapsed_sec, s.eta_sec, s.last ? "  [final]" : "");
}

CampaignScore time_campaign(int injections, int shards, std::uint64_t seed,
                            double heartbeat_sec, sim::EngineKind engine,
                            bool sampling, const std::string& metrics_out,
                            const std::string& forensics_out,
                            const StreamingFlags& streaming) {
  fault::CampaignConfig cfg;
  cfg.injections = injections;
  cfg.shards = shards;
  cfg.seed = seed;
  // The dataset accumulator is not checkpointable, so a checkpointed run
  // trades it away (validate_campaign_config enforces the exclusion) —
  // and with no dataset and no model, transition detection could never
  // fire, so it goes too.
  cfg.collect_dataset = streaming.checkpoint.empty();
  cfg.xentry.transition_detection = cfg.collect_dataset;
  cfg.xentry.engine = engine;
  cfg.sampling.importance = sampling;
  if (sampling) {
    cfg.analysis = std::make_shared<analysis::AnalysisArtifacts>(
        analysis::analyze_program(hv::build_microvisor(cfg.machine).program));
  }
  // Checkpointed runs keep metrics on regardless: each journal line
  // carries its shard's registry, which a resume adopts and
  // `telemetry_tool` merges and audits for dropped frames.
  cfg.obs.metrics = !metrics_out.empty() || !streaming.checkpoint.empty();
  cfg.obs.forensics = !forensics_out.empty();
  cfg.streaming.records_path = streaming.records_out;
  cfg.streaming.records_format = streaming.records_format;
  cfg.streaming.checkpoint_path = streaming.checkpoint;
  cfg.streaming.checkpoint_every = streaming.checkpoint_every;
  if (heartbeat_sec > 0) {
    cfg.heartbeat.interval_sec = heartbeat_sec;
    cfg.heartbeat.callback = print_heartbeat;
  }
  const auto t0 = Clock::now();
  const fault::CampaignResult res = fault::run_campaign(cfg);
  CampaignScore score;
  score.elapsed = seconds_since(t0);
  score.streamed = res.records_streamed;
  score.resumed = res.resumed;
  // A resumed run holds only the post-resume suffix in memory; the full
  // stream lives in the sink files, so score from those instead.
  std::vector<fault::InjectionRecord> streamed;
  if (res.resumed) {
    streamed = read_streamed_records(streaming.records_out);
  }
  const std::vector<fault::InjectionRecord>& records =
      res.resumed ? streamed : res.records;
  score.records = records.size();
  for (const auto& r : records) {
    score.manifested += fault::is_manifested(r.consequence);
    score.detected += r.detected;
    score.forensics += r.forensics() != nullptr;
  }
  score.digest = bench::records_digest(records);
  score.weighted = fault::weighted_rates(records);
  if (!metrics_out.empty()) {
    // Atomic publication: a reader polling the file sees either the
    // previous report or this one, never a torn write.
    std::ostringstream os;
    res.metrics.write_json(os);
    obs::write_file_atomic(metrics_out, os.str());
  }
  if (!forensics_out.empty()) {
    std::ofstream os(forensics_out);
    fault::write_forensics_jsonl(os, res.records);
  }
  return score;
}

constexpr const char* kUsage =
    "usage: micro_campaign [injections] [shards] [seed] [heartbeat_sec]\n"
    "                      [options]\n";

void print_help() {
  std::printf(
      "%s"
      "\n"
      "Positional (all optional):\n"
      "  injections       campaign size (default 2000)\n"
      "  shards           record streams (default 1; >= 1), run on at most "
      "one\n"
      "                   thread per core\n"
      "  seed             campaign seed (default 7)\n"
      "  heartbeat_sec    progress heartbeat interval on stderr (default "
      "off)\n"
      "\n"
      "Options:\n"
      "  --engine fast|reference\n"
      "                   execution engine for the campaign machines "
      "(default\n"
      "                   fast).  records_digest must be bit-identical "
      "across\n"
      "                   both — CI asserts it.\n"
      "  --sampling       masking-aware importance sampling: runs\n"
      "                   analyze_program for the vulnerability map and "
      "skips\n"
      "                   provably-masked draws with exact reweighting.\n"
      "  --metrics-out FILE\n"
      "                   enable obs.metrics and write the merged registry "
      "JSON\n"
      "  --forensics-out FILE\n"
      "                   enable obs.forensics and write the replay "
      "evidence\n"
      "                   (one JSON object per qualifying record) as JSONL\n"
      "  --records-out PATH\n"
      "                   stream records through the durable sink: one\n"
      "                   append-only file per shard at\n"
      "                   PATH.shard<N>.<jsonl|bin>\n"
      "  --records-format jsonl|bin\n"
      "                   record wire format (default jsonl; bin is ~4x\n"
      "                   denser, decode-equivalent)\n"
      "  --checkpoint PATH\n"
      "                   checkpoint journal (requires --records-out).  If "
      "PATH\n"
      "                   already holds a journal for this exact campaign, "
      "the\n"
      "                   run RESUMES it: killed campaigns continue where "
      "they\n"
      "                   stopped and produce bit-identical record streams.\n"
      "                   Disables dataset collection (not checkpointable).\n"
      "  --checkpoint-every N\n"
      "                   shard iterations between checkpoints (default "
      "1024)\n"
      "  --help           this text\n",
      kUsage);
}

}  // namespace

int main(int argc, char** argv) {
  const char* const prog = "micro_campaign";
  constexpr int kIntMax = std::numeric_limits<int>::max();
  std::string metrics_out, forensics_out;
  sim::EngineKind engine = sim::EngineKind::Fast;
  bool sampling = false;
  StreamingFlags streaming;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--sampling") {
      sampling = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--forensics-out" && i + 1 < argc) {
      forensics_out = argv[++i];
    } else if (arg == "--records-out" && i + 1 < argc) {
      streaming.records_out = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      streaming.checkpoint = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      streaming.checkpoint_every = bench::parse_number_or_exit(
          prog, "--checkpoint-every", argv[++i], 1, kIntMax, kUsage);
    } else if (arg == "--records-format" && i + 1 < argc) {
      const auto fmt = obs::record_format_from_name(argv[++i]);
      if (!fmt.has_value()) {
        std::fprintf(stderr,
                     "micro_campaign: unknown --records-format '%s' (want "
                     "jsonl|bin)\n",
                     argv[i]);
        return 2;
      }
      streaming.records_format = *fmt;
    } else if (arg == "--engine" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "fast") {
        engine = sim::EngineKind::Fast;
      } else if (name == "reference") {
        engine = sim::EngineKind::Reference;
      } else {
        std::fprintf(stderr,
                     "micro_campaign: unknown --engine '%s' (want "
                     "fast|reference)\n%s",
                     name.c_str(), kUsage);
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0 || positional.size() == 4) {
      std::fprintf(stderr,
                   "micro_campaign: unexpected argument '%s' (unknown "
                   "option, option without its value, or a fifth "
                   "positional)\n%s",
                   argv[i], kUsage);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t n = positional.size();
  const int injections =
      n > 0 ? bench::parse_number_or_exit(prog, "injections", positional[0],
                                          0, kIntMax, kUsage)
            : 2000;
  const int shards =
      n > 1 ? bench::parse_number_or_exit(prog, "shards", positional[1], 1,
                                          kIntMax, kUsage)
            : 1;
  const std::uint64_t seed =
      n > 2 ? bench::parse_number_or_exit(
                  prog, "seed", positional[2], std::uint64_t{0},
                  std::numeric_limits<std::uint64_t>::max(), kUsage)
            : 7;
  const double heartbeat_sec =
      n > 3 ? bench::parse_number_or_exit(
                  prog, "heartbeat_sec", positional[3], 0.0,
                  std::numeric_limits<double>::max(), kUsage)
            : 0.0;

  if (!streaming.checkpoint.empty() && streaming.records_out.empty()) {
    std::fprintf(stderr,
                 "micro_campaign: --checkpoint requires --records-out (a "
                 "resumed campaign reconstructs pre-kill records from the "
                 "sink)\n");
    return 2;
  }

  CampaignScore campaign;
  try {
    campaign = time_campaign(injections, shards, seed, heartbeat_sec, engine,
                             sampling, metrics_out, forensics_out, streaming);
  } catch (const std::exception& e) {
    // A configuration or a resume the campaign refuses, such as a
    // corrupt checkpoint journal: report it instead of aborting.
    std::fprintf(stderr, "micro_campaign: %s\n", e.what());
    return 1;
  }

  std::printf(
      "{\n"
      "  \"bench\": \"micro_campaign\",\n"
      "  \"injections\": %d,\n"
      "  \"shards\": %d,\n"
      "  \"seed\": %llu,\n"
      "  \"engine\": \"%s\",\n"
      "  \"records\": %zu,\n"
      "  \"records_digest\": \"%016llx\",\n"
      "  \"records_streamed\": %llu,\n"
      "  \"resumed\": %s,\n"
      "  \"manifested\": %zu,\n"
      "  \"detected\": %zu,\n"
      "  \"forensics_records\": %zu,\n"
      "  \"sampling\": %s,\n"
      "  \"effective_injections\": %.1f,\n"
      "  \"weighted_masked_rate\": %.6f,\n"
      "  \"weighted_sdc_rate\": %.6f,\n"
      "  \"weighted_crash_rate\": %.6f,\n"
      "  \"weighted_manifested_rate\": %.6f,\n"
      "  \"weighted_detected_rate\": %.6f,\n"
      "  \"campaign_elapsed_sec\": %.4f,\n"
      "  \"injections_per_sec\": %.1f,\n"
      "  \"effective_injections_per_sec\": %.1f,\n"
      "  \"peak_rss_mb\": %.2f,\n"
      "  \"record_bytes\": %zu\n"
      "}\n",
      injections, shards, static_cast<unsigned long long>(seed),
      std::string(sim::engine_name(engine)).c_str(), campaign.records,
      static_cast<unsigned long long>(campaign.digest),
      static_cast<unsigned long long>(campaign.streamed),
      campaign.resumed ? "true" : "false",
      campaign.manifested, campaign.detected, campaign.forensics,
      sampling ? "true" : "false",
      campaign.weighted.effective_injections,
      campaign.weighted.rate(fault::Consequence::Masked),
      campaign.weighted.rate(fault::Consequence::AppSdc),
      campaign.weighted.rate(fault::Consequence::AppCrash),
      campaign.weighted.manifested_rate(),
      campaign.weighted.detected_rate(), campaign.elapsed,
      static_cast<double>(campaign.records) / campaign.elapsed,
      campaign.weighted.effective_injections / campaign.elapsed,
      peak_rss_mb(), sizeof(fault::InjectionRecord));
  return 0;
}
