// Fleet campaign driver: one campaign, N worker processes, a live
// observability plane.
//
// Coordinator mode (the default) partitions the injection space into
// deterministic work units, fork+execs this same binary in --worker
// mode once per worker, and supervises the fleet: merged progress and
// metrics from every worker's heartbeat file and snapshot sidecars, an
// atomically-rewritten status.json on a fixed cadence, a one-line
// dashboard on stderr, and bounded auto-restart of workers that exit
// abnormally or stall.  On completion it prints a JSON report whose
// records_digest is bit-identical to the equivalent single-process run
// (micro_campaign with shards = --units), including when a worker was
// SIGKILLed mid-flight (--kill-one-after, or by hand) and restarted.
//
// Usage:
//   campaign_fleet --dir PATH [--injections N] [--workers N] [--units N]
//                  [--seed S] [--sampling] [--records-format jsonl|bin]
//                  [--checkpoint-every N] [--status-interval SEC]
//                  [--heartbeat SEC] [--stall-timeout SEC]
//                  [--straggler-fraction F] [--max-restarts N]
//                  [--kill-one-after N] [--help]
// Worker mode (internal, spawned by the coordinator):
//   campaign_fleet ...same flags... --worker W
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/artifacts.hpp"
#include "bench/bench_util.hpp"
#include "fault/fleet.hpp"
#include "hv/machine.hpp"
#include "hv/microvisor.hpp"
#include "obs/atomic_file.hpp"
#include "obs/record_sink.hpp"
#include "obs/snapshot.hpp"

namespace {

using namespace xentry;

struct CliOptions {
  int injections = 5000;
  int units = 0;  // 0: 2x workers
  int workers = 4;
  std::uint64_t seed = 7;
  std::string dir;
  bool sampling = false;
  obs::RecordFormat records_format = obs::RecordFormat::kJsonl;
  int checkpoint_every = 256;
  double status_interval = 1.0;
  double heartbeat = 0.25;
  double stall_timeout = 30.0;
  double straggler_fraction = 0.5;
  int max_restarts = 2;
  int kill_one_after = 0;
  int worker = -1;  // >= 0: worker mode
};

constexpr const char* kUsage = "usage: campaign_fleet --dir PATH [options]\n";

void print_help() {
  std::printf(
      "%s"
      "\n"
      "Runs one injection campaign across N worker processes with a live\n"
      "observability plane (status.json + stderr dashboard), then merges\n"
      "the unit streams into a records digest that is bit-identical to\n"
      "the single-process run with shards = --units.\n"
      "\n"
      "Options:\n"
      "  --dir PATH            campaign directory (required; must exist).\n"
      "                        Holds records.shard<u>.*, per-worker\n"
      "                        journals/heartbeats, status.json\n"
      "  --injections N        campaign size (default 5000)\n"
      "  --workers N           worker processes (default 4)\n"
      "  --units N             work units (default 2x workers; the\n"
      "                        equivalent single-process shard count)\n"
      "  --seed S              campaign seed (default 7)\n"
      "  --sampling            masking-aware importance sampling\n"
      "  --records-format jsonl|bin\n"
      "  --checkpoint-every N  shard iterations between checkpoints\n"
      "                        (default 256)\n"
      "  --status-interval SEC status.json/dashboard cadence (default 1)\n"
      "  --heartbeat SEC       worker heartbeat cadence (default 0.25)\n"
      "  --stall-timeout SEC   no-signal window before a worker is killed\n"
      "                        and restarted (default 30)\n"
      "  --straggler-fraction F\n"
      "                        flag workers/shards below F x median rate\n"
      "                        (default 0.5)\n"
      "  --max-restarts N      restart budget per worker (default 2)\n"
      "  --kill-one-after N    chaos: SIGKILL one worker once N fleet\n"
      "                        injections completed (tests the restart +\n"
      "                        bit-identical-resume path)\n"
      "  --worker W            internal: run worker W's units in this\n"
      "                        process (spawned by the coordinator)\n"
      "  --help                this text\n",
      kUsage);
}

bool parse_cli(int argc, char** argv, CliOptions& o) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  const auto number = [](const char* what, const char* text, auto lo,
                         auto hi) {
    return bench::parse_number_or_exit("campaign_fleet", what, text, lo, hi,
                                       kUsage);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "campaign_fleet: %s needs a value\n",
                     arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      print_help();
      std::exit(0);
    } else if (arg == "--sampling") {
      o.sampling = true;
    } else if (arg == "--injections") {
      if ((v = value()) == nullptr) return false;
      o.injections = number("--injections", v, 0, kIntMax);
    } else if (arg == "--units") {
      if ((v = value()) == nullptr) return false;
      o.units = number("--units", v, 0, kIntMax);
    } else if (arg == "--workers") {
      if ((v = value()) == nullptr) return false;
      o.workers = number("--workers", v, 1, kIntMax);
    } else if (arg == "--seed") {
      if ((v = value()) == nullptr) return false;
      o.seed = number("--seed", v, std::uint64_t{0}, kU64Max);
    } else if (arg == "--dir") {
      if ((v = value()) == nullptr) return false;
      o.dir = v;
    } else if (arg == "--records-format") {
      if ((v = value()) == nullptr) return false;
      const auto fmt = obs::record_format_from_name(v);
      if (!fmt.has_value()) {
        std::fprintf(stderr,
                     "campaign_fleet: unknown --records-format '%s' (want "
                     "jsonl|bin)\n",
                     v);
        return false;
      }
      o.records_format = *fmt;
    } else if (arg == "--checkpoint-every") {
      if ((v = value()) == nullptr) return false;
      o.checkpoint_every = number("--checkpoint-every", v, 1, kIntMax);
    } else if (arg == "--status-interval") {
      if ((v = value()) == nullptr) return false;
      o.status_interval = number("--status-interval", v, 0.0, kDoubleMax);
    } else if (arg == "--heartbeat") {
      if ((v = value()) == nullptr) return false;
      o.heartbeat = number("--heartbeat", v, 0.0, kDoubleMax);
    } else if (arg == "--stall-timeout") {
      if ((v = value()) == nullptr) return false;
      o.stall_timeout = number("--stall-timeout", v, 0.0, kDoubleMax);
    } else if (arg == "--straggler-fraction") {
      if ((v = value()) == nullptr) return false;
      o.straggler_fraction =
          number("--straggler-fraction", v, 0.0, std::nextafter(1.0, 0.0));
    } else if (arg == "--max-restarts") {
      if ((v = value()) == nullptr) return false;
      o.max_restarts = number("--max-restarts", v, 0, kIntMax);
    } else if (arg == "--kill-one-after") {
      if ((v = value()) == nullptr) return false;
      o.kill_one_after = number("--kill-one-after", v, 0, kIntMax);
    } else if (arg == "--worker") {
      if ((v = value()) == nullptr) return false;
      o.worker = number("--worker", v, 0, kIntMax);
    } else {
      std::fprintf(stderr, "campaign_fleet: unknown argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  if (o.dir.empty()) {
    std::fprintf(stderr, "campaign_fleet: --dir is required\n");
    return false;
  }
  if (o.units <= 0) o.units = 2 * o.workers;
  return true;
}

fault::FleetOptions build_fleet_options(const CliOptions& o) {
  fault::FleetOptions fo;
  fo.base.injections = o.injections;
  fo.base.seed = o.seed;
  fo.base.sampling.importance = o.sampling;
  if (o.sampling) {
    fo.base.analysis = std::make_shared<analysis::AnalysisArtifacts>(
        analysis::analyze_program(
            hv::build_microvisor(fo.base.machine).program));
  }
  // Checkpointed workers never collect a training dataset, so transition
  // detection could never fire (same rule micro_campaign applies when
  // --checkpoint is set) — this keeps the fleet digest comparable to the
  // checkpointed single-process reference.
  fo.base.xentry.transition_detection = false;
  fo.base.streaming.records_format = o.records_format;
  fo.base.streaming.checkpoint_every = o.checkpoint_every;
  fo.units = o.units;
  fo.workers = o.workers;
  fo.dir = o.dir;
  fo.status_interval_sec = o.status_interval;
  fo.worker_heartbeat_sec = o.heartbeat;
  fo.stall_timeout_sec = o.stall_timeout;
  fo.straggler_fraction = o.straggler_fraction;
  fo.max_restarts = o.max_restarts;
  fo.kill_one_after = o.kill_one_after;
  return fo;
}

/// The canonical worker argv: the coordinator's configuration flags
/// re-serialized (NOT the chaos flags — the coordinator owns those),
/// plus --worker W.  Every respawn uses the same vector, so a restarted
/// worker runs the identical configuration and resumes from its journal.
std::vector<std::string> worker_argv(const CliOptions& o, int worker) {
  std::vector<std::string> args;
  args.emplace_back("campaign_fleet");
  args.emplace_back("--dir");
  args.push_back(o.dir);
  args.emplace_back("--injections");
  args.push_back(std::to_string(o.injections));
  args.emplace_back("--units");
  args.push_back(std::to_string(o.units));
  args.emplace_back("--workers");
  args.push_back(std::to_string(o.workers));
  args.emplace_back("--seed");
  args.push_back(std::to_string(o.seed));
  if (o.sampling) args.emplace_back("--sampling");
  args.emplace_back("--records-format");
  args.emplace_back(obs::record_format_name(o.records_format));
  args.emplace_back("--checkpoint-every");
  args.push_back(std::to_string(o.checkpoint_every));
  args.emplace_back("--heartbeat");
  args.push_back(std::to_string(o.heartbeat));
  args.emplace_back("--straggler-fraction");
  args.push_back(std::to_string(o.straggler_fraction));
  args.emplace_back("--worker");
  args.push_back(std::to_string(worker));
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;

  const fault::FleetOptions fo = build_fleet_options(cli);
  if (cli.worker >= 0) {
    // Worker mode: run this worker's units and exit; the coordinator
    // reaps the exit code and restarts on failure.
    return fault::run_fleet_worker(fo, cli.worker);
  }

  // Coordinator: spawn workers as fresh processes of this same binary —
  // the observability plane runs cross-process, through files only.
  const std::string self = argv[0];
  fault::FleetOptions opts = fo;
  opts.spawn = [&cli, &self](int worker, int /*attempt*/) -> long {
    const std::vector<std::string> args = worker_argv(cli, worker);
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    std::vector<char*> cargs;
    cargs.reserve(args.size() + 1);
    for (const std::string& a : args) {
      cargs.push_back(const_cast<char*>(a.c_str()));
    }
    cargs.push_back(nullptr);
    ::execv("/proc/self/exe", cargs.data());
    ::execv(self.c_str(), cargs.data());  // fallback without procfs
    std::fprintf(stderr, "campaign_fleet: exec failed for worker %d\n",
                 worker);
    _exit(127);
  };
  opts.dashboard = [](const std::string& line) {
    std::fprintf(stderr, "[campaign_fleet] %s\n", line.c_str());
  };

  const fault::FleetResult res = fault::run_fleet(opts);
  if (!res.ok) {
    std::fprintf(stderr, "campaign_fleet: %s\n", res.error.c_str());
    return 1;
  }

  // Merged metrics report (full registry; strip timing metrics before
  // comparing across runs) — published atomically next to status.json.
  {
    std::ostringstream os;
    res.metrics.write_json(os);
    obs::write_file_atomic(cli.dir + "/fleet_metrics.json", os.str());
  }

  std::string restarts_json = "[";
  for (std::size_t w = 0; w < res.worker_restarts.size(); ++w) {
    if (w != 0) restarts_json += ", ";
    restarts_json += std::to_string(res.worker_restarts[w]);
  }
  restarts_json += "]";
  std::printf(
      "{\n"
      "  \"bench\": \"campaign_fleet\",\n"
      "  \"injections\": %d,\n"
      "  \"units\": %d,\n"
      "  \"workers\": %d,\n"
      "  \"seed\": %" PRIu64 ",\n"
      "  \"sampling\": %s,\n"
      "  \"records\": %zu,\n"
      "  \"records_digest\": \"%016" PRIx64 "\",\n"
      "  \"digest_cross_checked\": %s,\n"
      "  \"restarts\": %d,\n"
      "  \"worker_restarts\": %s,\n"
      "  \"effective_injections\": %.1f,\n"
      "  \"weighted_masked_rate\": %.6f,\n"
      "  \"weighted_sdc_rate\": %.6f,\n"
      "  \"weighted_manifested_rate\": %.6f,\n"
      "  \"weighted_detected_rate\": %.6f,\n"
      "  \"elapsed_sec\": %.4f,\n"
      "  \"injections_per_sec\": %.1f,\n"
      "  \"status\": \"%s/status.json\",\n"
      "  \"metrics\": \"%s/fleet_metrics.json\"\n"
      "}\n",
      cli.injections, cli.units, cli.workers, cli.seed,
      cli.sampling ? "true" : "false", res.records.size(), res.digest,
      res.digest_cross_checked ? "true" : "false", res.restarts,
      restarts_json.c_str(), res.rates.effective_injections,
      res.rates.rate(fault::Consequence::Masked),
      res.rates.rate(fault::Consequence::AppSdc),
      res.rates.manifested_rate(), res.rates.detected_rate(),
      res.elapsed_sec,
      res.elapsed_sec > 0
          ? static_cast<double>(res.records.size()) / res.elapsed_sec
          : 0.0,
      cli.dir.c_str(), cli.dir.c_str());
  return 0;
}
