// Telemetry overhead bound + digest-equality check.
//
// Runs the same campaign (the micro_campaign configuration) under eight
// telemetry modes — two independent fully-off sets, metrics-only, fully
// on (metrics + tracing + flight recorder), forensics (metrics +
// lockstep replay), cfi_off (static-analysis artifacts installed but
// control-flow detection disabled), timing_off (artifacts with timing
// envelopes installed but timing detection disabled), and sinks
// (streaming every record through the durable JSONL record sink) — and
// asserts the observability contract.  Measurement discipline for noisy shared
// hosts: rates are computed from process CPU time (immune to scheduler
// steal), one untimed warmup campaign runs first, the mode order rotates
// every rep (so no mode systematically inherits the post-boost or
// post-warmup slot), and each mode keeps its best-of-N rate.  Asserted:
//
//   1. record digests are bit-identical across ALL runs and modes;
//   2. the two telemetry-off sets agree within `tol_disabled`: with
//      telemetry disabled every collection site is a null-pointer check,
//      so a disabled-telemetry run must be indistinguishable from the
//      baseline up to measurement noise — this bounds both the disabled
//      path's cost and the noise floor the enabled bound is judged
//      against;
//   3. fully-on throughput is within `tol_enabled` of off;
//   4. forensics-mode digests equal the off digests (the replay must not
//      perturb the record stream) and its throughput stays within
//      `tol_forensics` — a loose bound: forensics re-executes qualifying
//      faulted windows on the reference engine, so its cost scales with
//      the escape rate, not with hot-path instrumentation;
//   5. cfi_off digests equal the off digests (installing analysis
//      artifacts with control-flow detection disabled must not perturb
//      the observe path) and its rate is judged at `tol_disabled`;
//   5b. timing_off digests equal the off digests (artifacts carrying
//      timing envelopes with timing detection disabled must leave
//      counter arming and the observe path bit-identical) and its rate
//      is judged at `tol_disabled`;
//   6. sinks digests equal the off digests (streaming is encode-and-
//      append off the hot state, never a behavioral input) and its
//      throughput stays within `tol_enabled` — the streaming pipeline's
//      headline bound: durable records cost <= 10% by default.
//
// Exit status is non-zero on any violation, so CI can run this as a
// smoke test.  `--trace-out FILE` additionally writes the fully-on run's
// Chrome trace-event JSON (load it at ui.perfetto.dev).
//
// Usage: obs_overhead [injections] [shards] [seed] [reps] [--trace-out F]
//   tolerances:  XENTRY_OBS_TOL_DISABLED  (default 0.02)
//                XENTRY_OBS_TOL_ENABLED   (default 0.10)
//                XENTRY_OBS_TOL_FORENSICS (default 0.35)
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "fault/campaign.hpp"
#include "hv/microvisor.hpp"

namespace {

using namespace xentry;

struct Mode {
  const char* name;
  obs::Options obs;
  /// Install static-analysis artifacts (with control-flow detection left
  /// off) — exercises the disabled-CFI path of the observe loop.
  bool install_analysis = false;
  /// Stream records through a durable JSONL ShardedFileSink.
  bool streaming = false;
  /// Explicitly pin timing detection off while artifacts (which carry
  /// the timing envelopes) are installed — exercises the disabled-timing
  /// path of the observe loop, including its counter-arming decision.
  bool timing_off = false;
};

struct RunScore {
  double rate = 0;  ///< injections per CPU-second
  std::uint64_t digest = 0;
};

double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Per-process scratch base for the sinks mode (parallel CI jobs must
/// not share stream files).
const std::string& sink_base_path() {
  static const std::string p = [] {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::temp_directory_path(ec);
    if (ec) dir = ".";
    return (dir / ("obs_overhead_records." +
                   std::to_string(static_cast<long>(::getpid()))))
        .string();
  }();
  return p;
}

RunScore run_once(int injections, int shards, std::uint64_t seed,
                  const Mode& mode,
                  std::shared_ptr<const analysis::AnalysisArtifacts> analysis,
                  fault::CampaignResult* keep) {
  fault::CampaignConfig cfg;
  cfg.injections = injections;
  cfg.shards = shards;
  cfg.seed = seed;
  cfg.collect_dataset = true;  // the micro_campaign configuration
  cfg.obs = mode.obs;
  if (mode.install_analysis) cfg.analysis = std::move(analysis);
  if (mode.streaming) cfg.streaming.records_path = sink_base_path();
  if (mode.timing_off) cfg.xentry.timing_detection = false;
  const double t0 = cpu_seconds();
  fault::CampaignResult res = fault::run_campaign(cfg);
  const double elapsed = cpu_seconds() - t0;
  RunScore score;
  score.rate = static_cast<double>(res.records.size()) / elapsed;
  score.digest = bench::records_digest(res.records);
  if (keep != nullptr) *keep = std::move(res);
  return score;
}

constexpr const char* kUsage =
    "usage: obs_overhead [injections] [shards] [seed] [reps] "
    "[--trace-out FILE]\n"
    "  defaults 20000 1 7 8; injections, shards and reps >= 1.\n"
    "  Tolerances: XENTRY_OBS_TOL_DISABLED, XENTRY_OBS_TOL_ENABLED,\n"
    "  XENTRY_OBS_TOL_FORENSICS.\n";

}  // namespace

int main(int argc, char** argv) {
  // Default reps = mode count: with rotation, every mode then occupies
  // every within-rep slot exactly once.
  int injections = 20000, shards = 1, reps = 8;
  std::uint64_t seed = 7;
  std::string trace_out;
  const char* const prog = "obs_overhead";
  constexpr int kIntMax = std::numeric_limits<int>::max();
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s", kUsage);
      return 0;
    }
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
      continue;
    }
    // Rates need records, so injections and reps start at 1, as shards do.
    switch (pos++) {
      case 0:
        injections = bench::parse_number_or_exit(prog, "injections", argv[i],
                                                 1, kIntMax, kUsage);
        break;
      case 1:
        shards = bench::parse_number_or_exit(prog, "shards", argv[i], 1,
                                             kIntMax, kUsage);
        break;
      case 2:
        seed = bench::parse_number_or_exit(
            prog, "seed", argv[i], std::uint64_t{0},
            std::numeric_limits<std::uint64_t>::max(), kUsage);
        break;
      case 3:
        reps = bench::parse_number_or_exit(prog, "reps", argv[i], 1, kIntMax,
                                           kUsage);
        break;
      default:
        std::fprintf(stderr, "%s: unexpected argument '%s'\n%s", prog,
                     argv[i], kUsage);
        return 2;
    }
  }
  const double tol_disabled =
      bench::env_positive("XENTRY_OBS_TOL_DISABLED", 0.02);
  const double tol_enabled =
      bench::env_positive("XENTRY_OBS_TOL_ENABLED", 0.10);
  const double tol_forensics =
      bench::env_positive("XENTRY_OBS_TOL_FORENSICS", 0.35);

  const Mode modes[] = {
      {"off", obs::Options{}},
      {"off2", obs::Options{}},
      {"metrics", {.metrics = true}},
      {"full", obs::Options::all()},
      {"forensics", {.metrics = true, .forensics = true}},
      {"cfi_off", obs::Options{}, /*install_analysis=*/true},
      {"timing_off", obs::Options{}, /*install_analysis=*/true,
       /*streaming=*/false, /*timing_off=*/true},
      {"sinks", obs::Options{}, /*install_analysis=*/false,
       /*streaming=*/true},
  };
  constexpr int kNumModes = 8;

  // Analysis artifacts for the cfi_off mode, computed once (the analysis
  // itself is build-time work, not part of the campaign hot path).
  const hv::Microvisor probe =
      hv::build_microvisor(fault::CampaignConfig{}.machine);
  const auto artifacts = std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(probe.program, hv::analyze_options(probe)));

  // One untimed warmup (page cache, allocator, frequency boost), then
  // rotate the mode order every rep so drift hits every mode equally;
  // keep the best rate per mode.
  run_once(injections, shards, seed, modes[0], nullptr, nullptr);
  double best[kNumModes] = {};
  std::uint64_t digest = 0;
  bool digest_set = false, digests_ok = true;
  fault::CampaignResult full_result;  // a fully-on run, for --trace-out
  for (int rep = 0; rep < reps; ++rep) {
    for (int mi = 0; mi < kNumModes; ++mi) {
      const int m = (mi + rep) % kNumModes;
      const bool keep = m == 3;  // "full": the run --trace-out exports
      const RunScore s = run_once(injections, shards, seed, modes[m],
                                  artifacts, keep ? &full_result : nullptr);
      if (s.rate > best[m]) best[m] = s.rate;
      if (!digest_set) {
        digest = s.digest;
        digest_set = true;
      } else if (s.digest != digest) {
        digests_ok = false;
        std::fprintf(stderr,
                     "FAIL: digest mismatch in mode %s rep %d: "
                     "%016llx vs %016llx\n",
                     modes[m].name, rep,
                     static_cast<unsigned long long>(s.digest),
                     static_cast<unsigned long long>(digest));
      }
    }
  }

  // Symmetric disabled gap: either off set may have gotten the luckier
  // scheduling, and a negative gap is as informative as a positive one.
  const double overhead_disabled =
      std::abs(1.0 - best[1] / best[0]);
  const double overhead_metrics = 1.0 - best[2] / best[0];
  const double overhead_enabled = 1.0 - best[3] / best[0];
  const double overhead_forensics = 1.0 - best[4] / best[0];
  // cfi_off is a disabled collection site like off2: one boolean check
  // per observation, so it is judged at the same symmetric tolerance.
  const double overhead_cfi_off = std::abs(1.0 - best[5] / best[0]);
  // timing_off is the same shape for the timing detector: installed
  // envelopes with detection off must cost one boolean check.
  const double overhead_timing_off = std::abs(1.0 - best[6] / best[0]);
  // sinks pays encode + buffered append + flush per record — real work,
  // judged at the enabled tolerance (the <= 10% streaming bound).
  const double overhead_sinks = 1.0 - best[7] / best[0];
  const bool disabled_ok = overhead_disabled <= tol_disabled;
  const bool enabled_ok = overhead_enabled <= tol_enabled;
  const bool forensics_ok = overhead_forensics <= tol_forensics;
  const bool cfi_off_ok = overhead_cfi_off <= tol_disabled;
  const bool timing_off_ok = overhead_timing_off <= tol_disabled;
  const bool sinks_ok = overhead_sinks <= tol_enabled;

  std::printf(
      "{\n"
      "  \"bench\": \"obs_overhead\",\n"
      "  \"injections\": %d,\n"
      "  \"shards\": %d,\n"
      "  \"seed\": %llu,\n"
      "  \"reps\": %d,\n"
      "  \"records_digest\": \"%016llx\",\n"
      "  \"digests_identical\": %s,\n"
      "  \"rate_off\": %.1f,\n"
      "  \"rate_off2\": %.1f,\n"
      "  \"rate_metrics\": %.1f,\n"
      "  \"rate_full\": %.1f,\n"
      "  \"rate_forensics\": %.1f,\n"
      "  \"rate_cfi_off\": %.1f,\n"
      "  \"rate_timing_off\": %.1f,\n"
      "  \"rate_sinks\": %.1f,\n"
      "  \"overhead_disabled\": %.4f,\n"
      "  \"overhead_metrics\": %.4f,\n"
      "  \"overhead_full\": %.4f,\n"
      "  \"overhead_forensics\": %.4f,\n"
      "  \"overhead_cfi_off\": %.4f,\n"
      "  \"overhead_timing_off\": %.4f,\n"
      "  \"overhead_sinks\": %.4f,\n"
      "  \"tol_disabled\": %.4f,\n"
      "  \"tol_enabled\": %.4f,\n"
      "  \"tol_forensics\": %.4f,\n"
      "  \"bounds_ok\": %s\n"
      "}\n",
      injections, shards, static_cast<unsigned long long>(seed), reps,
      static_cast<unsigned long long>(digest), digests_ok ? "true" : "false",
      best[0], best[1], best[2], best[3], best[4], best[5], best[6], best[7],
      overhead_disabled, overhead_metrics, overhead_enabled,
      overhead_forensics, overhead_cfi_off, overhead_timing_off,
      overhead_sinks, tol_disabled, tol_enabled, tol_forensics,
      disabled_ok && enabled_ok && forensics_ok && cfi_off_ok &&
              timing_off_ok && sinks_ok
          ? "true"
          : "false");

  // Scratch stream files from the sinks mode are per-process; clean up.
  for (int s = 0; s < shards; ++s) {
    std::error_code ec;
    std::filesystem::remove(
        obs::ShardedFileSink::shard_path(sink_base_path(),
                                         obs::RecordFormat::kJsonl,
                                         static_cast<std::size_t>(s)),
        ec);
  }

  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      std::fprintf(stderr, "FAIL: cannot open %s\n", trace_out.c_str());
      return 1;
    }
    full_result.trace.write_chrome_json(os);
    std::fprintf(stderr, "[obs_overhead] wrote %zu trace events to %s\n",
                 full_result.trace.events().size(), trace_out.c_str());
  }

  if (!digests_ok) return 1;
  if (!disabled_ok) {
    std::fprintf(stderr,
                 "FAIL: disabled-telemetry overhead %.2f%% exceeds %.2f%%\n",
                 overhead_disabled * 100, tol_disabled * 100);
    return 1;
  }
  if (!enabled_ok) {
    std::fprintf(stderr,
                 "FAIL: enabled-telemetry overhead %.2f%% exceeds %.2f%%\n",
                 overhead_enabled * 100, tol_enabled * 100);
    return 1;
  }
  if (!forensics_ok) {
    std::fprintf(stderr,
                 "FAIL: forensics overhead %.2f%% exceeds %.2f%%\n",
                 overhead_forensics * 100, tol_forensics * 100);
    return 1;
  }
  if (!cfi_off_ok) {
    std::fprintf(stderr,
                 "FAIL: disabled-CFI overhead %.2f%% exceeds %.2f%%\n",
                 overhead_cfi_off * 100, tol_disabled * 100);
    return 1;
  }
  if (!timing_off_ok) {
    std::fprintf(stderr,
                 "FAIL: disabled-timing overhead %.2f%% exceeds %.2f%%\n",
                 overhead_timing_off * 100, tol_disabled * 100);
    return 1;
  }
  if (!sinks_ok) {
    std::fprintf(stderr,
                 "FAIL: record-sink streaming overhead %.2f%% exceeds %.2f%%\n",
                 overhead_sinks * 100, tol_enabled * 100);
    return 1;
  }
  return 0;
}
