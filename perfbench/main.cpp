// perfbench: the campaign benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//             [--injections N] [--perturb-replay]
//
// Untraced (--trace 0): sets the workload up several times, runs its
// pinned-seed campaign once, then repeats the campaign at --seed for S
// seconds, reading every record stream back after each run.  Reports
// medians of the end-to-end metrics.
//
// Traced (--trace 1): runs the campaign once untraced, then replays its
// shard loop with a span around every layer call (ledger.hpp) until S
// seconds have passed.  Every replay must reproduce the campaign's digest
// and the loop spans must cover >= 95% of the loop's wall time; otherwise
// no per-layer figure is published.
//
// Prints one JSON object on its last line of stdout: the checks, the
// pinned-seed answer (which run.py compares with pins.json) and the
// metrics.  Exit status: 0 when every check passed, 1 when one failed,
// 2 for a bad command line.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/record_io.hpp"
#include "perfbench/ledger.hpp"
#include "perfbench/workloads.hpp"

namespace {

using namespace xentry;
using namespace perfbench;

/// Set-ups per untraced run, at least, and the wall time they fill at
/// least (capped at kMaxSetupRuns); setup_s is their median.
constexpr int kSetupRuns = 5;
constexpr int kMaxSetupRuns = 200;
constexpr double kSetupSeconds = 1.0;
/// Measured campaigns per untraced run, at least.
constexpr int kMinRuns = 3;
/// The traced run's replay must cover at least this share of loop time.
constexpr double kMinCoverage = 0.95;

constexpr const char* kUsage =
    "usage: perfbench --workload uniform_stream|ensemble_sampled|"
    "durable_readback --seed N --seconds S --trace 0|1 --workdir DIR "
    "[--injections N] [--perturb-replay]";

struct Args {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  int injections = 0;
  bool perturb = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n%s\n", why.c_str(), kUsage);
  std::exit(2);
}

template <class T>
T parse_number(const std::string& flag, const char* text) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || text == end) {
    usage_error("malformed number '" + std::string(text) + "' for " + flag);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool seen_seed = false, seen_seconds = false, seen_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::printf("%s\n", kUsage);
      std::exit(0);
    }
    if (flag == "--perturb-replay") {
      a.perturb = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = find_workload(value);
      if (a.workload == nullptr) {
        usage_error("unknown workload '" + std::string(value) + "'");
      }
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, value);
      seen_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, value);
      if (!(a.seconds > 0 && a.seconds <= 3600)) {
        usage_error("--seconds must be within (0, 3600]");
      }
      seen_seconds = true;
    } else if (flag == "--trace") {
      const int t = parse_number<int>(flag, value);
      if (t != 0 && t != 1) usage_error("--trace must be 0 or 1");
      a.trace = t == 1;
      seen_trace = true;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--injections") {
      a.injections = parse_number<int>(flag, value);
      if (a.injections <= 0) usage_error("--injections must be positive");
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (a.workload == nullptr || !seen_seed || !seen_seconds || !seen_trace ||
      a.workdir.empty()) {
    usage_error(
        "--workload, --seed, --seconds, --trace and --workdir are required");
  }
  if (a.injections == 0) a.injections = a.workload->injections;
  return a;
}

// -- small statistics ---------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double quantile_ns(const std::vector<std::int64_t>& ns, double q) {
  return quantile(std::vector<double>(ns.begin(), ns.end()), q);
}

double sum_ns(const std::vector<std::int64_t>& ns) {
  double s = 0;
  for (std::int64_t x : ns) s += static_cast<double>(x);
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// -- one campaign, measured ---------------------------------------------------

struct Run {
  ReadBack rb;
  double seconds = 0;   ///< run_campaign wall time
  double cpu_s = 0;     ///< run_campaign process CPU time
  double effective = 0;
  fault::CampaignResult result;
};

Run run_once(const fault::CampaignConfig& cfg) {
  clear_streams(cfg);
  Run r;
  const std::int64_t c0 = cpu_ns();
  const std::int64_t t0 = now_ns();
  r.result = fault::run_campaign(cfg);
  r.seconds = seconds_since(t0);
  r.cpu_s = static_cast<double>(cpu_ns() - c0) * 1e-9;
  r.rb = read_back(cfg, r.result);
  r.effective = fault::weighted_rates(r.rb.records).effective_injections;
  return r;
}

/// What the benchmark reports: checks, the pinned-seed answer, metrics.
struct Report {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::optional<Answer> pinned;
  std::vector<std::pair<std::string, double>> metrics;
  /// Per-campaign rates behind the medians, for reading a run's noise.
  std::vector<double> rate_samples;

  void fail(const std::string& why) {
    ok = false;
    errors.push_back(why);
  }
  void metric(const std::string& name, double v) {
    metrics.emplace_back(name, v);
  }

  void print(const Args& a, int injections) const {
    std::string s = "{\"workload\": " + quoted(std::string(a.workload->name)) +
                    ", \"seed\": " + std::to_string(a.seed) +
                    ", \"trace\": " + (a.trace ? "1" : "0") +
                    ", \"injections\": " + std::to_string(injections) +
                    ", \"ok\": " + (ok ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      s += (i ? ", " : "") + quoted(errors[i]);
    }
    s += "], \"pinned\": ";
    if (pinned.has_value()) {
      const Answer& p = *pinned;
      s += "{\"seed\": " + std::to_string(kDefaultSeed) +
           ", \"records\": " + std::to_string(p.records) +
           ", \"digest\": \"" + hex(p.digest) + "\"" +
           ", \"effective_injections\": " + num(p.effective_injections) +
           ", \"coverage\": " + num(p.coverage) +
           ", \"masked_rate\": " + num(p.masked_rate) +
           ", \"sdc_rate\": " + num(p.sdc_rate) +
           ", \"crash_rate\": " + num(p.crash_rate) +
           ", \"manifested_rate\": " + num(p.manifested_rate) +
           ", \"detected_rate\": " + num(p.detected_rate) + "}";
    } else {
      s += "null";
    }
    s += ", \"rate_samples\": [";
    for (std::size_t i = 0; i < rate_samples.size(); ++i) {
      s += (i ? ", " : "") + num(rate_samples[i]);
    }
    s += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      s += (i ? ", " : "") + quoted(metrics[i].first) + ": " +
           num(metrics[i].second);
    }
    std::printf("%s}}\n", s.c_str());
    std::fflush(stdout);
  }
};

/// The pinned-seed campaign: the run the pins in pins.json describe.
void run_pinned(const Args& a, Report& rep) {
  const Prepared p = prepare(a.workload->id, kDefaultSeed, a.injections,
                             a.workdir + "/pinned");
  rep.pinned = answer_of(run_once(p.cfg).rb);
}

/// Setting up until the first record: the workload's preparation plus a
/// one-injection-per-shard campaign (machine build, warm-up, stream open).
double time_setup(const Args& a, Prepared& out) {
  const std::int64_t t0 = now_ns();
  out = prepare(a.workload->id, a.seed, a.injections, a.workdir + "/measured");
  fault::CampaignConfig first = out.cfg;
  first.injections = resolved_shards(out.cfg);
  set_stream_base(first, a.workdir + "/setup/records");
  clear_streams(first);
  const fault::CampaignResult r = fault::run_campaign(first);
  if (r.records.empty() && r.records_streamed == 0) {
    throw std::runtime_error("set-up campaign produced no record");
  }
  return seconds_since(t0);
}

void run_untraced(const Args& a, Report& rep) {
  Prepared p;
  std::vector<double> setup;
  const std::int64_t setup_start = now_ns();
  while (static_cast<int>(setup.size()) < kSetupRuns ||
         (seconds_since(setup_start) < kSetupSeconds &&
          static_cast<int>(setup.size()) < kMaxSetupRuns)) {
    setup.push_back(time_setup(a, p));
  }
  run_pinned(a, rep);

  std::vector<double> rate, effective, readback;
  std::optional<std::uint64_t> digest;
  const std::int64_t start = now_ns();
  while (static_cast<int>(rate.size()) < kMinRuns ||
         seconds_since(start) < a.seconds) {
    Run r;
    try {
      r = run_once(p.cfg);
    } catch (const std::exception& e) {
      rep.attempted += static_cast<std::uint64_t>(a.injections);
      rep.failed += static_cast<std::uint64_t>(a.injections);
      rep.fail(e.what());
      break;
    }
    const std::uint64_t n = r.rb.records.size();
    rep.attempted += n;
    if (!digest.has_value()) digest = r.rb.digest;
    if (r.rb.digest != *digest) {
      rep.failed += n;
      rep.fail("rerun digest " + hex(r.rb.digest) + " differs from " +
               hex(*digest));
    }
    rate.push_back(static_cast<double>(n) / r.seconds);
    effective.push_back(r.effective / r.seconds);
    readback.push_back(static_cast<double>(n) / r.rb.seconds);
  }
  rep.rate_samples = rate;
  rep.metric("injections_per_s", median(rate));
  rep.metric("effective_injections_per_s", median(effective));
  rep.metric("setup_s", median(setup));
  rep.metric("readback_records_per_s", median(readback));
  rep.metric("peak_rss_mb", peak_rss_mb());
}

// -- the traced run -----------------------------------------------------------

/// Decodes `r`'s record stream one frame at a time, timing each decode.
void trace_decode(const fault::CampaignConfig& cfg, const Run& r, Ledger& l) {
  const fault::CampaignConfig::StreamingConfig& st = cfg.streaming;
  std::vector<std::string> streams;
  obs::RecordFormat fmt = obs::RecordFormat::kBinary;
  if (st.records_path.empty()) {
    streams.push_back(encode_binary(r.result.records));
  } else {
    fmt = st.records_format;
    for (int s = 0; s < resolved_shards(cfg); ++s) {
      streams.push_back(slurp(obs::ShardedFileSink::shard_path(
          st.records_path, fmt, static_cast<std::size_t>(s))));
    }
  }
  fault::InjectionRecord rec;
  for (const std::string& data : streams) {
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::int64_t t0 = now_ns();
      const bool ok = fault::decode_record(data, fmt, pos, rec);
      l.add(kDecode, now_ns() - t0);
      if (!ok) throw std::runtime_error("traced read-back: undecodable frame");
    }
  }
}

void run_traced(const Args& a, Report& rep) {
  const Prepared p = prepare(a.workload->id, a.seed, a.injections,
                             a.workdir + "/measured");
  run_pinned(a, rep);

  fault::CampaignConfig replay_cfg = p.cfg;
  set_stream_base(replay_cfg, a.workdir + "/replay/records");
  Ledger loop, shadow;
  std::vector<double> overhead;
  const std::int64_t start = now_ns();
  do {
    const Run ref = run_once(p.cfg);
    trace_decode(p.cfg, ref, shadow);

    Ledger pass;  // merged into `loop` only if the replay is faithful
    clear_streams(replay_cfg);
    const std::int64_t c0 = cpu_ns();
    const fault::CampaignResult r1 =
        replay_campaign(replay_cfg, pass, nullptr, a.perturb);
    const double replay_cpu_s = static_cast<double>(cpu_ns() - c0) * 1e-9;
    // The replay's digest, read back the way the campaign's was.
    const std::uint64_t d1 = read_back(replay_cfg, r1).digest;

    Ledger scratch;
    clear_streams(replay_cfg);
    const fault::CampaignResult r2 =
        replay_campaign(replay_cfg, scratch, &shadow, a.perturb);
    const std::uint64_t d2 = read_back(replay_cfg, r2).digest;

    const std::uint64_t n = ref.rb.records.size();
    rep.attempted += n;
    if (d1 != ref.rb.digest || d2 != ref.rb.digest) {
      rep.failed += n;
      rep.fail("replay digest " + hex(d1 != ref.rb.digest ? d1 : d2) +
               " differs from run_campaign's " + hex(ref.rb.digest));
      break;
    }
    loop.merge_from(pass);
    overhead.push_back(replay_cpu_s / ref.cpu_s - 1.0);
  } while (seconds_since(start) < a.seconds);

  const double coverage = loop.coverage();
  if (rep.ok && coverage < kMinCoverage) {
    rep.fail("layer spans cover " + num(coverage) + " of loop time, below " +
             num(kMinCoverage));
  }
  if (!rep.ok) return;

  const double loop_ns = static_cast<double>(loop.loop_ns);
  for (int s = 0; s < kNumSpans; ++s) {
    const std::string name(kSpanNames[static_cast<std::size_t>(s)]);
    if (s == kIteration) continue;  // reported in microseconds below
    const Ledger& src = s < kLoopSpans ? loop : shadow;
    const std::vector<std::int64_t>& v = src.spans[static_cast<std::size_t>(s)];
    rep.metric(name + "_ns", quantile_ns(v, 0.5));
    rep.metric(name + "_p99_ns", quantile_ns(v, 0.99));
    if (s < kLoopSpans) rep.metric(name + "_wall_share", sum_ns(v) / loop_ns);
  }
  // Machine::snapshot_into / restore: the program's own 1-in-N sampled
  // timers, scaled by N for their share of loop time.
  const double every = snapshot_sample_every();
  const std::pair<const char*, const obs::Log2Histogram*> sync[] = {
      {"hv.snapshot_into", &loop.snapshot_ns},
      {"hv.restore", &loop.restore_ns}};
  for (const auto& [name, h] : sync) {
    rep.metric(std::string(name) + "_ns", h->percentile(0.5));
    rep.metric(std::string(name) + "_p99_ns", h->percentile(0.99));
    rep.metric(std::string(name) + "_wall_share",
               static_cast<double>(h->sum()) * every / loop_ns);
  }
  const std::vector<std::int64_t>& iter = loop.spans[kIteration];
  rep.metric("fault.iteration_p50_us", quantile_ns(iter, 0.5) * 1e-3);
  rep.metric("fault.iteration_p99_us", quantile_ns(iter, 0.99) * 1e-3);
  const double records = static_cast<double>(loop.records);
  rep.metric("sim.golden_steps_per_s",
             ratio(static_cast<double>(shadow.shadow_steps) * 1e9,
                   sum_ns(shadow.spans[kHvRun])));
  rep.metric("fault.golden_steps_per_injection",
             ratio(static_cast<double>(loop.golden_steps), records));
  rep.metric("fault.faulted_run_share",
             ratio(static_cast<double>(loop.faulted_runs), records));
  rep.metric("fault.analytic_share",
             ratio(static_cast<double>(loop.analytic), records));
  rep.metric("fault.hang_share", ratio(static_cast<double>(loop.hangs),
                                       static_cast<double>(loop.faulted_runs)));
  rep.metric("fault.record_bytes",
             ratio(static_cast<double>(loop.record_bytes), records));
  double checkpoint_bytes = 0;
  if (!replay_cfg.streaming.checkpoint_path.empty()) {
    // Journal bytes after the header line, per checkpoint line.
    const std::string journal = slurp(replay_cfg.streaming.checkpoint_path);
    const std::size_t header_end = journal.find('\n');
    const auto lines = std::count(journal.begin(), journal.end(), '\n');
    if (header_end != std::string::npos && lines > 1) {
      checkpoint_bytes = static_cast<double>(journal.size() - header_end - 1) /
                         static_cast<double>(lines - 1);
    }
  }
  rep.metric("fault.checkpoint_bytes", checkpoint_bytes);
  rep.metric("analysis.analyze_ms", p.analyze_ms);
  rep.metric("ml.train_ms", p.train_ms);
  rep.metric("setup.training_campaign_s", p.training_campaign_s);
  rep.metric("layers.coverage", coverage);
  rep.metric("trace.overhead", median(overhead));
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Report rep;
  try {
    std::filesystem::create_directories(a.workdir);
    if (a.trace) {
      run_traced(a, rep);
    } else {
      run_untraced(a, rep);
    }
  } catch (const std::exception& e) {
    rep.fail(e.what());
  }
  if (!rep.ok && rep.failed == 0) {
    rep.failed = std::max<std::uint64_t>(rep.attempted, 1);
  }
  if (rep.attempted == 0) {
    rep.attempted = std::max<std::uint64_t>(rep.failed, 1);
  }
  rep.print(a, a.injections);
  return rep.ok ? 0 : 1;
}
