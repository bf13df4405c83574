// Telemetry stream toolbox: merge / verify / tail over persisted
// campaign record streams and checkpoint journals.
//
// A large study runs as many independent workers (one micro_campaign
// --records-out each, possibly on different hosts); each worker leaves
// per-shard record streams and, when checkpointed, a journal whose lines
// carry each shard's metrics registry.  This tool is the read side of
// that pipeline:
//
//   merge   fold any number of workers' streams into one report —
//           record counts, the exact reweighted rates (WeightedRates
//           merges by field-wise sum, so the merged rates equal the
//           rates of the concatenated streams), coverage breakdown, and
//           the merged metrics registry from each journal's last line
//           per shard.
//   verify  check a stream against its checkpoint journal: every
//           journaled shard's record count and running digest must match
//           what the persisted frames decode to, and the whole stream
//           must decode cleanly.  Optionally pin the full-stream digest
//           against a known value (--digest, e.g. micro_campaign's
//           records_digest output).  Non-zero exit on any mismatch —
//           CI's kill/resume smoke runs this.
//   tail    decode the stream and print the last N records as JSONL
//           (whatever the on-disk format), for eyeballing a campaign.
//
// Shard discovery (fault::read_shard_stream) probes `<base>.shard<N>.<ext>`
// from N = 0 upward; the first missing index ends the worker, and the
// extension tells the format.  Streams are read in shard order, which is
// the campaign's deterministic merge order.  A journal line that does not
// parse fails the command, naming the file and the line.
//
// Usage:
//   telemetry_tool merge  --records BASE [--records BASE ...]
//                         [--checkpoint JOURNAL ...] [-o REPORT.json]
//   telemetry_tool verify --records BASE [--checkpoint JOURNAL]
//                         [--digest HEX16]
//   telemetry_tool tail   --records BASE [-n N]
//
// A malformed -n or --digest, or a verify given more than one
// --checkpoint, exits 2.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "fault/stats.hpp"
#include "obs/json.hpp"

namespace {

using namespace xentry;

/// A records digest as micro_campaign prints it: 1-16 hex digits, with
/// or without a 0x prefix, and nothing else.
std::optional<std::uint64_t> parse_digest(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, 16);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// The shards' registries from their last journal lines, merged in shard
/// order.
obs::MetricsRegistry journaled_metrics(const fault::JournalContents& j) {
  obs::MetricsRegistry merged;
  for (const auto& ck : j.shards) {
    if (ck.has_value()) merged.merge_from(ck->metrics);
  }
  return merged;
}

struct Flags {
  std::vector<std::string> records;
  std::vector<std::string> checkpoints;
  std::string out;
  std::optional<std::uint64_t> digest;
  int tail_n = 10;
  bool ok = true;
};

Flags parse_flags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "telemetry_tool: %s needs a value\n",
                     arg.c_str());
        f.ok = false;
        return "";
      }
      return argv[++i];
    };
    if (arg == "--records") {
      f.records.emplace_back(value());
    } else if (arg == "--checkpoint") {
      f.checkpoints.emplace_back(value());
    } else if (arg == "-o" || arg == "--out") {
      f.out = value();
    } else if (arg == "-n") {
      const char* v = value();
      const std::optional<int> n =
          bench::parse_number(v, 1, std::numeric_limits<int>::max());
      if (!n.has_value()) {
        std::fprintf(stderr, "telemetry_tool: bad -n '%s' (want >= 1)\n", v);
        f.ok = false;
      } else {
        f.tail_n = *n;
      }
    } else if (arg == "--digest") {
      const char* v = value();
      f.digest = parse_digest(v);
      if (!f.digest.has_value()) {
        std::fprintf(stderr,
                     "telemetry_tool: bad --digest '%s' (want up to 16 hex "
                     "digits)\n",
                     v);
        f.ok = false;
      }
    } else {
      std::fprintf(stderr, "telemetry_tool: unknown argument '%s'\n",
                   arg.c_str());
      f.ok = false;
    }
  }
  if (f.records.empty()) {
    std::fprintf(stderr, "telemetry_tool: at least one --records BASE "
                         "is required\n");
    f.ok = false;
  }
  return f;
}

int cmd_merge(const Flags& f) {
  std::size_t total_records = 0, total_shards = 0;
  fault::WeightedRates rates;
  std::vector<fault::InjectionRecord> all;
  std::vector<std::pair<std::string, std::uint64_t>> worker_digests;
  for (const std::string& base : f.records) {
    fault::ShardStream stream;
    if (const auto err = fault::read_shard_stream(base, stream)) {
      std::fprintf(stderr, "telemetry_tool: %s\n", err->c_str());
      return 1;
    }
    std::vector<fault::InjectionRecord>& records = stream.records;
    total_shards += stream.shard_ends.size();
    total_records += records.size();
    worker_digests.emplace_back(base, fault::records_digest(records));
    // Rates merge by field-wise sum: the merged answer equals the rates
    // of the concatenated streams without holding all workers at once.
    rates.merge_from(fault::weighted_rates(records));
    all.insert(all.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  const fault::CoverageBreakdown cov = fault::coverage_breakdown(all);

  obs::MetricsRegistry metrics;
  for (const std::string& path : f.checkpoints) {
    const fault::JournalContents journal = fault::read_journal(path);
    if (!journal.error.empty()) {
      std::fprintf(stderr, "telemetry_tool: %s\n", journal.error.c_str());
      return 1;
    }
    if (!journal.valid) {
      std::fprintf(stderr, "telemetry_tool: no parseable journal at '%s'\n",
                   path.c_str());
      return 1;
    }
    metrics.merge_from(journaled_metrics(journal));
  }

  std::FILE* os = stdout;
  if (!f.out.empty()) {
    os = std::fopen(f.out.c_str(), "w");
    if (os == nullptr) {
      std::fprintf(stderr, "telemetry_tool: cannot open '%s'\n",
                   f.out.c_str());
      return 1;
    }
  }
  std::fprintf(os,
               "{\n"
               "  \"tool\": \"telemetry_tool merge\",\n"
               "  \"workers\": %zu,\n"
               "  \"shards\": %zu,\n"
               "  \"records\": %zu,\n"
               "  \"worker_digests\": {",
               f.records.size(), total_shards, total_records);
  for (std::size_t i = 0; i < worker_digests.size(); ++i) {
    // A base is a path from the command line: any byte may need escaping.
    std::ostringstream base;
    obs::write_json_string(base, worker_digests[i].first);
    std::fprintf(os, "%s\n    %s: \"%016" PRIx64 "\"", i == 0 ? "" : ",",
                 base.str().c_str(), worker_digests[i].second);
  }
  std::fprintf(os,
               "\n  },\n"
               "  \"effective_injections\": %.1f,\n"
               "  \"weighted_masked_rate\": %.6f,\n"
               "  \"weighted_sdc_rate\": %.6f,\n"
               "  \"weighted_crash_rate\": %.6f,\n"
               "  \"weighted_manifested_rate\": %.6f,\n"
               "  \"weighted_detected_rate\": %.6f,\n"
               "  \"manifested\": %zu,\n"
               "  \"detected_coverage\": %.6f,\n"
               "  \"undetected\": %zu,\n",
               rates.effective_injections,
               rates.rate(fault::Consequence::Masked),
               rates.rate(fault::Consequence::AppSdc),
               rates.rate(fault::Consequence::AppCrash),
               rates.manifested_rate(), rates.detected_rate(),
               cov.manifested, cov.coverage(), cov.undetected);
  if (!f.checkpoints.empty()) {
    // The merged registry as nested JSON (counters/gauges/histograms).
    std::ostringstream mjson;
    metrics.write_json(mjson);
    std::fprintf(os, "  \"metrics\": %s,\n", mjson.str().c_str());
  }
  std::fprintf(os, "  \"journals\": %zu\n}\n", f.checkpoints.size());
  if (os != stdout) std::fclose(os);
  return 0;
}

int cmd_verify(const Flags& f) {
  if (f.records.size() != 1) {
    std::fprintf(stderr,
                 "telemetry_tool: verify takes exactly one --records BASE "
                 "(the journal is per campaign)\n");
    return 2;
  }
  if (f.checkpoints.size() > 1) {
    std::fprintf(stderr,
                 "telemetry_tool: verify takes at most one --checkpoint "
                 "JOURNAL (the journal of its --records)\n");
    return 2;
  }
  fault::ShardStream stream;
  if (const auto err = fault::read_shard_stream(f.records[0], stream)) {
    std::fprintf(stderr, "FAIL: %s\n", err->c_str());
    return 1;
  }
  const std::vector<fault::InjectionRecord>& records = stream.records;
  const std::size_t shards = stream.shard_ends.size();
  const auto shard_begin = [&stream](std::size_t s) {
    return s == 0 ? std::size_t{0} : stream.shard_ends[s - 1];
  };

  bool ok = true;
  const std::uint64_t full_digest = fault::records_digest(records);

  if (!f.checkpoints.empty()) {
    const std::string& path = f.checkpoints[0];
    const fault::JournalContents journal = fault::read_journal(path);
    if (!journal.error.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", journal.error.c_str());
      ok = false;
    } else if (!journal.valid) {
      std::fprintf(stderr, "FAIL: no parseable journal at '%s'\n",
                   path.c_str());
      ok = false;
    } else {
      if (journal.shards.size() != shards) {
        std::fprintf(stderr,
                     "FAIL: journal expects %zu shards, found %zu stream "
                     "files\n",
                     journal.shards.size(), shards);
        ok = false;
      }
      const std::size_t n = std::min(journal.shards.size(), shards);
      for (std::size_t s = 0; s < n; ++s) {
        if (!journal.shards[s].has_value()) continue;  // never checkpointed
        const fault::ShardCheckpoint& ck = *journal.shards[s];
        const std::size_t held = stream.shard_ends[s] - shard_begin(s);
        if (held < ck.records_written) {
          std::fprintf(stderr,
                       "FAIL: shard %zu holds %zu records, journal says "
                       ">= %" PRIu64 "\n",
                       s, held, ck.records_written);
          ok = false;
          continue;
        }
        // The journaled digest covers the first records_written records —
        // frames past it are post-checkpoint (rewritten on resume).
        std::uint64_t h = fault::kDigestBasis;
        for (std::uint64_t i = 0; i < ck.records_written; ++i) {
          h = fault::digest_update(h, records[shard_begin(s) + i]);
        }
        if (h != ck.digest) {
          std::fprintf(stderr,
                       "FAIL: shard %zu digest %016" PRIx64
                       " != journaled %016" PRIx64 "\n",
                       s, h, ck.digest);
          ok = false;
        }
      }
      // Sink backpressure audit: the journaled registries carry the
      // writer's own obs.sink.* counters.  A nonzero drop count means
      // frames never reached the stream, so a clean digest over what DID
      // land would be a hollow verification.  Lines without a registry
      // are fine (metrics off).
      const obs::MetricsRegistry journaled = journaled_metrics(journal);
      if (const obs::Counter* dropped =
              journaled.find_counter("obs.sink.dropped");
          dropped != nullptr && dropped->value() > 0) {
        std::fprintf(stderr,
                     "FAIL: the journal reports %" PRIu64
                     " dropped record-sink frame(s) — the persisted stream "
                     "is incomplete (write-time backpressure or I/O "
                     "failure), so this campaign's records cannot be "
                     "trusted as complete\n",
                     dropped->value());
        ok = false;
      }
    }
  }
  if (f.digest.has_value() && full_digest != *f.digest) {
    std::fprintf(stderr,
                 "FAIL: stream digest %016" PRIx64 " != expected %016" PRIx64
                 "\n",
                 full_digest, *f.digest);
    ok = false;
  }

  std::printf(
      "{\n"
      "  \"tool\": \"telemetry_tool verify\",\n"
      "  \"shards\": %zu,\n"
      "  \"records\": %zu,\n"
      "  \"records_digest\": \"%016" PRIx64 "\",\n"
      "  \"ok\": %s\n"
      "}\n",
      shards, records.size(), full_digest, ok ? "true" : "false");
  return ok ? 0 : 1;
}

int cmd_tail(const Flags& f) {
  if (f.records.size() != 1) {
    std::fprintf(stderr, "telemetry_tool: tail takes one --records BASE\n");
    return 2;
  }
  fault::ShardStream stream;
  if (const auto err = fault::read_shard_stream(f.records[0], stream)) {
    std::fprintf(stderr, "telemetry_tool: %s\n", err->c_str());
    return 1;
  }
  const std::vector<fault::InjectionRecord>& records = stream.records;
  const auto n = static_cast<std::size_t>(f.tail_n);
  const std::size_t first = records.size() > n ? records.size() - n : 0;
  std::string line;
  for (std::size_t i = first; i < records.size(); ++i) {
    line.clear();
    fault::encode_record(records[i], obs::RecordFormat::kJsonl, line);
    std::fputs(line.c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: telemetry_tool merge|verify|tail [flags]\n"
                 "  merge  --records BASE [--records BASE ...] "
                 "[--checkpoint JOURNAL ...] [-o FILE]\n"
                 "  verify --records BASE [--checkpoint JOURNAL] "
                 "[--digest HEX16]\n"
                 "  tail   --records BASE [-n N]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags f = parse_flags(argc, argv, 2);
  if (!f.ok) return 2;
  if (cmd == "merge") return cmd_merge(f);
  if (cmd == "verify") return cmd_verify(f);
  if (cmd == "tail") return cmd_tail(f);
  std::fprintf(stderr, "telemetry_tool: unknown command '%s'\n", cmd.c_str());
  return 2;
}
