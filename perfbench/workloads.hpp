// The benchmark's workloads: how each one's campaign is configured, what
// it costs to set up, and how its record stream is read back and checked.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/stats.hpp"

namespace perfbench {

enum class Workload { kUniformStream, kEnsembleSampled, kDurableReadback };

struct WorkloadInfo {
  Workload id;
  std::string_view name;
  int injections;  ///< default size of one measured campaign
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadInfo>& all_workloads();
/// nullptr for an unknown name.
const WorkloadInfo* find_workload(std::string_view name);

/// The seed whose answers perfbench/pins.json pins.
inline constexpr std::uint64_t kDefaultSeed = 7;

/// A workload made ready to run: the campaign configuration and the
/// set-up phases it cost (zero for phases the workload does not need).
struct Prepared {
  xentry::fault::CampaignConfig cfg;
  double analyze_ms = 0;
  double training_campaign_s = 0;
  double train_ms = 0;
};

/// Builds the workload's campaign for `seed`.  Durable workloads stream
/// into files under `workdir`.
Prepared prepare(Workload w, std::uint64_t seed, int injections,
                 const std::string& workdir);

/// Points a durable campaign's record files and journal at `base` (no-op
/// for in-memory campaigns).
void set_stream_base(xentry::fault::CampaignConfig& cfg,
                     const std::string& base);

/// Deletes a durable campaign's shard files and journal, so the next run
/// starts afresh instead of resuming.
void clear_streams(const xentry::fault::CampaignConfig& cfg);

/// Shard count run_campaign resolves for `cfg`.
int resolved_shards(const xentry::fault::CampaignConfig& cfg);

/// Encodes records into one binary stream (the in-memory workloads' export,
/// which their read-back path decodes).
std::string encode_binary(
    const std::vector<xentry::fault::InjectionRecord>& records);

/// A campaign's record stream as its readers get it back.
struct ReadBack {
  std::vector<xentry::fault::InjectionRecord> records;
  std::uint64_t digest = 0;
  double seconds = 0;  ///< wall time of the read path alone
};

/// Reads back everything `res` produced and cross-checks it, throwing
/// std::runtime_error on any mismatch.  A durable campaign's shard files
/// are decoded, chained into the campaign digest, and checked against each
/// shard's final journal line; an in-memory campaign's records are exported
/// to `binary` (untimed) and decoded from there.
ReadBack read_back(const xentry::fault::CampaignConfig& cfg,
                   const xentry::fault::CampaignResult& res);

/// The campaign's pinned answer: digest plus the statistics users read.
struct Answer {
  std::uint64_t records = 0;
  std::uint64_t digest = 0;
  double effective_injections = 0;
  double coverage = 0;  ///< detected share of manifested records
  double masked_rate = 0, sdc_rate = 0, crash_rate = 0;
  double manifested_rate = 0, detected_rate = 0;
};

Answer answer_of(const ReadBack& rb);

/// A digest as 16 hex digits.
std::string hex(std::uint64_t v);
/// A whole file's bytes; throws std::runtime_error when it cannot be opened.
std::string slurp(const std::string& path);

double seconds_since(std::int64_t start_ns);
std::int64_t now_ns();
/// Process CPU time (all threads), in nanoseconds.
std::int64_t cpu_ns();

}  // namespace perfbench
