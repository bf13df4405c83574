// The traced run's layer ledger: a replay of run_campaign's shard loop
// (src/fault/campaign.cpp, run_shard) built from public calls only, with a
// span around every call into a layer.
//
// The replay must reproduce run_campaign's record stream exactly; main.cpp
// refuses to publish a ledger whose replay digest differs.  Two passes
// feed it:
//   - the loop pass times the calls the shard loop makes, so the loop
//     spans tile the loop's wall time (layers.coverage) and the program's
//     own sampled snapshot/restore timers see the real calls;
//   - the shadow pass also splits composite calls into their hv / xentry
//     parts by re-running them on the faulty machine, which the campaign
//     re-syncs before every use.  Those extra runs are kept out of the
//     loop figures.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

enum Span : int {
  // Spans that tile the shard loop.
  kNext,
  kGoldenProbe,
  kDraw,
  kFaultedRun,
  kDataset,
  kDigest,
  kKeepRecord,
  kEncode,
  kSinkAppend,
  kCheckpoint,
  kAdvance,
  kLoopSpans,
  // Shadow-pass and read-back spans.
  kHvRun = kLoopSpans,
  kBeginActivation,
  kDiff,
  kObserve,
  kDetectOverhead,
  kDecode,
  kIteration,
  kNumSpans
};

inline constexpr std::array<std::string_view, kNumSpans> kSpanNames = {
    "workloads.next", "fault.golden_probe", "fault.draw",
    "fault.faulted_run", "fault.dataset", "fault.digest",
    "fault.keep_record", "fault.encode", "obs.sink_append", "fault.checkpoint",
    "fault.advance", "hv.run", "hv.begin_activation",
    "hv.diff", "xentry.observe", "xentry.detect_overhead",
    "fault.decode", "fault.iteration"};

struct Ledger {
  /// Per-call durations in nanoseconds, one vector per span.
  std::array<std::vector<std::int64_t>, kNumSpans> spans;
  std::int64_t loop_ns = 0;  ///< shard-loop wall time, summed over shards
  std::uint64_t records = 0;
  std::uint64_t faulted_runs = 0;
  std::uint64_t analytic = 0;
  std::uint64_t hangs = 0;  ///< faulted runs the watchdog ended
  std::uint64_t golden_steps = 0;
  std::uint64_t shadow_steps = 0;  ///< steps of the shadow golden runs
  std::uint64_t record_bytes = 0;
  /// The program's own sampled timers on Machine::snapshot_into/restore.
  xentry::obs::Log2Histogram snapshot_ns, restore_ns;

  void add(Span s, std::int64_t v) {
    spans[static_cast<std::size_t>(s)].push_back(v);
  }
  /// Makes room for `calls` more samples per span, touching the memory
  /// now so that no page fault lands inside the timed loop.
  void reserve(std::size_t calls);
  /// Appends another pass's samples and counts.
  void merge_from(const Ledger& other);
  /// Σ loop spans / loop wall time.
  double coverage() const;
};

/// Replays `cfg`'s campaign shard by shard on the calling thread,
/// streaming into `cfg`'s record path and journal when it has them, and
/// returns what run_campaign would (records, dataset, records_streamed).
/// With `shadow` set, the shadow measurements go there.  `perturb` skips
/// one draw of the main RNG stream (a fault for the fidelity gate to
/// catch).
xentry::fault::CampaignResult replay_campaign(
    const xentry::fault::CampaignConfig& cfg, Ledger& loop, Ledger* shadow,
    bool perturb);

/// 1 in how many snapshot/restore calls the program's timers sample,
/// measured on a scratch machine.
int snapshot_sample_every();

}  // namespace perfbench
