// Periodic metrics snapshots: the registry's durable sidecar stream.
//
// A campaign shard's MetricsRegistry lives in RAM; if the process dies,
// so do the metrics.  `SnapshotWriter` serializes the registry to an
// append-only JSONL sidecar — a "full" snapshot first, then compact
// deltas — and `merge_snapshots` folds any prefix of that stream back
// into the exact registry state at the last snapshot in the prefix.
// Resume primes the writer with the reconstructed registry so deltas
// never double-count across a kill.
//
// Delta encoding (all integers, so lines are byte-deterministic):
//   - counters: value change since the previous snapshot; omitted when
//     unchanged (but always present in the snapshot where the counter
//     first appears, even at 0, so reconstruction sees every metric).
//   - gauges: absolute value, last-wins on merge; omitted when unchanged.
//   - histograms: per-bucket count deltas plus count/sum deltas and the
//     *cumulative* min/max (min/max only move when observations arrive,
//     so carrying cumulative values keeps the merge exact).
//
// Timing-derived metrics (wall-clock rates, snapshot/restore latency
// histograms) are inherently nondeterministic across runs;
// `strip_timing_metrics` removes them so "identical metrics" comparisons
// are well-defined.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace xentry::obs {

/// One parsed snapshot line.  For `full` snapshots the payloads are
/// absolute values; for deltas they follow the encoding above.
struct MetricsSnapshot {
  std::uint64_t seq = 0;
  bool full = false;

  struct HistogramDelta {
    std::uint64_t buckets[Log2Histogram::kNumBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    // Cumulative over the whole run, not the delta window.
    std::uint64_t min = 0;
    std::uint64_t max = 0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramDelta> histograms;
};

/// Streams snapshots of a single registry as JSONL.  Not thread-safe:
/// one writer per shard, same ownership model as the registry itself.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::ostream& os) : os_(os) {}

  /// Serializes the registry's state (first call / `force_full`) or its
  /// change since the previous call as one line, and flushes the stream.
  void write(const MetricsRegistry& cur, bool force_full = false);

  /// Resume support: treat `restored` as already-snapshotted state and
  /// continue the sequence at `next_seq`.  The next write() emits only
  /// the change since `restored`.
  void prime(const MetricsRegistry& restored, std::uint64_t next_seq);

  std::uint64_t next_seq() const { return seq_; }

 private:
  std::ostream& os_;
  MetricsRegistry prev_;
  std::uint64_t seq_ = 0;
  bool wrote_any_ = false;
};

/// Parses a snapshot sidecar stream read from `path`, appending to `out`.
/// A final line with no newline is a torn write (a killed process's last
/// line) and is ignored.  Every other line is read strictly: an unknown,
/// duplicate or missing key (a histogram's `min`/`max` are optional), a
/// repeated metric name or bucket, a bucket key that is not the decimal
/// lower bound of a Log2Histogram bucket, a value of the wrong type or
/// range, or trailing bytes is refused.  Returns the first refusal as
/// "path:line: reason" (the snapshots before that line stay in `out`);
/// nullopt on success.
std::optional<std::string> read_snapshots(std::string_view text,
                                          std::string_view path,
                                          std::vector<MetricsSnapshot>& out);

/// Reconstructs the registry state as of the last snapshot in `snaps`.
/// Replay starts at the latest `full` snapshot (earlier entries are
/// superseded), so any prefix of a writer's stream reconstructs exactly
/// the registry that produced its last line.
MetricsRegistry merge_snapshots(const std::vector<MetricsSnapshot>& snaps);

/// True for metrics derived from wall-clock time (rates, latency
/// histograms) that legitimately differ between byte-identical runs.
bool is_timing_metric(std::string_view name);

/// Copy of `reg` without timing metrics — the comparable projection.
MetricsRegistry strip_timing_metrics(const MetricsRegistry& reg);

}  // namespace xentry::obs
