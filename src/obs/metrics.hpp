// Campaign metrics: counters, gauges, and fixed-bucket log2 histograms.
//
// Ownership model (the lock-free contract): every shard owns a private
// MetricsRegistry and bumps plain (non-atomic) cells through pre-resolved
// handles — the hot path never takes a lock, never hashes a name, never
// allocates.  Name lookup happens once per shard at setup
// (`counter()` / `gauge()` / `histogram()` return references with stable
// addresses), and the per-shard registries are merged in shard order at
// campaign end, so the merged output is deterministic for a fixed shard
// count and export order is sorted by name regardless of insertion order.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace xentry::obs {

class BufferWriter;
class LineScanner;

/// Monotonic event count.  Merge: sum.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-set instantaneous value.  Merge: sum — shard gauges hold
/// per-shard contributions (e.g. injections/sec), so the merged gauge is
/// the campaign total.
class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  std::int64_t value() const { return value_; }
  void merge_from(const Gauge& other) { value_ += other.value_; }

 private:
  std::int64_t value_ = 0;
};

/// Fixed-bucket base-2 histogram of non-negative 64-bit values.
///
/// Bucket index is `std::bit_width(v)`: bucket 0 holds exactly the value
/// 0, bucket i (1..64) holds [2^(i-1), 2^i - 1].  Fixed buckets make the
/// merge a plain vector add (deterministic, no rebinning) and `observe`
/// one bit-scan plus three adds — cheap enough for per-VM-exit use.
class Log2Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  void observe(std::uint64_t v) {
    ++buckets_[std::bit_width(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t bucket(int i) const { return buckets_[i]; }
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// Meaningful only when count() > 0.
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Smallest value that lands in bucket `i`.
  static constexpr std::uint64_t bucket_lower_bound(int i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Largest value that lands in bucket `i`.
  static constexpr std::uint64_t bucket_upper_bound(int i) {
    if (i == 0) return 0;
    if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
  }

  /// Estimates the q-quantile (q in [0, 1]) from the bucket boundaries:
  /// walk the cumulative counts to the rank, then interpolate linearly
  /// within the bucket's [lower, upper] range, clamped to the observed
  /// [min, max] so estimates never leave the data's envelope.  Exact for
  /// single-bucket data; within one power of two otherwise.  Returns 0
  /// when empty.
  double percentile(double q) const;

  /// The histogram's JSON object: count/sum/min/max, p50/p95/p99 (when
  /// non-empty), and the sparse "buckets" map keyed by lower bound.
  void write_json(std::ostream& os) const;

  void merge_from(const Log2Histogram& other) {
    for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ > 0) {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
  }

  /// Reassembles a histogram from serialized state (journal read-back).
  /// `min_v`/`max_v` are ignored when `count` is 0.
  static Log2Histogram from_parts(const std::uint64_t (&buckets)[kNumBuckets],
                                  std::uint64_t count, std::uint64_t sum,
                                  std::uint64_t min_v, std::uint64_t max_v) {
    Log2Histogram h;
    for (int i = 0; i < kNumBuckets; ++i) h.buckets_[i] = buckets[i];
    h.count_ = count;
    h.sum_ = sum;
    if (count > 0) {
      h.min_ = min_v;
      h.max_ = max_v;
    }
    return h;
  }

 private:
  std::uint64_t buckets_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  /// Resolve-or-create by name.  Returned references are stable for the
  /// registry's lifetime (node-based storage) — resolve once at setup,
  /// bump through the reference on the hot path.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Log2Histogram& histogram(std::string_view name);

  /// Lookup without creation (nullptr when absent) — for tests/export.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Log2Histogram* find_histogram(std::string_view name) const;

  /// Merges `other` into this registry: counters and gauges sum,
  /// histograms add bucket-wise.  Metrics absent on one side are adopted
  /// as-is.  Merging shard registries in shard order yields identical
  /// results to any other association of the same shards.
  void merge_from(const MetricsRegistry& other);

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  bool empty() const { return size() == 0; }

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Log2Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// One JSON object with "counters" / "gauges" / "histograms" members,
  /// keys sorted by name (map order) — byte-identical for equal contents.
  void write_json(std::ostream& os) const;

  /// The registry as one JSON object with no newline in it, for a journal
  /// line to carry: absolute values, keys sorted by name, a histogram as
  /// count/sum, min/max once it has observations, and its non-empty
  /// buckets keyed by their decimal lower bound.  `line_chars()` bounds
  /// the bytes `write_line` writes.
  std::size_t line_chars() const;
  void write_line(BufferWriter& w) const;

  /// Reads what `write_line` writes into `out`, which must be empty.
  /// Refuses, through `in`'s named errors, an unknown, duplicate or
  /// missing key, a metric named twice, a bucket key that is not a bucket
  /// lower bound, a bucket named twice, and a zero bucket count.
  static bool read_line(LineScanner& in, MetricsRegistry& out);

 private:
  // std::map: heterogeneous lookup, stable element addresses, and sorted
  // iteration for deterministic export.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Log2Histogram, std::less<>> histograms_;
};

}  // namespace xentry::obs
