#include "obs/snapshot.hpp"

#include <bit>
#include <charconv>
#include <ostream>

#include "obs/json.hpp"

namespace xentry::obs {

namespace {

/// Metric names are identifiers by convention, but lines must stay valid
/// JSON for any name.
void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char hex[] = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_histogram_delta(std::ostream& os, const Log2Histogram& cur,
                           const Log2Histogram* prev) {
  const std::uint64_t count_delta = cur.count() - (prev ? prev->count() : 0);
  const std::uint64_t sum_delta = cur.sum() - (prev ? prev->sum() : 0);
  os << "{\"count\":" << count_delta << ",\"sum\":" << sum_delta;
  if (cur.count() > 0) {
    // Cumulative min/max: exact under merge because min/max only improve.
    os << ",\"min\":" << cur.min() << ",\"max\":" << cur.max();
  }
  os << ",\"buckets\":{";
  bool first = true;
  for (int i = 0; i < Log2Histogram::kNumBuckets; ++i) {
    const std::uint64_t d = cur.bucket(i) - (prev ? prev->bucket(i) : 0);
    if (d == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << Log2Histogram::bucket_lower_bound(i) << "\":" << d;
  }
  os << "}}";
}

}  // namespace

void SnapshotWriter::write(const MetricsRegistry& cur, bool force_full) {
  const bool full = force_full || !wrote_any_;
  os_ << "{\"seq\":" << seq_ << ",\"kind\":\"" << (full ? "full" : "delta")
      << "\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : cur.counters()) {
    const Counter* prev = full ? nullptr : prev_.find_counter(name);
    if (prev != nullptr && prev->value() == c.value()) continue;
    if (!first) os_ << ',';
    first = false;
    write_escaped(os_, name);
    os_ << ':' << (c.value() - (prev ? prev->value() : 0));
  }
  os_ << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : cur.gauges()) {
    const Gauge* prev = full ? nullptr : prev_.find_gauge(name);
    if (prev != nullptr && prev->value() == g.value()) continue;
    if (!first) os_ << ',';
    first = false;
    write_escaped(os_, name);
    os_ << ':' << g.value();
  }
  os_ << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : cur.histograms()) {
    const Log2Histogram* prev = full ? nullptr : prev_.find_histogram(name);
    // Buckets and sum can only move with count, so count is the dirty bit.
    if (prev != nullptr && prev->count() == h.count()) continue;
    if (!first) os_ << ',';
    first = false;
    write_escaped(os_, name);
    os_ << ':';
    write_histogram_delta(os_, h, prev);
  }
  os_ << "}}\n";
  os_.flush();
  prev_ = cur;
  ++seq_;
  wrote_any_ = true;
}

void SnapshotWriter::prime(const MetricsRegistry& restored,
                           std::uint64_t next_seq) {
  prev_ = restored;
  seq_ = next_seq;
  wrote_any_ = true;
}

namespace {

// Member tables, each name spelled as SnapshotWriter writes it.
enum SnapshotKey : std::size_t { kSeq, kKind, kCounters, kGauges, kHistograms };
constexpr std::string_view kSnapshotMembers[] = {
    "\"seq\":", "\"kind\":", "\"counters\":", "\"gauges\":",
    "\"histograms\":"};
constexpr std::uint64_t kSnapshotRequired = (1u << (kHistograms + 1)) - 1;

enum HistogramKey : std::size_t { kCount, kSum, kMin, kMax, kBuckets };
constexpr std::string_view kHistogramMembers[] = {
    "\"count\":", "\"sum\":", "\"min\":", "\"max\":", "\"buckets\":"};
// min and max are written only once the histogram has observations.
constexpr std::uint64_t kHistogramRequired =
    (1u << kCount) | (1u << kSum) | (1u << kBuckets);

/// One bucket delta, keyed by the bucket's decimal lower bound.  The
/// writer skips empty buckets, so a zero count is refused too.
bool read_bucket(LineScanner& in, const std::string& key,
                 MetricsSnapshot::HistogramDelta& d) {
  std::uint64_t lb = 0;
  const char* const end = key.data() + key.size();
  const auto [p, ec] = std::from_chars(key.data(), end, lb);
  // bucket_lower_bound is invertible: index = bit_width(lb).
  const int idx = static_cast<int>(std::bit_width(lb));
  if (key.empty() || ec != std::errc{} || p != end ||
      Log2Histogram::bucket_lower_bound(idx) != lb) {
    return in.fail("bad bucket key");
  }
  std::uint64_t& n = d.buckets[idx];
  if (n != 0) return in.fail("duplicate bucket");
  return in.integer(n) && n != 0;
}

bool read_histogram(LineScanner& in, MetricsSnapshot::HistogramDelta& d) {
  return in.members(kHistogramMembers, kHistogramRequired, [&](std::size_t k) {
    switch (k) {
      case kCount: return in.integer(d.count);
      case kSum: return in.integer(d.sum);
      case kMin: return in.integer(d.min);
      case kMax: return in.integer(d.max);
      case kBuckets:
        return in.map(
            [&](const std::string& key) { return read_bucket(in, key, d); });
      default: return false;
    }
  });
}

/// A metric map: every name once, each value read by `read_value`.
template <typename V, typename ReadValue>
bool read_metrics(LineScanner& in, std::map<std::string, V>& out,
                  ReadValue&& read_value) {
  return in.map([&](const std::string& name) {
    V v{};
    if (!read_value(v)) return false;
    return out.emplace(name, v).second || in.fail("duplicate metric");
  });
}

bool read_snapshot_member(LineScanner& in, std::size_t key,
                          MetricsSnapshot& snap) {
  const auto integer = [&in](auto& v) { return in.integer(v); };
  switch (key) {
    case kSeq: return in.integer(snap.seq);
    case kKind: {
      std::string_view kind;
      snap.full = in.string(kind) && kind == "full";
      return snap.full || kind == "delta";
    }
    case kCounters: return read_metrics(in, snap.counters, integer);
    case kGauges: return read_metrics(in, snap.gauges, integer);
    case kHistograms:
      return read_metrics(in, snap.histograms,
                          [&](MetricsSnapshot::HistogramDelta& d) {
                            return read_histogram(in, d);
                          });
    default: return false;
  }
}

}  // namespace

std::optional<std::string> read_snapshots(std::string_view text,
                                          std::string_view path,
                                          std::vector<MetricsSnapshot>& out) {
  return read_lines(text, path, [&](LineScanner& in) {
    MetricsSnapshot snap;
    if (!in.members(kSnapshotMembers, kSnapshotRequired,
                    [&](std::size_t k) {
                      return read_snapshot_member(in, k, snap);
                    }) ||
        !in.end()) {
      return false;
    }
    out.push_back(std::move(snap));
    return true;
  });
}

MetricsRegistry merge_snapshots(const std::vector<MetricsSnapshot>& snaps) {
  // Replay from the last full snapshot: everything before it is
  // superseded state.
  std::size_t start = 0;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (snaps[i].full) start = i;
  }
  MetricsRegistry reg;
  for (std::size_t i = start; i < snaps.size(); ++i) {
    const MetricsSnapshot& s = snaps[i];
    for (const auto& [name, delta] : s.counters) {
      reg.counter(name).inc(delta);
    }
    for (const auto& [name, value] : s.gauges) {
      reg.gauge(name).set(value);
    }
    for (const auto& [name, d] : s.histograms) {
      reg.histogram(name).merge_from(
          Log2Histogram::from_parts(d.buckets, d.count, d.sum, d.min, d.max));
    }
  }
  return reg;
}

bool is_timing_metric(std::string_view name) {
  // Wall-clock-derived families: latency histograms (…_ns/…_us) and
  // throughput rates (…per_sec, …elapsed…).
  return name.ends_with("_ns") || name.ends_with("_us") ||
         name.find("per_sec") != std::string_view::npos ||
         name.find("elapsed") != std::string_view::npos;
}

MetricsRegistry strip_timing_metrics(const MetricsRegistry& reg) {
  MetricsRegistry out;
  for (const auto& [name, c] : reg.counters()) {
    if (!is_timing_metric(name)) out.counter(name).inc(c.value());
  }
  for (const auto& [name, g] : reg.gauges()) {
    if (!is_timing_metric(name)) out.gauge(name).set(g.value());
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (!is_timing_metric(name)) out.histogram(name).merge_from(h);
  }
  return out;
}

}  // namespace xentry::obs
