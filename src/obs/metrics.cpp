#include "obs/metrics.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <ostream>

#include "obs/json.hpp"

namespace xentry::obs {

namespace {

/// map::operator[] with heterogeneous lookup (no temporary string on hit).
template <typename Map>
typename Map::mapped_type& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

template <typename Map>
const typename Map::mapped_type* find_only(const Map& map,
                                           std::string_view name) {
  auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

Log2Histogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_only(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find_only(gauges_, name);
}

const Log2Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  return find_only(histograms_, name);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].merge_from(c);
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].merge_from(g);
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge_from(h);
  }
}

double Log2Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (0-based, midpoint convention keeps
  // p50 of a symmetric distribution in the middle bucket).
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double lo_rank = static_cast<double>(cum);
    cum += buckets_[i];
    if (rank >= static_cast<double>(cum)) continue;
    // Interpolate within the bucket's value range by rank position.
    const double frac =
        buckets_[i] == 1
            ? 0.0
            : (rank - lo_rank) / static_cast<double>(buckets_[i] - 1);
    const double lo = static_cast<double>(bucket_lower_bound(i));
    const double hi = static_cast<double>(bucket_upper_bound(i));
    double v = lo + frac * (hi - lo);
    // Clamp to the observed envelope: the extreme buckets are bounded by
    // the true min/max, not their power-of-two edges.
    if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
    if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
    return v;
  }
  return static_cast<double>(max_);
}

void Log2Histogram::write_json(std::ostream& os) const {
  os << "{\"count\": " << count_ << ", \"sum\": " << sum_;
  if (count_ > 0) {
    os << ", \"min\": " << min_ << ", \"max\": " << max_;
    // Fixed precision keeps the export byte-stable across libc float
    // formatting defaults.
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ", \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f",
                  percentile(0.50), percentile(0.95), percentile(0.99));
    os << buf;
  }
  os << ", \"buckets\": {";
  bool bfirst = true;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (!bfirst) os << ", ";
    bfirst = false;
    os << '"' << bucket_lower_bound(i) << '"' << ": " << buckets_[i];
  }
  os << "}}";
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << c.value();
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << g.value();
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": ";
    h.write_json(os);
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

namespace {

// Member tables, each name spelled as write_line writes it and read_line
// reads it.
enum RegistryKey : std::size_t { kCounters, kGauges, kHistograms };
constexpr std::string_view kRegistryMembers[] = {
    "\"counters\":", "\"gauges\":", "\"histograms\":"};
constexpr std::uint64_t kRegistryRequired = (1u << (kHistograms + 1)) - 1;

enum HistogramKey : std::size_t { kCount, kSum, kMin, kMax, kBuckets };
constexpr std::string_view kHistogramMembers[] = {
    "\"count\":", "\"sum\":", "\"min\":", "\"max\":", "\"buckets\":"};
// min and max are written only once the histogram has observations.
constexpr std::uint64_t kHistogramRequired =
    (1u << kCount) | (1u << kSum) | (1u << kBuckets);

constexpr std::size_t kU64 = kMaxDecimalChars<std::uint64_t>;
/// A histogram's widest object: every bucket non-empty, each keyed by a
/// quoted lower bound, with a comma after each.
constexpr std::size_t kMaxHistogramChars = max_line_chars(
    kHistogramMembers,
    {kU64, kU64, kU64, kU64,
     2 + Log2Histogram::kNumBuckets * (2 + kU64 + 1 + kU64 + 1)});

/// `{"name":value,...}`, in name order.
template <typename Map, typename WriteValue>
void write_metrics(BufferWriter& w, const Map& metrics, WriteValue&& value) {
  w.put('{');
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) w.put(',');
    first = false;
    w.escaped(name);
    w.put(':');
    value(metric);
  }
  w.put('}');
}

void write_histogram(BufferWriter& w, const Log2Histogram& h) {
  const auto member = [&w](HistogramKey k) { w.member(kHistogramMembers, k); };
  w.put('{');
  member(kCount);
  w.integer(h.count());
  member(kSum);
  w.integer(h.sum());
  if (h.count() > 0) {
    member(kMin);
    w.integer(h.min());
    member(kMax);
    w.integer(h.max());
  }
  member(kBuckets);
  w.put('{');
  bool first = true;
  for (int i = 0; i < Log2Histogram::kNumBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) w.put(',');
    first = false;
    w.put('"');
    w.integer(Log2Histogram::bucket_lower_bound(i));
    w.text("\":");
    w.integer(h.bucket(i));
  }
  w.text("}}");
}

/// One bucket count, keyed by the bucket's decimal lower bound.  The
/// writer skips empty buckets, so a zero count is refused too.
bool read_bucket(LineScanner& in, const std::string& key,
                 std::uint64_t (&buckets)[Log2Histogram::kNumBuckets]) {
  std::uint64_t lb = 0;
  const char* const end = key.data() + key.size();
  const auto [p, ec] = std::from_chars(key.data(), end, lb);
  // bucket_lower_bound is invertible: index = bit_width(lb).
  const int idx = static_cast<int>(std::bit_width(lb));
  if (key.empty() || ec != std::errc{} || p != end ||
      Log2Histogram::bucket_lower_bound(idx) != lb) {
    return in.fail("bad bucket key");
  }
  std::uint64_t& n = buckets[idx];
  if (n != 0) return in.fail("duplicate bucket");
  return in.integer(n) && n != 0;
}

bool read_histogram(LineScanner& in, Log2Histogram& h) {
  std::uint64_t buckets[Log2Histogram::kNumBuckets] = {};
  std::uint64_t count = 0, sum = 0, min = 0, max = 0;
  if (!in.members(kHistogramMembers, kHistogramRequired, [&](std::size_t k) {
        switch (k) {
          case kCount: return in.integer(count);
          case kSum: return in.integer(sum);
          case kMin: return in.integer(min);
          case kMax: return in.integer(max);
          case kBuckets:
            return in.map([&](const std::string& key) {
              return read_bucket(in, key, buckets);
            });
          default: return false;
        }
      })) {
    return false;
  }
  h = Log2Histogram::from_parts(buckets, count, sum, min, max);
  return true;
}

/// A metric map: every name once, each value read by `read_value`.
template <typename Map, typename ReadValue>
bool read_metrics(LineScanner& in, Map& out, ReadValue&& read_value) {
  return in.map([&](const std::string& name) {
    typename Map::mapped_type metric;
    if (!read_value(metric)) return false;
    return out.emplace(name, metric).second || in.fail("duplicate metric");
  });
}

}  // namespace

std::size_t MetricsRegistry::line_chars() const {
  std::size_t n = max_line_chars(kRegistryMembers, {2, 2, 2});
  // Each metric: its name, ':', its widest value and a comma.
  for (const auto& [name, c] : counters_) {
    n += max_escaped_chars(name.size()) + 2 + kU64;
  }
  for (const auto& [name, g] : gauges_) {
    n += max_escaped_chars(name.size()) + 2 +
         kMaxDecimalChars<std::int64_t>;
  }
  for (const auto& [name, h] : histograms_) {
    n += max_escaped_chars(name.size()) + 2 + kMaxHistogramChars;
  }
  return n;
}

void MetricsRegistry::write_line(BufferWriter& w) const {
  const auto member = [&w](RegistryKey k) { w.member(kRegistryMembers, k); };
  w.put('{');
  member(kCounters);
  write_metrics(w, counters_, [&w](const Counter& c) { w.integer(c.value()); });
  member(kGauges);
  write_metrics(w, gauges_, [&w](const Gauge& g) { w.integer(g.value()); });
  member(kHistograms);
  write_metrics(w, histograms_,
                [&w](const Log2Histogram& h) { write_histogram(w, h); });
  w.put('}');
}

bool MetricsRegistry::read_line(LineScanner& in, MetricsRegistry& out) {
  return in.members(kRegistryMembers, kRegistryRequired, [&](std::size_t k) {
    switch (k) {
      case kCounters:
        return read_metrics(in, out.counters_, [&in](Counter& c) {
          std::uint64_t v = 0;
          if (!in.integer(v)) return false;
          c.inc(v);
          return true;
        });
      case kGauges:
        return read_metrics(in, out.gauges_, [&in](Gauge& g) {
          std::int64_t v = 0;
          if (!in.integer(v)) return false;
          g.set(v);
          return true;
        });
      case kHistograms:
        return read_metrics(in, out.histograms_, [&in](Log2Histogram& h) {
          return read_histogram(in, h);
        });
      default: return false;
    }
  });
}

}  // namespace xentry::obs
