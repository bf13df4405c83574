// Shared plumbing for the bench binaries.
//
// `paper` prints the rows/series of every paper table and figure.  Scale
// knobs default to paper scale but honour XENTRY_BENCH_SCALE (a positive
// fraction, e.g. 0.1 for a quick pass; anything else exits 2).
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

#include "fault/campaign.hpp"
#include "fault/record_io.hpp"
#include "fault/stats.hpp"
#include "fault/training.hpp"

namespace xentry::bench {

/// Strict parse of one command-line number: the whole of `text` must be
/// one number within [lo, hi].  Integers are plain decimal (no
/// whitespace, no '+', no '-' for unsigned types); floating-point values
/// use std::from_chars' general format, and NaN fails the range check.
/// Anything else, including an out-of-range value, returns nullopt.
template <typename T>
std::optional<T> parse_number(const char* text, T lo, T hi) {
  const char* const end = text + std::strlen(text);
  T v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) {
    return std::nullopt;
  }
  return v;
}

/// parse_number for a CLI argument named `what`: on failure prints the
/// offending value and `usage` to stderr and exits with status 2.
template <typename T>
T parse_number_or_exit(const char* prog, const char* what, const char* text,
                       T lo, T hi, const char* usage) {
  const std::optional<T> v = parse_number(text, lo, hi);
  if (!v.has_value()) {
    std::fprintf(stderr, "%s: bad %s '%s'\n%s", prog, what, text, usage);
    std::exit(2);
  }
  return *v;
}

/// A positive number from the environment variable `name`; `fallback`
/// when it is unset.  Any other value (junk, trailing junk, zero, a
/// negative, inf, nan) prints the variable to stderr and exits with
/// status 2.
inline double env_positive(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<double> v =
      parse_number(env, std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max());
  if (!v.has_value()) {
    std::fprintf(stderr, "bad %s '%s' (want a number > 0)\n", name, env);
    std::exit(2);
  }
  return *v;
}

/// Global scale factor from the environment (default 1.0 = paper scale).
inline double scale() {
  static const double s = env_positive("XENTRY_BENCH_SCALE", 1.0);
  return s;
}

inline int scaled(int n) {
  const int v = static_cast<int>(n * scale());
  return v < 100 ? 100 : v;
}

/// A workload profile pooling every benchmark's PV mixture — the
/// training distribution (the paper trains and tests on the same set of
/// benchmarks, Section III-B).
inline wl::WorkloadProfile pooled_benchmark_profile() {
  wl::WorkloadProfile pooled;
  for (wl::Benchmark b : wl::all_benchmarks()) {
    const wl::WorkloadProfile p = wl::profile(b, wl::VirtMode::Para);
    // Normalize each benchmark's mixture to equal total weight.
    double total = 0;
    for (const auto& [r, w] : p.mix) total += w;
    for (const auto& [r, w] : p.mix) pooled.mix.emplace_back(r, w / total);
  }
  return pooled;
}

inline void print_header(const std::string& title) {
  std::printf("=== %s ===\n", title.c_str());
  if (scale() != 1.0) std::printf("(scale factor %.3f)\n", scale());
}

/// FNV-1a over a 64-bit value, byte by byte.  The canonical
/// implementation lives in fault/record_io.hpp next to the codecs and
/// the checkpoint journal that pin the same digest on disk.
using fault::fnv1a;

/// FNV-1a over every determinism-relevant field of every record, in
/// order.  The digest pins the full record stream for a fixed
/// (injections, shards, seed) triple, so CI can assert determinism —
/// and telemetry-independence — without shipping the records themselves.
/// Delegates to fault::records_digest (fault/record_io.hpp), the same
/// digest the checkpoint journal carries and telemetry_tool verifies
/// against persisted shard streams.
using fault::records_digest;

}  // namespace xentry::bench
