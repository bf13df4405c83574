// InjectionRecord wire formats and the campaign determinism digest.
//
// The streaming pipeline persists records through obs::RecordSink, which
// is byte-oriented (obs sits below fault); this module is where records
// become bytes.  Two formats, decode-equivalent:
//
//   - JSONL: one object per line, integers everywhere except the
//     sampling weights (%.17g — exact double round-trip).  Greppable, and
//     `telemetry_tool tail` prints it as-is.
//   - binary: a little-endian length-prefixed frame, ~4x denser.  The
//     length prefix is framing, not compression: frames are fixed-size
//     today but readers must honour the prefix.
//
// Both encode every determinism-relevant field plus the sampling weights;
// the postmortem payload (`InjectionRecord::postmortem`) stays in memory,
// matching the digest's scope.  Encode→decode round-trips to a record
// whose digest contribution is bit-identical to the original's.
//
// JSONL decoding contract.  A line is decoded in one pass over its bytes
// by obs::LineScanner::members, with no allocation beyond the record:
//   - members may come in any key order, with JSON whitespace between
//     any two tokens;
//   - every key but `w`/`mw` is required; absent, `w` is 1.0 and `mw` 0.0;
//   - rejected: an unknown or duplicate key, a flag (`inj`, `act`, `det`,
//     `div`) other than `0`/`1`, a number that is not a plain JSON
//     integer fitting its field (no `+`, leading zero, fraction or
//     exponent; so an `assert` above UINT32_MAX fails), a string with an
//     escape, an unknown `cons`/`undet` name, a feature array that is not
//     exactly five integers, and any byte after the closing `}`.
// Both decoders then apply record_in_range, and a rejected frame leaves
// `pos` unchanged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/outcome.hpp"
#include "obs/record_sink.hpp"

namespace xentry::fault {

inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// kFnvPrimePowers[k] = kFnvPrime^k mod 2^64, for k in [0, 8].
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kFnvPrime;
  return p;
}();

/// FNV-1a over the 8 little-endian bytes of a 64-bit value.  A zero byte
/// only multiplies, (h ^ 0) * p == h * p, so the run of high zero bytes
/// folds into one multiply by p^k: the loop hashes the significant low
/// bytes, and most digested fields have one or two.  Bit-identical to the
/// byte-at-a-time definition.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  std::size_t bytes = 0;
  for (; v != 0; v >>= 8, ++bytes) {
    h ^= v & 0xff;
    h *= kFnvPrime;
  }
  return h * kFnvPrimePowers[8 - bytes];
}

/// Folds one record into a running digest.  The digest covers every
/// determinism-relevant field in a fixed order and deliberately excludes
/// the postmortem (telemetry-dependent payloads) and the sampling
/// weights (derived metadata), so digests are bit-identical across
/// telemetry modes and checkpointable per shard.
std::uint64_t digest_update(std::uint64_t h, const InjectionRecord& r);

/// FNV-1a digest of a whole record stream (digest_update folded over
/// kDigestBasis).  NOT composable from per-shard digests: verifying a
/// sharded stream means chaining shard streams in shard order.
std::uint64_t records_digest(const std::vector<InjectionRecord>& records);

/// The range checks every decoded record passes: a reason index inside
/// its category (hypercalls, exceptions, APIC handlers, IRQ lines; 0 for
/// softirq and tasklet), `vcpu` in [0, layout::kMaxVcpus), `bit` in
/// [0, 64), every enumerator a known value, and both weights finite and
/// in [0, 1].  Records the campaign writes always pass.
bool record_in_range(const InjectionRecord& r);

/// Appends one encoded frame for `r` to `out` (including the framing:
/// trailing newline for JSONL, length prefix for binary).
void encode_record(const InjectionRecord& r, obs::RecordFormat format,
                   std::string& out);

/// Decodes the frame at `pos` in `data`, advancing `pos` past it.  All or
/// nothing: on a malformed, out-of-range or truncated frame it returns
/// false and leaves both `pos` and every field of `out` (its postmortem
/// payload included) untouched.
bool decode_record(std::string_view data, obs::RecordFormat format,
                   std::size_t& pos, InjectionRecord& out);

/// Decodes every frame in `data`, appending to `out`.  Returns false if
/// trailing bytes remain that do not decode (the intact prefix is kept,
/// and no partial record).
///
/// Sizing: it first counts the frames (memchr for '\n' in JSONL, a walk
/// over the length prefixes in binary), stopping at the first frame too
/// short or too long to decode, so the count never exceeds
/// data.size() / 4 + 1 whatever the bytes.  It then reserves once: exactly
/// that many slots on an empty vector, so a successful decode leaves
/// capacity() == size(); on a non-empty vector that must grow, at least
/// twice its old capacity, so repeated appends stay amortized O(n).  Each
/// frame is decoded straight into a new element, popped again if the
/// frame does not decode.
bool decode_records(std::string_view data, obs::RecordFormat format,
                    std::vector<InjectionRecord>& out);

/// decode_records over the bytes of the shard file `path`.  Returns the
/// error to report when a frame does not decode: it names `path` and the
/// 1-based index of the first undecodable record in that file.  nullopt
/// on success; the intact prefix is kept in `out` either way.
std::optional<std::string> decode_shard_file(
    std::string_view data, std::string_view path, obs::RecordFormat format,
    std::vector<InjectionRecord>& out);

/// A campaign's persisted record stream, decoded.
struct ShardStream {
  std::vector<InjectionRecord> records;  ///< every shard's, in shard order
  std::vector<std::size_t> shard_ends;   ///< records.size() after each shard
};

/// Finds and decodes the shard files obs::ShardedFileSink wrote under
/// `base`: `<base>.shard<N>.<jsonl|bin>` from N = 0 up to the first
/// missing index, read in shard order (the campaign's merge order).  The
/// extension tells the format.  Returns the error to report, nullopt on
/// success: no shard file at all, a `.jsonl` and a `.bin` shard both
/// under `base`, or decode_shard_file's error for the first frame that
/// does not decode (the intact prefix stays in `out`).
std::optional<std::string> read_shard_stream(std::string_view base,
                                             ShardStream& out);

}  // namespace xentry::fault
