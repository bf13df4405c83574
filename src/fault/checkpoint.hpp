// Campaign checkpoint journal: resumable injection campaigns.
//
// Every K completed loop iterations, a shard persists everything needed
// to continue the campaign bit-identically after a kill: its three RNG
// cursors (workload generator, main draw stream, importance-sampler aux
// stream), the golden machine image (memory words + TSC — the faulty
// machine realigns from the golden probe every injection, so only golden
// state matters), the running record digest and effective-injection
// accumulator, the durable offset of its record sink, and, with metrics
// on, its whole metrics registry.
//
// Kill-safety protocol, per checkpoint, in order:
//   1. flush the shard's record sink (records become durable),
//   2. append one journal line (the commit point).
// A kill between the two steps leaves a journal whose last line points at
// a durable prefix of the record stream; resume truncates the stream to
// the journaled offset, so a torn tail vanishes and the rewritten suffix
// is byte-identical to the uninterrupted run's.
//
// The journal itself is JSONL: a header line (the campaign's identity —
// resuming under a different config is an error, not a silent divergence)
// followed by checkpoint lines from all shards interleaved in completion
// order.  The reader takes each shard's last line.  A torn final line is
// expected input, not corruption: resume truncates it away before it
// appends.  A corrupt line that ends in a newline is an error.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "hv/machine.hpp"
#include "obs/metrics.hpp"

namespace xentry::fault {

/// The campaign identity a journal is bound to.  Resume requires an
/// exact match: any of these changing would silently produce a record
/// stream from a different campaign.
struct CheckpointHeader {
  std::uint64_t seed = 0;
  int injections = 0;
  int shards = 0;
  double activation_bias = 0.5;
  int warmup_activations = 0;
  int stream_gap = 0;
  bool importance = false;
  int checkpoint_every = 0;
  std::uint8_t records_format = 0;

  friend bool operator==(const CheckpointHeader&,
                         const CheckpointHeader&) = default;
};

/// One shard's resume state at a checkpoint boundary ("about to start
/// loop iteration `iterations`").
struct ShardCheckpoint {
  int shard = -1;
  std::uint64_t iterations = 0;       ///< loop iterations completed
  std::uint64_t records_written = 0;  ///< records emitted (non-degenerate)
  std::uint64_t digest = 0;           ///< running digest of those records
  double effective = 0.0;             ///< sum of 1/weight so far
  std::uint64_t sink_offset = 0;      ///< durable record-sink bytes
  std::uint64_t forensics_counter = 0;
  std::uint64_t activations_generated = 0;
  std::string gen_rng;   ///< mt19937_64 textual state (workload stream)
  std::string main_rng;  ///< mt19937_64 textual state (draw stream)
  std::string aux_rng;   ///< sampler aux stream; empty without importance
  std::uint64_t tsc = 0;
  /// Golden machine memory, one word vector per mapped region.
  std::vector<std::vector<std::uint64_t>> memory;
  /// The shard's registry at the checkpoint; empty with metrics off, and
  /// then the line carries no `metrics` member.
  obs::MetricsRegistry metrics;
};

/// Append-only journal writer shared by all shards (mutex-serialized
/// line appends, flushed per line so the commit point is durable).
class CheckpointJournal {
 public:
  /// Creates/truncates `path` and writes the header line.
  static std::unique_ptr<CheckpointJournal> create(
      const std::string& path, const CheckpointHeader& header);

  /// Opens an existing journal for appending (resume path; the header is
  /// already on disk).  Returns nullptr when the file cannot be opened.
  static std::unique_ptr<CheckpointJournal> append_to(const std::string& path);

  ~CheckpointJournal();
  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Appends one checkpoint line and flushes it.
  void append(const ShardCheckpoint& ckpt);

  bool ok() const { return file_ != nullptr && !failed_; }

 private:
  CheckpointJournal() = default;

  std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
};

/// Parsed journal state: the header plus each shard's latest checkpoint
/// line (nullopt for shards that never checkpointed).
struct JournalContents {
  bool valid = false;  ///< a header was read and no line is corrupt
  CheckpointHeader header;
  std::vector<std::optional<ShardCheckpoint>> shards;  ///< size = header.shards
  /// Why the journal is refused: the first corrupt line that ends in a
  /// newline, as "path:line: reason".  Empty when the file is missing,
  /// when only its final line is torn, and when every line reads.
  std::string error;
  /// Length of the journal up to the end of its last intact line.  Resume
  /// truncates the file here before appending, so a torn final line is
  /// not spliced onto the next checkpoint line.
  std::uint64_t intact_bytes = 0;
};

/// Reads a journal strictly (obs::LineScanner::members): an unknown,
/// duplicate or missing key, a value of the wrong type or range, an RNG
/// state rng_state_from_string refuses, a shard index past the header's
/// shard count, or trailing bytes make a line corrupt.  A final line with
/// no newline is torn and ignored.  `valid` is false for a missing file, a
/// torn header line, or a set `error`.
JournalContents read_journal(const std::string& path);

/// Captures the machine's resumable state (memory words + TSC) into `out`.
void capture_machine(const hv::Machine& machine, ShardCheckpoint& out);

/// Restores a machine from checkpointed state.  Throws std::runtime_error
/// when the region shapes do not match the machine's mapping (a journal
/// from a different machine configuration).
void restore_machine(hv::Machine& machine, const ShardCheckpoint& ckpt);

/// mt19937_64 state round-trip in the stream operators' text:
/// rng_state_string prints what `os << rng` prints, and
/// rng_state_from_string loads `state` into `rng` only when it is such a
/// text (313 canonical decimal words joined by single spaces, the texts
/// `is >> rng` reads back to themselves); otherwise it returns false and
/// leaves `rng` alone.
std::string rng_state_string(const std::mt19937_64& rng);
bool rng_state_from_string(std::mt19937_64& rng, const std::string& state);

}  // namespace xentry::fault
