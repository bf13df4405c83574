// Append-only record sinks: the durable end of the telemetry pipeline.
//
// Campaign shards stream encoded `InjectionRecord` frames through a
// `RecordSink` instead of accumulating them in RAM.  The obs layer sits
// below fault, so sinks are byte-oriented: a "frame" is an opaque,
// self-delimiting encoded record (a JSONL line including its trailing
// newline, or a length-prefixed binary frame) produced by
// `fault/record_io`.  Each shard owns a private stream — single writer,
// no locks — and shard streams concatenated in shard order reproduce the
// campaign's deterministic in-memory merge order byte for byte.
//
// Buffering contract: appends land in a bounded per-shard buffer; when a
// frame would overflow it, the sink flushes first (a "backpressure
// flush").  `flush()` makes buffered bytes durable and advances
// `offset()`; bytes still in the buffer when a process dies are gone,
// which is exactly the semantics the checkpoint journal accounts for.
// Per-shard counters (appends/flushes/backpressure/drops) are exposed so
// campaigns can mirror them into the metrics registry.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xentry::obs {

enum class RecordFormat : std::uint8_t { kJsonl = 0, kBinary = 1 };

/// "jsonl" / "bin" — also the shard-file extension.
std::string_view record_format_name(RecordFormat f);
std::optional<RecordFormat> record_format_from_name(std::string_view name);

struct SinkShardStats {
  std::uint64_t appends = 0;
  std::uint64_t appended_bytes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flushed_bytes = 0;
  /// Flushes forced by a full buffer (subset of `flushes`).
  std::uint64_t backpressure_flushes = 0;
  /// Frames rejected by a failed stream, plus discarded buffers.
  std::uint64_t dropped = 0;
};

/// The sink interface the campaign streams through; ShardedFileSink is
/// its one implementation.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Appends one encoded frame to `shard`'s stream.  Returns false when
  /// the frame was dropped (never for a healthy file sink).
  virtual bool append(std::size_t shard, std::string_view frame) = 0;

  /// Makes `shard`'s buffered bytes durable and advances offset().
  virtual void flush(std::size_t shard) = 0;

  /// Durable (flushed) byte count of `shard`'s stream.
  virtual std::uint64_t offset(std::size_t shard) const = 0;

  /// Bytes appended but not yet durable.
  virtual std::uint64_t buffered_bytes(std::size_t shard) const = 0;

  /// Throws away `shard`'s buffered bytes without writing them — the
  /// unit-test stand-in for SIGKILL (counted in stats().dropped).
  virtual void discard(std::size_t shard) = 0;

  virtual const SinkShardStats& stats(std::size_t shard) const = 0;
  virtual std::size_t shard_count() const = 0;

  void flush_all() {
    for (std::size_t s = 0; s < shard_count(); ++s) flush(s);
  }
};

/// One file per shard: `<base>.shard<N>.<jsonl|bin>`.  A fresh sink
/// truncates; a resume sink truncates each file to the journal's durable
/// offset and appends from there, so replayed frames overwrite nothing
/// and torn tails vanish.
class ShardedFileSink final : public RecordSink {
 public:
  struct Options {
    std::string base_path;
    RecordFormat format = RecordFormat::kJsonl;
    std::size_t shard_count = 1;
    std::size_t buffer_bytes = 64 * 1024;
    /// When non-empty (size == shard_count), resume mode: truncate each
    /// shard file to this offset and append.
    std::vector<std::uint64_t> resume_offsets;
  };

  static std::string shard_path(std::string_view base, RecordFormat f,
                                std::size_t shard);

  explicit ShardedFileSink(Options opts);
  ~ShardedFileSink() override;

  ShardedFileSink(const ShardedFileSink&) = delete;
  ShardedFileSink& operator=(const ShardedFileSink&) = delete;

  bool append(std::size_t shard, std::string_view frame) override;
  void flush(std::size_t shard) override;
  std::uint64_t offset(std::size_t shard) const override;
  std::uint64_t buffered_bytes(std::size_t shard) const override;
  void discard(std::size_t shard) override;
  const SinkShardStats& stats(std::size_t shard) const override;
  std::size_t shard_count() const override { return shards_.size(); }

  /// False once any shard hit an I/O failure (open or write).
  bool ok() const;
  const std::string& path(std::size_t shard) const;

 private:
  struct Shard {
    std::string path;
    std::FILE* file = nullptr;
    std::string buffer;
    std::uint64_t offset = 0;
    SinkShardStats stats;
    bool failed = false;
  };

  std::size_t buffer_bytes_;
  std::vector<Shard> shards_;
};

}  // namespace xentry::obs
