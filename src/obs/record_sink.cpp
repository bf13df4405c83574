#include "obs/record_sink.hpp"

#include <cassert>
#include <filesystem>
#include <system_error>

namespace xentry::obs {

std::string_view record_format_name(RecordFormat f) {
  switch (f) {
    case RecordFormat::kJsonl: return "jsonl";
    case RecordFormat::kBinary: return "bin";
  }
  return "jsonl";
}

std::optional<RecordFormat> record_format_from_name(std::string_view name) {
  if (name == "jsonl") return RecordFormat::kJsonl;
  if (name == "bin" || name == "binary") return RecordFormat::kBinary;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ShardedFileSink

std::string ShardedFileSink::shard_path(std::string_view base, RecordFormat f,
                                        std::size_t shard) {
  std::string path(base);
  path += ".shard";
  path += std::to_string(shard);
  path += '.';
  path += record_format_name(f);
  return path;
}

ShardedFileSink::ShardedFileSink(Options opts)
    : buffer_bytes_(opts.buffer_bytes == 0 ? 1 : opts.buffer_bytes) {
  const bool resume = !opts.resume_offsets.empty();
  assert(!resume || opts.resume_offsets.size() == opts.shard_count);
  shards_.resize(opts.shard_count);
  for (std::size_t s = 0; s < opts.shard_count; ++s) {
    Shard& sh = shards_[s];
    sh.path = shard_path(opts.base_path, opts.format, s);
    sh.buffer.reserve(buffer_bytes_);
    if (resume) {
      // Truncate to the last durable (journaled) offset: anything past it
      // is a torn tail from the killed run and must not survive.
      const std::uint64_t off = opts.resume_offsets[s];
      std::error_code ec;
      std::filesystem::resize_file(sh.path, off, ec);
      if (ec) {
        sh.failed = true;
        continue;
      }
      sh.file = std::fopen(sh.path.c_str(), "ab");
      sh.offset = off;
    } else {
      sh.file = std::fopen(sh.path.c_str(), "wb");
    }
    if (sh.file == nullptr) sh.failed = true;
  }
}

ShardedFileSink::~ShardedFileSink() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    flush(s);
    if (shards_[s].file != nullptr) std::fclose(shards_[s].file);
  }
}

bool ShardedFileSink::append(std::size_t shard, std::string_view frame) {
  Shard& sh = shards_[shard];
  if (sh.failed) {
    ++sh.stats.dropped;
    return false;
  }
  if (sh.buffer.size() + frame.size() > buffer_bytes_ && !sh.buffer.empty()) {
    ++sh.stats.backpressure_flushes;
    flush(shard);
    if (sh.failed) {
      ++sh.stats.dropped;
      return false;
    }
  }
  sh.buffer.append(frame.data(), frame.size());
  ++sh.stats.appends;
  sh.stats.appended_bytes += frame.size();
  // Oversized frame: the buffer can't bound it, push it straight out.
  if (sh.buffer.size() > buffer_bytes_) flush(shard);
  return !sh.failed;
}

void ShardedFileSink::flush(std::size_t shard) {
  Shard& sh = shards_[shard];
  if (sh.buffer.empty() || sh.failed || sh.file == nullptr) return;
  const std::size_t n =
      std::fwrite(sh.buffer.data(), 1, sh.buffer.size(), sh.file);
  if (n != sh.buffer.size() || std::fflush(sh.file) != 0) {
    sh.failed = true;
    return;
  }
  sh.offset += sh.buffer.size();
  ++sh.stats.flushes;
  sh.stats.flushed_bytes += sh.buffer.size();
  sh.buffer.clear();
}

std::uint64_t ShardedFileSink::offset(std::size_t shard) const {
  return shards_[shard].offset;
}

std::uint64_t ShardedFileSink::buffered_bytes(std::size_t shard) const {
  return shards_[shard].buffer.size();
}

void ShardedFileSink::discard(std::size_t shard) {
  Shard& sh = shards_[shard];
  sh.stats.dropped += sh.buffer.empty() ? 0 : 1;
  sh.buffer.clear();
}

const SinkShardStats& ShardedFileSink::stats(std::size_t shard) const {
  return shards_[shard].stats;
}

bool ShardedFileSink::ok() const {
  for (const Shard& sh : shards_) {
    if (sh.failed) return false;
  }
  return true;
}

const std::string& ShardedFileSink::path(std::size_t shard) const {
  return shards_[shard].path;
}

}  // namespace xentry::obs
