#include "obs/record_sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/atomic_file.hpp"
#include "test_dir.hpp"

namespace xentry::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(RecordFormatTest, NamesRoundTrip) {
  EXPECT_EQ(record_format_name(RecordFormat::kJsonl), "jsonl");
  EXPECT_EQ(record_format_name(RecordFormat::kBinary), "bin");
  EXPECT_EQ(record_format_from_name("jsonl"), RecordFormat::kJsonl);
  EXPECT_EQ(record_format_from_name("bin"), RecordFormat::kBinary);
  EXPECT_EQ(record_format_from_name("binary"), RecordFormat::kBinary);
  EXPECT_EQ(record_format_from_name("csv"), std::nullopt);
}

class ShardedFileSinkTest : public ::testing::Test {
 protected:
  // One path per test: ctest runs the fixture's tests in parallel.
  std::string base_ = test::scratch_path(
      std::string("record_sink_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());

  std::string sink_path(std::size_t shard,
                        RecordFormat f = RecordFormat::kJsonl) const {
    return ShardedFileSink::shard_path(base_, f, shard);
  }

  ShardedFileSink::Options file_opts(
      std::size_t shards, std::vector<std::uint64_t> resume = {}) const {
    ShardedFileSink::Options o;
    o.base_path = base_;
    o.shard_count = shards;
    o.resume_offsets = std::move(resume);
    return o;
  }

  ShardedFileSink::Options buffered_opts(std::size_t shards,
                                         std::size_t buffer_bytes) const {
    ShardedFileSink::Options o = file_opts(shards);
    o.buffer_bytes = buffer_bytes;
    return o;
  }

  void TearDown() override {
    for (std::size_t s = 0; s < 4; ++s) {
      for (auto f : {RecordFormat::kJsonl, RecordFormat::kBinary}) {
        std::remove(ShardedFileSink::shard_path(base_, f, s).c_str());
      }
    }
  }
};

TEST_F(ShardedFileSinkTest, ShardPathEncodesFormatAndIndex) {
  EXPECT_EQ(ShardedFileSink::shard_path("/tmp/run", RecordFormat::kJsonl, 0),
            "/tmp/run.shard0.jsonl");
  EXPECT_EQ(ShardedFileSink::shard_path("/tmp/run", RecordFormat::kBinary, 3),
            "/tmp/run.shard3.bin");
}

TEST_F(ShardedFileSinkTest, WritesOneFilePerShard) {
  {
    ShardedFileSink sink(file_opts(2));
    ASSERT_TRUE(sink.ok());
    sink.append(0, "shard zero\n");
    sink.append(1, "shard one\n");
    EXPECT_EQ(sink.offset(0), 0u);  // still buffered
    sink.flush_all();
    EXPECT_EQ(sink.offset(0), 11u);
    EXPECT_EQ(sink.offset(1), 10u);
  }
  EXPECT_EQ(slurp(sink_path(0)), "shard zero\n");
  EXPECT_EQ(slurp(sink_path(1)), "shard one\n");
}

TEST_F(ShardedFileSinkTest, BuffersUntilFlush) {
  ShardedFileSink sink(buffered_opts(2, 64));
  EXPECT_TRUE(sink.append(0, "hello\n"));
  EXPECT_EQ(sink.offset(0), 0u);
  EXPECT_EQ(sink.buffered_bytes(0), 6u);
  EXPECT_EQ(slurp(sink_path(0)), "");
  sink.flush(0);
  EXPECT_EQ(sink.offset(0), 6u);
  EXPECT_EQ(sink.buffered_bytes(0), 0u);
  EXPECT_EQ(slurp(sink_path(0)), "hello\n");
  // Shards are independent streams.
  EXPECT_EQ(sink.offset(1), 0u);
  EXPECT_EQ(sink.stats(0).appends, 1u);
  EXPECT_EQ(sink.stats(0).appended_bytes, 6u);
  EXPECT_EQ(sink.stats(0).flushes, 1u);
  EXPECT_EQ(sink.stats(0).flushed_bytes, 6u);
  EXPECT_EQ(sink.stats(0).backpressure_flushes, 0u);
  EXPECT_EQ(sink.stats(1).appends, 0u);
}

TEST_F(ShardedFileSinkTest, BackpressureFlushPreservesFrameOrder) {
  ShardedFileSink sink(buffered_opts(1, 8));
  EXPECT_TRUE(sink.append(0, "aaaa"));
  EXPECT_TRUE(sink.append(0, "bbbb"));  // exactly fills: no flush yet
  EXPECT_EQ(sink.stats(0).backpressure_flushes, 0u);
  EXPECT_TRUE(sink.append(0, "cc"));  // would overflow: flushes first
  EXPECT_EQ(sink.stats(0).backpressure_flushes, 1u);
  EXPECT_EQ(slurp(sink_path(0)), "aaaabbbb");
  EXPECT_EQ(sink.buffered_bytes(0), 2u);
  sink.flush_all();
  EXPECT_EQ(slurp(sink_path(0)), "aaaabbbbcc");
}

TEST_F(ShardedFileSinkTest, OversizedFramePushesStraightThrough) {
  ShardedFileSink sink(buffered_opts(1, 4));
  EXPECT_TRUE(sink.append(0, "0123456789"));
  // A frame the buffer cannot bound is flushed immediately.
  EXPECT_EQ(slurp(sink_path(0)), "0123456789");
  EXPECT_EQ(sink.buffered_bytes(0), 0u);
}

TEST_F(ShardedFileSinkTest, DiscardThrowsAwayBufferedBytes) {
  {
    ShardedFileSink sink(buffered_opts(1, 64));
    sink.append(0, "durable\n");
    sink.flush(0);
    sink.append(0, "torn tail");
    sink.discard(0);  // the unit-test SIGKILL
    EXPECT_EQ(sink.buffered_bytes(0), 0u);
    EXPECT_EQ(sink.stats(0).dropped, 1u);
    sink.discard(0);  // empty buffer: nothing to drop
    EXPECT_EQ(sink.stats(0).dropped, 1u);
  }
  // Nothing discarded reaches the file, not even the destructor's flush.
  EXPECT_EQ(slurp(sink_path(0)), "durable\n");
}

TEST_F(ShardedFileSinkTest, DestructorFlushesBufferedBytes) {
  {
    ShardedFileSink sink(file_opts(1));
    sink.append(0, "buffered until the end\n");
  }
  EXPECT_EQ(slurp(sink_path(0)), "buffered until the end\n");
}

TEST_F(ShardedFileSinkTest, ResumeTruncatesTornTailAndAppends) {
  {
    ShardedFileSink sink(file_opts(1));
    sink.append(0, "line one\n");
    sink.flush(0);  // durable: offset 9
    sink.append(0, "torn ta");
    sink.flush(0);  // durable on disk, but past the journaled offset
  }
  {
    ShardedFileSink sink(file_opts(1, {9}));
    ASSERT_TRUE(sink.ok());
    EXPECT_EQ(sink.offset(0), 9u);
    sink.append(0, "line two\n");
    sink.flush(0);
    EXPECT_EQ(sink.offset(0), 18u);
  }
  // The torn tail vanished; the rewritten suffix starts at the journal
  // offset, so the stream reads as if the kill never happened.
  EXPECT_EQ(slurp(sink_path(0)), "line one\nline two\n");
}

TEST_F(ShardedFileSinkTest, ResumeOfMissingFileFailsSafely) {
  ShardedFileSink sink(file_opts(1, {100}));
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.append(0, "dropped\n"));
  EXPECT_EQ(sink.stats(0).dropped, 1u);
}

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_path(
        std::string("atomic_file_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(AtomicFileTest, WriteFileAtomicPublishesAndOverwrites) {
  const std::string p = path("status.json");
  ASSERT_TRUE(write_file_atomic(p, "first\n"));
  EXPECT_EQ(slurp(p), "first\n");
  ASSERT_TRUE(write_file_atomic(p, "second\n"));
  EXPECT_EQ(slurp(p), "second\n");
  // The temp file never survives a successful publication.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  // Unwritable destination: failure is reported, nothing is left behind.
  EXPECT_FALSE(write_file_atomic(dir_ + "/missing/status.json", "x"));
}

}  // namespace
}  // namespace xentry::obs
