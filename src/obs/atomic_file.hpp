// Whole-file I/O: atomic publication (write-to-temp + rename) and its
// reading counterpart.
//
// micro_campaign's --metrics-out may be rewritten while another process
// reads it.  A plain truncate-and-write lets a reader observe a torn
// prefix; POSIX rename(2) within one directory is atomic, so writing the
// full content to a sibling temp file and renaming it over the target
// guarantees every reader sees either the old file or the new one,
// never a mix.
#pragma once

#include <string>
#include <string_view>

namespace xentry::obs {

/// Writes `content` to `path` atomically: the bytes land in
/// `<path>.tmp.<pid>` first and are renamed over `path` only after a
/// successful write + flush.  Returns false (and removes the temp file)
/// on any I/O failure; `path` is never left torn or truncated.
bool write_file_atomic(const std::string& path, std::string_view content);

/// The whole content of `path`; empty when the file is missing or
/// unreadable (readers treat both as "nothing published yet").
std::string read_file(const std::string& path);

}  // namespace xentry::obs
