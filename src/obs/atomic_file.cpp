#include "obs/atomic_file.hpp"

#include <cstdio>

#include <unistd.h>

namespace xentry::obs {

bool write_file_atomic(const std::string& path, std::string_view content) {
  // The pid suffix keeps concurrent writers of *different* targets in the
  // same directory from clobbering each other's temp files; two writers
  // of the same target still converge to one of the two contents intact.
  std::string tmp = path;
  tmp += ".tmp.";
  tmp += std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      (content.empty() ||
       std::fwrite(content.data(), 1, content.size(), f) == content.size()) &&
      std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

}  // namespace xentry::obs
