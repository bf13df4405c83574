// Scratch paths for tests that write files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace xentry::test {

/// `::testing::TempDir()` + `name` + this process's id: a path that no
/// other test process running at the same time (another build's test
/// binary, say) writes to.
inline std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + name + "_" + std::to_string(::getpid());
}

}  // namespace xentry::test
