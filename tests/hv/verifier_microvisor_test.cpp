// The microvisor itself must verify cleanly in every configuration — the
// strongest static guarantee that no handler branches into padding, falls
// off its tail, or carries an unregistered assertion id.
#include <gtest/gtest.h>

#include <cstdint>

#include "hv/microvisor.hpp"
#include "sim/verifier.hpp"

namespace xentry::hv {
namespace {

sim::VerifierOptions strict() {
  sim::VerifierOptions opt;
  opt.max_assert_id = kAssertMaxId;
  return opt;
}

// gtest names each case by a hex dump of the whole struct, so every byte
// must be initialised: a padding byte would make the case names change from
// run to run. `name_tag` fills what used to be padding and holds the values
// the recorded case names carry; it plays no part in the check itself.
struct ConfigCase {
  int domains;
  int vcpus;
  bool assertions;
  bool time_checks;
  std::uint16_t name_tag;
};
static_assert(sizeof(ConfigCase) == 12, "ConfigCase must have no padding");

class MicrovisorVerify : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(MicrovisorVerify, ProgramVerifiesClean) {
  const ConfigCase c = GetParam();
  MicrovisorOptions opt;
  opt.num_domains = c.domains;
  opt.vcpus_per_domain = c.vcpus;
  opt.assertions = c.assertions;
  opt.time_checks = c.time_checks;
  const Microvisor mv = build_microvisor(opt);
  const sim::VerifierReport r = sim::verify_program(mv.program, strict());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.branches, 100u);
  if (c.assertions) {
    EXPECT_GT(r.assertions, 20u);
  } else {
    EXPECT_EQ(r.assertions, 0u);
  }
  // multicall's manual indirect dispatch is the only jmp-through-register.
  EXPECT_EQ(r.indirect_jumps, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MicrovisorVerify,
    ::testing::Values(ConfigCase{3, 1, true, false, 0x56F9},
                      ConfigCase{3, 1, true, true, 0},
                      ConfigCase{3, 1, false, false, 0},
                      ConfigCase{2, 1, true, false, 0xFFFF},
                      ConfigCase{4, 2, true, true, 0xE691},
                      ConfigCase{8, 1, true, false, 0},
                      ConfigCase{1, 1, true, false, 0xE691}));

}  // namespace
}  // namespace xentry::hv
