#include "xentry/exception_parser.hpp"

#include <gtest/gtest.h>

namespace xentry {
namespace {

TEST(ExceptionParserTest, FatalHardwareExceptions) {
  ExceptionParser p;
  for (sim::TrapKind k :
       {sim::TrapKind::InvalidOpcode, sim::TrapKind::PageFault,
        sim::TrapKind::GeneralProtection, sim::TrapKind::StackFault,
        sim::TrapKind::Watchdog, sim::TrapKind::DivideError}) {
    EXPECT_EQ(p.parse(sim::Trap{k, 0, 0}), ExceptionVerdict::Fatal)
        << sim::trap_name(k);
  }
}

TEST(ExceptionParserTest, AssertionsAreNotHardware) {
  ExceptionParser p;
  EXPECT_EQ(p.parse(sim::Trap{sim::TrapKind::AssertFailed, 0, 3}),
            ExceptionVerdict::NotHardware);
  EXPECT_EQ(p.parse(sim::Trap{}), ExceptionVerdict::NotHardware);
}

TEST(ExceptionParserTest, DescribeMentionsKindAndAssertId) {
  const std::string s =
      ExceptionParser::describe(sim::Trap{sim::TrapKind::AssertFailed, 7, 9});
  EXPECT_NE(s.find("ASSERT"), std::string::npos);
  EXPECT_NE(s.find("9"), std::string::npos);
  EXPECT_NE(ExceptionParser::describe(
                sim::Trap{sim::TrapKind::PageFault, 0xdead, 0})
                .find("#PF"),
            std::string::npos);
}

}  // namespace
}  // namespace xentry
