#include "xentry/exception_parser.hpp"

#include <sstream>

namespace xentry {

ExceptionVerdict ExceptionParser::parse(const sim::Trap& trap) const {
  switch (trap.kind) {
    case sim::TrapKind::None:
    case sim::TrapKind::AssertFailed:
    case sim::TrapKind::StackCheck:
      return ExceptionVerdict::NotHardware;
    case sim::TrapKind::InvalidOpcode:
    case sim::TrapKind::PageFault:
    case sim::TrapKind::GeneralProtection:
    case sim::TrapKind::StackFault:
    case sim::TrapKind::DivideError:
    case sim::TrapKind::Watchdog:
      // In hypervisor context these are always fatal: the microvisor's own
      // code never legally faults (guest page faults arrive as VM exits,
      // not as host-mode traps), #DE is legal only in guest context, and
      // watchdog expiry is Xen's NMI watchdog catching a hung hypervisor.
      return ExceptionVerdict::Fatal;
  }
  return ExceptionVerdict::NotHardware;
}

std::string ExceptionParser::describe(const sim::Trap& trap) {
  std::ostringstream os;
  os << sim::trap_name(trap.kind) << " at 0x" << std::hex << trap.fault_addr;
  if (trap.kind == sim::TrapKind::AssertFailed) {
    os << " (assert id " << std::dec << trap.aux << ")";
  }
  return os.str();
}

}  // namespace xentry
