// Hardware-exception parsing (paper Section III-A).
//
// "While failures may cause exceptions, exceptions do not necessarily
// indicate failures. ... hardware exceptions should be parsed first to
// filter out non-fatal ones."  The parser embodies that policy: it maps a
// trap raised during a hypervisor execution to a verdict — fatal (a strong
// soft-error indicator) or not a hardware exception at all (assertions
// have their own channel).  The exceptions that are legal in correct
// executions (#PF, #DE in guest context) arrive as VM exits, never as
// host-mode traps, so every hardware trap this parser sees is fatal.
#pragma once

#include <string>

#include "sim/types.hpp"

namespace xentry {

enum class ExceptionVerdict {
  Fatal,      ///< strong soft-error indicator: detection fires
  NotHardware ///< software assertion or none: not this parser's business
};

class ExceptionParser {
 public:
  ExceptionVerdict parse(const sim::Trap& trap) const;

  /// Human-readable rationale for logs and reports.
  static std::string describe(const sim::Trap& trap);
};

}  // namespace xentry
