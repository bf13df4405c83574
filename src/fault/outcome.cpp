#include "fault/outcome.hpp"

namespace xentry::fault {

std::optional<Consequence> consequence_from_name(std::string_view name) {
  // Small fixed vocabulary: a linear scan over the canonical names keeps
  // the two directions trivially in sync.
  static constexpr Consequence kAll[] = {
      Consequence::Masked,        Consequence::HypervisorCrash,
      Consequence::HypervisorHang, Consequence::AllVmFailure,
      Consequence::OneVmFailure,  Consequence::AppCrash,
      Consequence::AppSdc,
  };
  for (Consequence c : kAll) {
    if (consequence_name(c) == name) return c;
  }
  return std::nullopt;
}

std::optional<UndetectedClass> undetected_class_from_name(
    std::string_view name) {
  static constexpr UndetectedClass kAll[] = {
      UndetectedClass::NotApplicable, UndetectedClass::MisClassified,
      UndetectedClass::StackValues,   UndetectedClass::TimeValues,
      UndetectedClass::OtherValues,
  };
  for (UndetectedClass c : kAll) {
    if (undetected_class_name(c) == name) return c;
  }
  return std::nullopt;
}

}  // namespace xentry::fault
