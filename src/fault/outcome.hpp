// Fault-outcome taxonomy, mirroring the paper's evaluation vocabulary.
//
// Section II separates *short latency* errors (contained in host mode:
// hypervisor crash/hang before VM entry) from *long latency* errors
// (propagating across VM entry).  Section V-E refines the long-latency
// consequences into one-VM failure, all-VM failure, APP crash and APP SDC;
// Section VI's Table II categorizes the undetected residue.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hv/machine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/forensics.hpp"
#include "xentry/framework.hpp"

namespace xentry::fault {

enum class Consequence : std::uint8_t {
  /// Non-activated or benign: no failure, no corruption.
  Masked = 0,
  /// Short-latency: a host-mode trap would halt the hypervisor.
  HypervisorCrash,
  /// Short-latency: the hypervisor hung (watchdog budget exhausted).
  HypervisorHang,
  /// Long-latency: hypervisor-internal or Dom0 state corrupted; every VM
  /// is affected.
  AllVmFailure,
  /// Long-latency: one guest's control state or kernel data corrupted.
  OneVmFailure,
  /// Long-latency: an application-visible pointer corrupted; the app
  /// crashes (segfault-class).
  AppCrash,
  /// Long-latency: application-visible data silently corrupted; the app
  /// completes with wrong results.  The hardest class (Section V-E).
  AppSdc,
};

/// Number of Consequence values (array-indexing helper).
inline constexpr std::size_t kNumConsequences = 7;

constexpr std::string_view consequence_name(Consequence c) {
  switch (c) {
    case Consequence::Masked: return "masked";
    case Consequence::HypervisorCrash: return "hypervisor_crash";
    case Consequence::HypervisorHang: return "hypervisor_hang";
    case Consequence::AllVmFailure: return "all_vm_failure";
    case Consequence::OneVmFailure: return "one_vm_failure";
    case Consequence::AppCrash: return "app_crash";
    case Consequence::AppSdc: return "app_sdc";
  }
  return "?";
}

/// Inverse of consequence_name; nullopt for unknown names.  Keeps the
/// exported vocabulary round-trippable (CSV/JSONL consumers feed names
/// back into analysis tooling).
std::optional<Consequence> consequence_from_name(std::string_view name);

/// True for consequences that crossed VM entry (the paper's long-latency
/// errors, Fig. 9's population).
constexpr bool is_long_latency(Consequence c) {
  return c == Consequence::AllVmFailure || c == Consequence::OneVmFailure ||
         c == Consequence::AppCrash || c == Consequence::AppSdc;
}

/// True for errors that manifested at all (Fig. 8's population: the
/// ~17,700 of 30,000 injections that caused failures or corruption).
constexpr bool is_manifested(Consequence c) {
  return c != Consequence::Masked;
}

/// Why an undetected fault escaped (Table II).
enum class UndetectedClass : std::uint8_t {
  NotApplicable = 0,  ///< detected, or masked
  MisClassified,      ///< transition detector saw it and judged it correct
  StackValues,        ///< corruption travelled through stack values
  TimeValues,         ///< corruption only in time-related values
  OtherValues,        ///< other pure-data corruption
};

constexpr std::string_view undetected_class_name(UndetectedClass c) {
  switch (c) {
    case UndetectedClass::NotApplicable: return "n/a";
    case UndetectedClass::MisClassified: return "mis_classify";
    case UndetectedClass::StackValues: return "stack_values";
    case UndetectedClass::TimeValues: return "time_values";
    case UndetectedClass::OtherValues: return "other_values";
  }
  return "?";
}

/// Inverse of undetected_class_name; nullopt for unknown names.
std::optional<UndetectedClass> undetected_class_from_name(
    std::string_view name);

/// The postmortem payloads of one record: in-memory only, telemetry-
/// dependent, and excluded from the determinism digest and from both wire
/// formats, so records stay bit-identical across telemetry modes.
struct Postmortem {
  /// Flight-recorder dump (oldest VM exit first), captured automatically
  /// when the outcome is SDC / crash class and a flight recorder is
  /// attached (obs::Options::flight_recorder).
  std::vector<obs::FlightFrame> blackbox;

  /// Lockstep-replay evidence (obs::Options::forensics): first
  /// architectural divergence, taint map, and evidence-based escape
  /// attribution.  `InjectionRecord::undetected` always keeps the
  /// heuristic value; consumers read the evidence-based class through
  /// effective_undetected().
  std::optional<obs::ForensicsRecord> forensics;
};

/// Owning, deep-copying pointer to a record's Postmortem.  Null until
/// something stores a payload, so a record without one allocates
/// nothing; a copy clones the payload and a move transfers it, which
/// keeps InjectionRecord a rule-of-zero value type.
class PostmortemBox {
 public:
  PostmortemBox() = default;
  PostmortemBox(const PostmortemBox& other)
      : p_(other.p_ ? std::make_unique<Postmortem>(*other.p_) : nullptr) {}
  PostmortemBox(PostmortemBox&&) noexcept = default;
  PostmortemBox& operator=(const PostmortemBox& other) {
    return *this = PostmortemBox(other);
  }
  PostmortemBox& operator=(PostmortemBox&&) noexcept = default;

  /// The payload, or null when the record carries none.
  const Postmortem* get() const { return p_.get(); }
  /// The payload, allocated empty first when the record carries none.
  Postmortem& fill() {
    if (!p_) p_ = std::make_unique<Postmortem>();
    return *p_;
  }

 private:
  std::unique_ptr<Postmortem> p_;
};

/// Complete record of one injection experiment.
///
/// Campaigns keep one per injection, so the layout is part of its cost:
/// the digested scalars sit inline with no padding beyond the 3 bytes
/// inside hv::Injection (the 4-byte fields paired, the eight one-byte
/// fields together), and the rarely-filled postmortem payloads live out
/// of line behind one pointer.  The static_assert below holds the record
/// to 128 bytes.
struct InjectionRecord {
  hv::ExitReason reason;
  std::uint64_t activation_seed = 0;
  hv::Injection injection;
  int vcpu = 0;
  std::uint32_t assert_id = 0;

  bool injected = false;
  bool activated = false;
  Consequence consequence = Consequence::Masked;
  bool detected = false;
  Technique technique = Technique::None;
  sim::TrapKind trap = sim::TrapKind::None;
  bool trace_diverged = false;
  UndetectedClass undetected = UndetectedClass::NotApplicable;

  /// Dynamic instructions between error activation and detection.
  std::uint64_t latency = 0;

  FeatureVector features;

  /// Importance-sampling reweighting (src/fault/sampler.hpp).  `weight` is
  /// the probability mass the executed run represents under the original
  /// proposal; `masked_weight` is the slot's provably-masked mass attributed
  /// to Masked without execution.  weight + masked_weight == 1 under
  /// importance sampling; weight == 1, masked_weight == 0 under uniform
  /// sampling, where weighted_rates() reduces to plain counts.  Derived
  /// metadata: excluded from the determinism digest (like the postmortem),
  /// which hashes only the executed record stream.
  double weight = 1.0;
  double masked_weight = 0.0;

  /// SDC / crash / escape postmortems; null for every other record and
  /// whenever neither the flight recorder nor forensics is on.
  PostmortemBox postmortem;

  /// The flight-recorder dump; empty when none was captured.
  std::span<const obs::FlightFrame> blackbox() const {
    const Postmortem* p = postmortem.get();
    return p != nullptr ? std::span<const obs::FlightFrame>(p->blackbox)
                        : std::span<const obs::FlightFrame>();
  }
  /// The lockstep-replay evidence; null when no replay ran.
  const obs::ForensicsRecord* forensics() const {
    const Postmortem* p = postmortem.get();
    return p != nullptr && p->forensics.has_value() ? &*p->forensics
                                                    : nullptr;
  }
};

static_assert(sizeof(InjectionRecord) <= 128,
              "InjectionRecord is kept per injection: move rarely-filled "
              "payloads into Postmortem");

/// The escape class analysis should use: the replay-evidence attribution
/// when forensics ran, the heuristic otherwise.  The digested `undetected`
/// field is never rewritten, so record digests stay bit-identical whether
/// forensics ran or not.
inline UndetectedClass effective_undetected(const InjectionRecord& r) {
  const obs::ForensicsRecord* fx = r.forensics();
  return fx != nullptr ? static_cast<UndetectedClass>(fx->attributed)
                       : r.undetected;
}

/// True for outcomes the forensics replay investigates: silent data
/// corruption and app crashes always (Fig. 9's propagation population),
/// plus anything manifested the detectors missed (Table II's escapes).
constexpr bool needs_forensics(Consequence c, bool detected) {
  return c == Consequence::AppSdc || c == Consequence::AppCrash ||
         (is_manifested(c) && !detected);
}

/// True for the outcomes whose anatomy the flight recorder preserves
/// (Table 2-style postmortems: silent corruption and crash classes).
constexpr bool is_blackbox_worthy(Consequence c) {
  return c == Consequence::AppSdc || c == Consequence::AppCrash ||
         c == Consequence::HypervisorCrash || c == Consequence::HypervisorHang;
}

}  // namespace xentry::fault
