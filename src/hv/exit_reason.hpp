// VM exit reasons of the microvisor.
//
// Section IV of the paper enumerates five categories of hypervisor
// activations in Xen 4.1.2, all of which Xentry intercepts:
//   1. common device interrupts                (do_irq)
//   2. APIC-generated interrupts               (10 handlers)
//   3. software interrupts and tasklets        (do_softirq, do_tasklet)
//   4. exceptions                              (19 handlers)
//   5. hypercalls                              (38 entries)
// The numeric `code()` of a reason is the VMER feature of Table I.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace xentry::hv {

enum class ExitCategory : std::uint8_t {
  Hypercall = 0,
  Exception,
  Apic,
  Irq,
  Softirq,
  Tasklet,
};

/// The 38 hypercalls of Xen 4.1.2, in ABI order.
enum class Hypercall : std::uint8_t {
  set_trap_table = 0,
  mmu_update,
  set_gdt,
  stack_switch,
  set_callbacks,
  fpu_taskswitch,
  sched_op_compat,
  platform_op,
  set_debugreg,
  get_debugreg,
  update_descriptor,
  memory_op,
  multicall,
  update_va_mapping,
  set_timer_op,
  event_channel_op_compat,
  xen_version,
  console_io,
  physdev_op_compat,
  grant_table_op,
  vm_assist,
  update_va_mapping_otherdomain,
  iret,
  vcpu_op,
  set_segment_base,
  mmuext_op,
  xsm_op,
  nmi_op,
  sched_op,
  callback_op,
  xenoprof_op,
  event_channel_op,
  physdev_op,
  hvm_op,
  sysctl,
  domctl,
  kexec_op,
  tmem_op,
};
inline constexpr int kNumHypercalls = 38;

/// The 19 processor exceptions the microvisor handles on behalf of guests.
enum class GuestException : std::uint8_t {
  divide_error = 0,
  debug,
  nmi,
  int3,
  overflow,
  bounds,
  invalid_op,
  device_not_available,
  double_fault,
  coproc_seg_overrun,
  invalid_tss,
  segment_not_present,
  stack_segment,
  general_protection,
  page_fault,
  spurious_interrupt,
  math_fault,
  alignment_check,
  machine_check,
};
inline constexpr int kNumGuestExceptions = 19;

/// The ten APIC interrupt handlers (category 2 in Section IV).
enum class ApicInterrupt : std::uint8_t {
  timer = 0,
  error,
  spurious,
  thermal,
  perf_counter,
  cmci,
  ipi_event_check,
  ipi_call_function,
  ipi_reschedule,
  ipi_irq_move,
};
inline constexpr int kNumApicInterrupts = 10;

/// A fully-specified exit reason.  `index` selects within the category
/// (hypercall number, exception vector, APIC handler, or IRQ line).
struct ExitReason {
  ExitCategory category = ExitCategory::Hypercall;
  int index = 0;

  /// Dense numeric encoding: the VMER feature value.
  ///   hypercalls   0..37
  ///   exceptions 100..118
  ///   APIC       200..209
  ///   IRQ        300..315  (one code per line: distinct devices behave
  ///                         differently, and the feature should see that)
  ///   softirq    400
  ///   tasklet    401
  /// Inline: every activation and every record computes it.
  int code() const {
    switch (category) {
      case ExitCategory::Hypercall: return index;
      case ExitCategory::Exception: return 100 + index;
      case ExitCategory::Apic: return 200 + index;
      case ExitCategory::Irq: return 300 + index;
      case ExitCategory::Softirq: return 400;
      case ExitCategory::Tasklet: return 401;
    }
    return -1;
  }

  static ExitReason hypercall(Hypercall h) {
    return {ExitCategory::Hypercall, static_cast<int>(h)};
  }
  static ExitReason exception(GuestException e) {
    return {ExitCategory::Exception, static_cast<int>(e)};
  }
  static ExitReason apic(ApicInterrupt a) {
    return {ExitCategory::Apic, static_cast<int>(a)};
  }
  static ExitReason irq(int line) { return {ExitCategory::Irq, line}; }
  static ExitReason softirq() { return {ExitCategory::Softirq, 0}; }
  static ExitReason tasklet() { return {ExitCategory::Tasklet, 0}; }

  friend bool operator==(const ExitReason&, const ExitReason&) = default;
};

inline constexpr int kNumIrqLines = 16;

/// Name of the microvisor entry symbol for a reason, e.g.
/// "hypercall_sched_op", "do_page_fault", "apic_timer", "do_irq".
std::string_view handler_symbol(const ExitReason& reason);

std::string_view hypercall_name(Hypercall h);
std::string_view exception_name(GuestException e);
std::string_view apic_name(ApicInterrupt a);

/// All reasons the microvisor implements, in code() order; used to build
/// the dispatch table and by tests to sweep every handler.
std::array<ExitReason, kNumHypercalls + kNumGuestExceptions +
                           kNumApicInterrupts + kNumIrqLines + 2>
all_exit_reasons();

}  // namespace xentry::hv
