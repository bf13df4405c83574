#include "hv/exit_reason.hpp"

#include <string>

namespace xentry::hv {

std::string_view hypercall_name(Hypercall h) {
  constexpr std::array<std::string_view, kNumHypercalls> names = {
      "set_trap_table",
      "mmu_update",
      "set_gdt",
      "stack_switch",
      "set_callbacks",
      "fpu_taskswitch",
      "sched_op_compat",
      "platform_op",
      "set_debugreg",
      "get_debugreg",
      "update_descriptor",
      "memory_op",
      "multicall",
      "update_va_mapping",
      "set_timer_op",
      "event_channel_op_compat",
      "xen_version",
      "console_io",
      "physdev_op_compat",
      "grant_table_op",
      "vm_assist",
      "update_va_mapping_otherdomain",
      "iret",
      "vcpu_op",
      "set_segment_base",
      "mmuext_op",
      "xsm_op",
      "nmi_op",
      "sched_op",
      "callback_op",
      "xenoprof_op",
      "event_channel_op",
      "physdev_op",
      "hvm_op",
      "sysctl",
      "domctl",
      "kexec_op",
      "tmem_op",
  };
  return names[static_cast<std::size_t>(h)];
}

std::string_view exception_name(GuestException e) {
  constexpr std::array<std::string_view, kNumGuestExceptions> names = {
      "divide_error",
      "debug",
      "nmi",
      "int3",
      "overflow",
      "bounds",
      "invalid_op",
      "device_not_available",
      "double_fault",
      "coproc_seg_overrun",
      "invalid_tss",
      "segment_not_present",
      "stack_segment",
      "general_protection",
      "page_fault",
      "spurious_interrupt",
      "math_fault",
      "alignment_check",
      "machine_check",
  };
  return names[static_cast<std::size_t>(e)];
}

std::string_view apic_name(ApicInterrupt a) {
  constexpr std::array<std::string_view, kNumApicInterrupts> names = {
      "apic_timer",
      "apic_error",
      "apic_spurious",
      "apic_thermal",
      "apic_perf_counter",
      "apic_cmci",
      "ipi_event_check",
      "ipi_call_function",
      "ipi_reschedule",
      "ipi_irq_move",
  };
  return names[static_cast<std::size_t>(a)];
}

namespace {

// Handler symbols are interned so handler_symbol can return views.  Each
// category's symbols are built once.
const std::array<std::string, kNumHypercalls>& hypercall_symbols() {
  static const auto table = [] {
    std::array<std::string, kNumHypercalls> t;
    for (int i = 0; i < kNumHypercalls; ++i) {
      t[static_cast<std::size_t>(i)] =
          "hypercall_" +
          std::string(hypercall_name(static_cast<Hypercall>(i)));
    }
    return t;
  }();
  return table;
}

const std::array<std::string, kNumGuestExceptions>& exception_symbols() {
  static const auto table = [] {
    std::array<std::string, kNumGuestExceptions> t;
    for (int i = 0; i < kNumGuestExceptions; ++i) {
      t[static_cast<std::size_t>(i)] =
          "do_" + std::string(exception_name(static_cast<GuestException>(i)));
    }
    return t;
  }();
  return table;
}

}  // namespace

std::string_view handler_symbol(const ExitReason& reason) {
  switch (reason.category) {
    case ExitCategory::Hypercall:
      return hypercall_symbols()[static_cast<std::size_t>(reason.index)];
    case ExitCategory::Exception:
      return exception_symbols()[static_cast<std::size_t>(reason.index)];
    case ExitCategory::Apic:
      return apic_name(static_cast<ApicInterrupt>(reason.index));
    case ExitCategory::Irq:
      return "do_irq";
    case ExitCategory::Softirq:
      return "do_softirq";
    case ExitCategory::Tasklet:
      return "do_tasklet";
  }
  return "";
}

std::array<ExitReason, kNumHypercalls + kNumGuestExceptions +
                           kNumApicInterrupts + kNumIrqLines + 2>
all_exit_reasons() {
  std::array<ExitReason, kNumHypercalls + kNumGuestExceptions +
                             kNumApicInterrupts + kNumIrqLines + 2>
      out;
  std::size_t i = 0;
  for (int h = 0; h < kNumHypercalls; ++h) {
    out[i++] = ExitReason::hypercall(static_cast<Hypercall>(h));
  }
  for (int e = 0; e < kNumGuestExceptions; ++e) {
    out[i++] = ExitReason::exception(static_cast<GuestException>(e));
  }
  for (int a = 0; a < kNumApicInterrupts; ++a) {
    out[i++] = ExitReason::apic(static_cast<ApicInterrupt>(a));
  }
  for (int l = 0; l < kNumIrqLines; ++l) out[i++] = ExitReason::irq(l);
  out[i++] = ExitReason::softirq();
  out[i++] = ExitReason::tasklet();
  return out;
}

}  // namespace xentry::hv
