#include "hv/machine.hpp"

#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sim/splitmix.hpp"

namespace xentry::hv {

namespace L = layout;
using sim::Addr;
using sim::Reg;
using sim::SplitMix64;
using sim::Word;

/// Steps the faulted remainder runs between hang-proof attempts: short
/// enough that a hang retires little of its budget before one, long
/// enough that a run which ends on its own pays for few.
constexpr std::uint64_t kHangProofChunk = 4096;

Machine::Machine(const MicrovisorOptions& options)
    : mv_(build_microvisor(options)), cpu_(&mv_.program, &mem_) {
  map_regions();
  init_boot_state();
  for (const ExitReason& r : all_exit_reasons()) {
    const std::size_t code = static_cast<std::size_t>(r.code());
    if (entry_cache_.size() <= code) entry_cache_.resize(code + 1, 0);
    entry_cache_[code] = mv_.entry(r);
  }
}

sim::Addr Machine::handler_entry(const ExitReason& reason) const {
  const std::size_t code = static_cast<std::size_t>(reason.code());
  if (code < entry_cache_.size() && entry_cache_[code] != 0) {
    return entry_cache_[code];
  }
  return mv_.entry(reason);
}

void Machine::map_regions() {
  const int nd = num_domains();
  const int nv = num_vcpus() + 1;  // + idle vcpu
  mem_.map(L::kHvDataBase, L::kHvDataSize, sim::Perm::ReadWrite, "hv_data");
  mem_.map(L::kDomainBase, static_cast<Addr>(nd) * L::kDomainStride,
           sim::Perm::ReadWrite, "domains");
  mem_.map(L::kVcpuBase, static_cast<Addr>(nv) * L::kVcpuStride,
           sim::Perm::ReadWrite, "vcpus");
  mem_.map(L::kSharedBase, static_cast<Addr>(nd) * L::kSharedStride,
           sim::Perm::ReadWrite, "shared_info");
  mem_.map(L::kGuestRamBase, static_cast<Addr>(nd) * L::kGuestRamStride,
           sim::Perm::ReadWrite, "guest_ram");
  mem_.map(L::kStackBase, L::kStackSize, sim::Perm::ReadWrite, "stack");
  if (mv_.options.shadow_stack) {
    mem_.map(L::kStackBase + L::kShadowStackOffset, L::kStackSize,
             sim::Perm::ReadWrite, "shadow_stack");
    cpu_.enable_shadow_stack(L::kShadowStackOffset);
  }
  mem_.map(L::kConsoleBase, L::kConsoleSize, sim::Perm::ReadWrite, "console");
}

void Machine::reset() {
  mem_.clear();
  init_boot_state();
}

void Machine::init_boot_state() {
  const int nd = num_domains();
  const int nv = num_vcpus();
  const int vpd = mv_.options.vcpus_per_domain;
  const Addr hv = L::kHvDataBase;

  // Hypervisor globals.
  mem_.poke(hv + L::kHvNumDomains, static_cast<Word>(nd));
  mem_.poke(hv + L::kHvNumVcpus, static_cast<Word>(nv));
  mem_.poke(hv + L::kHvTscScaleMul, 8);
  mem_.poke(hv + L::kHvTscScaleShift, 3);  // ns == tsc with these values
  mem_.poke(hv + L::kHvXenVersion, (4u << 16) | 1u);
  mem_.poke(hv + L::kHvWallclockSec, 1404000000);  // paper-era epoch
  mem_.poke(hv + L::kHvXsmPolicy, 0x4);  // ops with bit 2 set are denied
  mem_.poke(hv + L::kHvThermal, 50);
  mem_.poke(hv + L::kHvCurrentVcpu, L::vcpu_addr(0));

  // IRQ routing: line -> (domain, port).
  for (int irq = 0; irq < kNumIrqLines; ++irq) {
    const int dom = irq % nd;
    const int port = irq % 8;
    mem_.poke(hv + L::kHvIrqTable + irq,
              (static_cast<Word>(dom) << 8) | static_cast<Word>(port));
  }

  // Hypercall body table (for multicall's indirect dispatch).
  const auto table = mv_.hypercall_body_table();
  for (int i = 0; i < kNumHypercalls; ++i) {
    mem_.poke(hv + L::kHvHypercallTable + i, table[static_cast<size_t>(i)]);
  }

  // Domains.
  for (int d = 0; d < nd; ++d) {
    const Addr dom = L::domain_addr(d);
    mem_.poke(dom + L::kDomId, static_cast<Word>(d));
    mem_.poke(dom + L::kDomNumVcpus, static_cast<Word>(vpd));
    mem_.poke(dom + L::kDomSharedInfo, L::shared_info_addr(d));
    mem_.poke(dom + L::kDomTotPages, 256 + static_cast<Word>(d));
    mem_.poke(dom + L::kDomMaxPages, Word{1} << 40);
    mem_.poke(dom + L::kDomIsPrivileged, d == 0 ? 1 : 0);
    mem_.poke(dom + L::kDomGuestRam, L::guest_ram_addr(d));
    // Event-channel port bindings: the first 8 ports bind to the domain's
    // first vcpu; the rest are free (sentinel 0xff) for alloc_unbound.
    for (int p = 0; p < L::kNumEvtchnPorts; ++p) {
      mem_.poke(dom + L::kDomEvtchnVcpu + p,
                p < 8 ? static_cast<Word>(d * vpd) : 0xff);
    }
    // Shared info: all channels unmasked, time scale published.
    const Addr sh = L::shared_info_addr(d);
    mem_.poke(sh + L::kShTscMul, 8);
    // Guest "page tables": the first 12 L1 slots are mapped.
    const Addr ram = L::guest_ram_addr(d);
    for (int i = 0; i < 12; ++i) {
      mem_.poke(ram + L::kGuestPageTable + i, static_cast<Word>(i + 1));
    }
  }

  // VCPUs (id is the *global* index; the runqueue stores these).
  for (int v = 0; v < nv; ++v) {
    const Addr vc = L::vcpu_addr(v);
    const int dom = v / vpd;
    mem_.poke(vc + L::kVcpuId, static_cast<Word>(v));
    mem_.poke(vc + L::kVcpuDomain, L::domain_addr(dom));
    mem_.poke(vc + L::kVcpuState, L::kVcpuStateRunning);
    // Guest trap table: plausible in-guest handler addresses.
    for (int t = 0; t < kNumGuestExceptions; ++t) {
      mem_.poke(vc + L::kVcpuTrapTable + t,
                L::guest_ram_addr(dom) + 0x10 + static_cast<Word>(t));
    }
    mem_.poke(vc + L::kVcpuSaveRip, L::guest_ram_addr(dom) + 0x20);
    mem_.poke(vc + L::kVcpuSaveRsp, L::guest_ram_addr(dom) + 0xc0);
    mem_.poke(vc + L::kVcpuCallback, L::guest_ram_addr(dom) + 0x14);
  }
  // The idle VCPU (belongs to Dom0's address space, never runs guest code).
  const Addr idle = L::vcpu_addr(nv);
  mem_.poke(idle + L::kVcpuId, static_cast<Word>(nv));
  mem_.poke(idle + L::kVcpuDomain, L::domain_addr(0));
  mem_.poke(idle + L::kVcpuState, L::kVcpuStateIdle);
  // The idle loop "runs" in Dom0's address space; VM-entry validation
  // must see a plausible rip even right after an idle switch.
  mem_.poke(idle + L::kVcpuSaveRip, L::guest_ram_addr(0) + 0x20);
  mem_.poke(idle + L::kVcpuSaveRsp, L::guest_ram_addr(0) + 0xc0);

  // Runqueue: all guest VCPUs runnable.
  mem_.poke(L::kHvDataBase + L::kHvRunqCount, static_cast<Word>(nv));
  for (int v = 0; v < nv; ++v) {
    mem_.poke(L::kHvDataBase + L::kHvRunq + v, static_cast<Word>(v));
  }
}

const std::vector<std::string>& Machine::feature_names() {
  static const std::vector<std::string> names = {"VMER", "RT", "BR", "RM",
                                                 "WM"};
  return names;
}

Activation Machine::make_activation(const ExitReason& reason,
                                    std::uint64_t seed, int vcpu) const {
  SplitMix64 sm(seed * 0x5851f42d4c957f2dull + reason.code());
  Activation act;
  act.reason = reason;
  act.seed = seed;
  act.vcpu = vcpu >= 0 ? vcpu : static_cast<int>(sm.below(
                                    static_cast<std::uint64_t>(num_vcpus())));
  const int dom = domain_of_vcpu(act.vcpu);
  const Addr ram = L::guest_ram_addr(dom);

  switch (reason.category) {
    case ExitCategory::Hypercall:
      switch (static_cast<Hypercall>(reason.index)) {
        case Hypercall::set_trap_table: act.arg1 = 1 + sm.below(8); break;
        case Hypercall::mmu_update: act.arg1 = 1 + sm.below(16); break;
        case Hypercall::set_gdt: act.arg1 = 1 + sm.below(8); break;
        case Hypercall::stack_switch:
          act.arg1 = ram + 0x40 + sm.below(0x40);
          break;
        case Hypercall::set_callbacks:
          act.arg1 = ram + 0x10 + sm.below(0x40);
          break;
        case Hypercall::fpu_taskswitch: act.arg1 = sm.below(2); break;
        case Hypercall::sched_op_compat: act.arg1 = sm.below(2); break;
        case Hypercall::platform_op:
          act.arg1 = sm.below(2);
          act.arg2 = sm.below(0x10000);
          break;
        case Hypercall::set_debugreg:
          act.arg1 = sm.below(8);
          act.arg2 = sm.next();
          break;
        case Hypercall::get_debugreg: act.arg1 = sm.below(8); break;
        case Hypercall::update_descriptor:
          act.arg1 = sm.below(8);
          act.arg2 = sm.next() | 1;  // present bit
          break;
        case Hypercall::memory_op:
          act.arg1 = sm.below(2);
          act.arg2 = 1 + sm.below(16);
          break;
        case Hypercall::multicall: act.arg1 = 1 + sm.below(4); break;
        case Hypercall::update_va_mapping:
          act.arg1 = sm.below(0x100);
          act.arg2 = sm.next() & 0xffffff;
          break;
        case Hypercall::set_timer_op:
          // Mostly future deadlines; occasionally already expired.
          act.arg1 = sm.below(8) == 0 ? 1 : (Word{1} << 50) + sm.below(1000);
          break;
        case Hypercall::event_channel_op_compat:
          act.arg1 = sm.below(8);
          break;
        case Hypercall::xen_version: act.arg1 = sm.below(2); break;
        case Hypercall::console_io: act.arg1 = 1 + sm.below(32); break;
        case Hypercall::physdev_op_compat: act.arg1 = sm.below(4); break;
        case Hypercall::grant_table_op:
          act.arg1 = sm.below(2);
          act.arg2 = 1 + sm.below(8);
          break;
        case Hypercall::vm_assist:
          act.arg1 = sm.below(2);
          act.arg2 = sm.below(8);
          break;
        case Hypercall::update_va_mapping_otherdomain:
          act.arg1 = sm.below(static_cast<std::uint64_t>(num_domains()));
          act.arg2 = sm.below(0x100);
          act.arg3 = sm.next() & 0xffffff;
          break;
        case Hypercall::iret: break;
        case Hypercall::vcpu_op:
          act.arg1 = sm.below(3);
          act.arg2 = sm.below(static_cast<std::uint64_t>(num_vcpus()));
          break;
        case Hypercall::set_segment_base:
          act.arg1 = ram + sm.below(0x100);
          break;
        case Hypercall::mmuext_op:
          act.arg1 = sm.below(2);
          act.arg2 = 1 + sm.below(16);
          break;
        case Hypercall::xsm_op: act.arg1 = sm.below(8); break;
        case Hypercall::nmi_op: act.arg1 = ram + 0x18; break;
        case Hypercall::sched_op: {
          // yield / block / poll mix; shutdown only via explicit tests.
          const std::uint64_t r = sm.below(4);
          act.arg1 = r == 3 ? 3 : (r == 2 ? 1 : 0);
          act.arg2 = sm.below(8);
          break;
        }
        case Hypercall::callback_op: act.arg1 = ram + 0x14; break;
        case Hypercall::xenoprof_op: act.arg1 = sm.below(4); break;
        case Hypercall::event_channel_op:
          act.arg1 = sm.below(3);
          act.arg2 = act.arg1 == 2 ? sm.below(L::kNumEvtchnPorts)
                                   : sm.below(8);
          break;
        case Hypercall::physdev_op:
          act.arg1 = sm.below(kNumIrqLines);
          act.arg2 = sm.below(8);
          break;
        case Hypercall::hvm_op:
          act.arg1 = sm.below(4);
          act.arg2 = sm.next() & 0xffff;
          break;
        case Hypercall::sysctl: act.arg1 = 0; break;
        case Hypercall::domctl:
          act.arg1 = sm.below(3);
          act.arg2 = sm.below(static_cast<std::uint64_t>(num_domains()));
          break;
        case Hypercall::kexec_op: act.arg1 = ram + sm.below(0x400); break;
        case Hypercall::tmem_op: act.arg1 = 1 + sm.below(32); break;
      }
      break;
    case ExitCategory::Exception:
      switch (static_cast<GuestException>(reason.index)) {
        case GuestException::general_protection: {
          constexpr Word ops[] = {0x0f, 0x0f, 0x31, 0x6c};
          act.arg1 = ops[sm.below(4)];
          act.arg2 = sm.below(2);  // cpuid leaf
          break;
        }
        case GuestException::page_fault:
          act.arg1 = sm.below(0x100);  // fault va (l1 idx 0..15; <12 mapped)
          break;
        default:
          act.arg1 = sm.next() & 0xffff;  // error code
          break;
      }
      break;
    case ExitCategory::Apic:
      if (static_cast<ApicInterrupt>(reason.index) ==
          ApicInterrupt::perf_counter) {
        act.arg1 = sm.below(16);  // overflow status
      }
      break;
    case ExitCategory::Irq:
      act.arg1 = static_cast<Word>(reason.index);
      break;
    case ExitCategory::Softirq:
    case ExitCategory::Tasklet:
      break;
  }
  return act;
}

void Machine::prepare_inputs(const Activation& act) {
  SplitMix64 sm(act.seed ^ 0xa5a5a5a5a5a5a5a5ull);
  const int dom = domain_of_vcpu(act.vcpu);
  const Addr ram = L::guest_ram_addr(dom);
  const Addr hv = L::kHvDataBase;
  const Addr vc = L::vcpu_addr(act.vcpu);

  // Guest context at exit: write it into the per-pcpu scratch area and the
  // VCPU save area (what the real exit stub does).
  Word guest_ctx[19];
  for (int i = 0; i < 16; ++i) guest_ctx[i] = sm.next() & 0xffff;
  guest_ctx[16] = ram + 0x10 + sm.below(0x80);  // guest rip
  guest_ctx[17] = ram + 0xc0 + sm.below(0x20);  // guest rsp
  guest_ctx[18] = sm.below(0x100);              // guest rflags
  // Bulk spans: this runs per activation, so pay one region lookup per
  // destination instead of one per word.
  Word* scratch = mem_.poke_span(hv + L::kHvScratch, 19);
  Word* save = mem_.poke_span(vc + L::kVcpuSaveGprs, 19);
  for (int i = 0; i < 19; ++i) scratch[i] = guest_ctx[i];
  for (int i = 0; i < 19; ++i) save[i] = guest_ctx[i];

  // Device / platform state handlers may consult.
  mem_.poke(hv + L::kHvApicEsr, sm.below(0x100));
  mem_.poke(hv + L::kHvThermal, sm.below(120));
  mem_.poke(hv + L::kHvNmiReason, sm.below(2));
  mem_.poke(hv + L::kHvIpiArg, sm.below(0x100));
  for (int b = 0; b < 4; ++b) {
    mem_.poke(hv + L::kHvMcBanks + b, sm.below(8) * 2);  // even: non-fatal
  }

  // Request buffer: whatever the handler's batch loops will read.
  const Addr req = ram + L::kGuestReqBuffer;
  auto fill_default = [&] {
    Word* buf = mem_.poke_span(req, 64);
    for (int i = 0; i < 64; ++i) buf[i] = sm.next() & 0xffff;
  };
  if (act.reason.category == ExitCategory::Hypercall) {
    switch (static_cast<Hypercall>(act.reason.index)) {
      case Hypercall::set_trap_table: {
        Word* buf = mem_.poke_span(req, 34);
        for (int i = 0; i < 17; ++i) {
          const Word vec = sm.below(kNumGuestExceptions);
          buf[2 * i] = vec;
          buf[2 * i + 1] = ram + 0x10 + vec;
        }
        break;
      }
      case Hypercall::mmu_update: {
        Word* buf = mem_.poke_span(req, 64);
        for (int i = 0; i < 32; ++i) {
          buf[2 * i] = sm.below(64);
          buf[2 * i + 1] = sm.next() & 0xffffff;
        }
        break;
      }
      case Hypercall::set_gdt: {
        Word* buf = mem_.poke_span(req, 8);
        for (int i = 0; i < 8; ++i) buf[i] = sm.next() | 1;
        break;
      }
      case Hypercall::multicall: {
        Word* buf = mem_.poke_span(req, 16);
        for (int i = 0; i < 8; ++i) {
          constexpr Word targets[] = {5, 9, 14, 16};
          const Word idx = targets[sm.below(4)];
          Word arg = 0;
          if (idx == 5) arg = sm.below(2);
          else if (idx == 9) arg = sm.below(8);
          else if (idx == 14) arg = (Word{1} << 50) + sm.below(1000);
          buf[2 * i] = idx;
          buf[2 * i + 1] = arg;
        }
        break;
      }
      case Hypercall::grant_table_op: {
        Word* buf = mem_.poke_span(req, 16);
        for (int i = 0; i < 16; ++i) buf[i] = sm.below(L::kNumGrantEntries);
        break;
      }
      case Hypercall::iret: {
        Word* frame = mem_.poke_span(ram + L::kGuestExcFrame, 3);
        frame[0] = ram + 0x20 + sm.below(0x40);
        frame[1] = sm.below(0x100);
        frame[2] = ram + 0xc0 + sm.below(0x20);
        break;
      }
      default:
        fill_default();
        break;
    }
  } else if (act.reason.category == ExitCategory::Softirq) {
    mem_.poke(hv + L::kHvSoftirqPending, 1 + sm.below(7));
  } else if (act.reason.category == ExitCategory::Tasklet) {
    const Word n = 1 + sm.below(4);
    mem_.poke(hv + L::kHvTaskletCount, n);
    for (Word i = 0; i < n; ++i) {
      mem_.poke(hv + L::kHvTaskletQueue + i, sm.below(64));
    }
  } else {
    fill_default();
  }
}

void Machine::begin_activation(const Activation& act) {
  if (act.vcpu < 0 || act.vcpu >= num_vcpus()) {
    throw std::invalid_argument("Machine::begin_activation: bad vcpu index");
  }

  // VM-exit side (hardware + exit stub): the exiting VCPU is by definition
  // running; make it current and ensure it is on the runqueue.
  const Addr vc = L::vcpu_addr(act.vcpu);
  const Addr hv = L::kHvDataBase;
  mem_.poke(hv + L::kHvCurrentVcpu, vc);
  mem_.poke(vc + L::kVcpuState, L::kVcpuStateRunning);
  {
    Word count = mem_.peek(hv + L::kHvRunqCount);
    bool queued = false;
    for (Word i = 0; i < count; ++i) {
      if (mem_.peek(hv + L::kHvRunq + i) == static_cast<Word>(act.vcpu)) {
        queued = true;
        break;
      }
    }
    if (!queued && count < static_cast<Word>(L::kMaxVcpus)) {
      mem_.poke(hv + L::kHvRunq + count, static_cast<Word>(act.vcpu));
      mem_.poke(hv + L::kHvRunqCount, count + 1);
    }
  }

  prepare_inputs(act);

  // Register file at handler entry.
  cpu_.reset(handler_entry(act.reason), L::kStackTop);
  cpu_.set_reg(Reg::rbp, L::kHvDataBase);
  cpu_.set_reg(Reg::r8, vc);
  cpu_.set_reg(Reg::r9, L::domain_addr(domain_of_vcpu(act.vcpu)));
  cpu_.set_reg(Reg::rdi, act.arg1);
  cpu_.set_reg(Reg::rsi, act.arg2);
  cpu_.set_reg(Reg::rdx, act.arg3);
  cpu_.set_reg(Reg::rax, static_cast<Word>(act.reason.code()));
  {
    // Stale values left over from previous executions.
    SplitMix64 sm(act.seed ^ 0x517cc1b727220a95ull);
    for (Reg r : {Reg::rbx, Reg::rcx, Reg::r10, Reg::r11, Reg::r12, Reg::r13,
                  Reg::r14, Reg::r15}) {
      cpu_.set_reg(r, sm.next() & 0xffff);
    }
  }
}

RunResult Machine::run(const Activation& act, const RunOptions& opts) {
  // Per-VM-exit span: named by the handler symbol (static storage), one
  // lane per campaign shard.  A null recorder makes the span a no-op.
  const bool tracing = telemetry_ != nullptr && telemetry_->trace != nullptr;
  obs::TraceRecorder::Span span(
      tracing ? telemetry_->trace : nullptr,
      tracing ? handler_symbol(act.reason) : std::string_view{},
      tracing ? telemetry_->tid : 0);

  begin_activation(act);

  cpu_.set_trace(opts.trace);
  if (opts.arm_counters) cpu_.counters().arm();

  // One path: a clean run is an injection run whose flip point lies past
  // the budget.  The configured engine runs the fault-free prefix up to
  // the flip; the faulted remainder runs in chunks of kHangProofChunk
  // steps: at each chunk boundary short of the budget, the Fast engine
  // tries to prove that the rest is a hang (sim::Cpu::prove_hang).  One
  // walk over the remainder's trace then settles activation.  Every
  // observable (result fields, trace, counters) equals single-stepping
  // the activation with the flip applied before step `at_step`, up to the
  // proof point of a proven hang (see RunResult); MachineTest's
  // single-step oracle and the digest pins hold it.
  RunResult result;
  const Injection* inj = opts.injection;
  const std::uint64_t budget = opts.max_steps;
  sim::StepInfo info =
      cpu_.run(inj != nullptr ? std::min(inj->at_step, budget) : budget);
  // run() raises Watchdog at budget exhaustion: short of the full
  // allowance, the prefix ended at the flip point.
  std::vector<Addr>* walked = nullptr;  // traces the faulted remainder
  std::size_t flip_index = 0;
  if (inj != nullptr && info.trap.kind == sim::TrapKind::Watchdog &&
      cpu_.steps_executed() < budget) {
    cpu_.flip_bit(inj->reg, inj->bit);
    result.injected = true;
    walked = opts.trace;
    if (walked == nullptr) {
      walked = &walk_trace_;
      walk_trace_.clear();
      cpu_.set_trace(walked);
    }
    flip_index = walked->size();
    info = sim::StepInfo{};  // Status::Ok: the run goes on
    while (info.status == sim::StepInfo::Status::Ok) {
      const std::uint64_t left = budget - cpu_.steps_executed();
      info = cpu_.run(std::min(left, kHangProofChunk));
      if (info.trap.kind == sim::TrapKind::Watchdog &&
          left > kHangProofChunk) {
        info = cpu_.prove_hang(left - kHangProofChunk, result.hang_proven);
      }
    }
  }

  const std::uint64_t executed = cpu_.steps_executed();
  if (info.status == sim::StepInfo::Status::Halted) {
    result.reached_vm_entry = true;
    result.steps = executed;
  } else {
    result.trap = info.trap;
    result.trap_step = executed;
    // An injection run stopped by the watchdog keeps steps = 0 while a
    // clean one reports the budget; flight frames (and so the blackbox
    // pin) record this field.
    if (inj == nullptr || info.trap.kind != sim::TrapKind::Watchdog) {
      result.steps = executed;
    }
  }

  if (walked != nullptr) {
    // The next fetch consumes a flipped rip.  Any other register is
    // activated by the first instruction after the flip that reads it
    // before one writes it; the trapping instruction is the run's last.
    const sim::Touch touch = sim::first_touch(
        mv_.program, std::span(*walked).subspan(flip_index), inj->reg);
    const sim::Instruction* last = trapping_instruction(result);
    if (inj->reg == Reg::rip || touch.kind == sim::Touch::Kind::Read) {
      result.activated = true;
      result.activation_step = inj->at_step + touch.index;
    } else if (touch.kind == sim::Touch::Kind::None && last != nullptr &&
               (sim::regs_read(*last) & sim::reg_bit(inj->reg)) != 0) {
      result.activated = true;
      result.activation_step = executed;
    }
  }

  result.counters = opts.arm_counters ? cpu_.counters().disarm()
                                      : sim::PerfSnapshot{};
  cpu_.set_trace(nullptr);

  if (tracing) span.arg("steps", result.steps);
  record_flight_frame(act, result);
  return result;
}

std::uint64_t Machine::executed_assertions(const std::vector<Addr>& trace,
                                           const RunResult& result) const {
  const sim::Program& program = mv_.program;
  std::uint64_t n = 0;
  for (const Addr a : trace) n += sim::is_assertion(program.at(a).op) ? 1 : 0;
  const sim::Instruction* last = trapping_instruction(result);
  if (last != nullptr && sim::is_assertion(last->op)) ++n;
  return n;
}

const sim::Instruction* Machine::trapping_instruction(
    const RunResult& result) const {
  if (result.reached_vm_entry ||
      result.trap.kind == sim::TrapKind::Watchdog) {
    return nullptr;
  }
  return mv_.program.fetch(cpu_.reg(Reg::rip));  // rip still points at it
}

void Machine::record_flight_frame(const Activation& act,
                                  const RunResult& result) const {
  if (telemetry_ == nullptr || telemetry_->flight == nullptr) return;
  obs::FlightFrame frame;
  frame.exit_code = act.reason.code();
  frame.steps = result.steps;
  frame.inst_retired = result.counters.inst_retired;
  frame.branches = result.counters.branches;
  frame.loads = result.counters.loads;
  frame.stores = result.counters.stores;
  frame.source = telemetry_->flight_source;
  frame.reached_vm_entry = result.reached_vm_entry;
  frame.trap_kind = static_cast<std::uint8_t>(result.trap.kind);
  frame.trap_aux = result.trap.aux;
  frame.trap_addr = result.trap.fault_addr;
  telemetry_->flight->append(frame);
}

Machine::Snapshot Machine::snapshot() const {
  Snapshot snap;
  snapshot_into(snap);
  return snap;
}

namespace {

/// Nanoseconds since an arbitrary epoch, for snapshot/restore timing.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Machine::snapshot_into(Snapshot& out) const {
  if (telemetry_ != nullptr && telemetry_->snapshot_ns != nullptr &&
      snapshot_calls_++ % kTimingSampleEvery == 0) {
    const std::uint64_t t0 = now_ns();
    mem_.snapshot_into(out.memory);
    out.tsc = cpu_.tsc();
    telemetry_->snapshot_ns->observe(now_ns() - t0);
    return;
  }
  mem_.snapshot_into(out.memory);
  out.tsc = cpu_.tsc();
}

void Machine::restore(const Snapshot& snap) {
  if (telemetry_ != nullptr && telemetry_->restore_ns != nullptr &&
      restore_calls_++ % kTimingSampleEvery == 0) {
    const std::uint64_t t0 = now_ns();
    mem_.restore(snap.memory);
    cpu_.set_tsc(snap.tsc);
    telemetry_->restore_ns->observe(now_ns() - t0);
    return;
  }
  mem_.restore(snap.memory);
  cpu_.set_tsc(snap.tsc);
}

std::vector<StateDiff> Machine::diff_persistent_state(const Machine& golden,
                                                      const Machine& faulty) {
  std::vector<StateDiff> diffs;
  const sim::Memory& gm = golden.memory();
  const sim::Memory& fm = faulty.memory();
  const auto& gr = gm.regions();
  const auto& fr = fm.regions();
  assert(gr.size() == fr.size());
  const int nd = golden.num_domains();
  const int nv = golden.num_vcpus() + 1;  // include the idle vcpu
  const int vpd = golden.mv_.options.vcpus_per_domain;
  for (std::size_t r = 0; r < gr.size(); ++r) {
    if (gr[r].name == "stack") continue;  // scratch, not persistent state
    for (std::size_t p = 0; p < gr[r].pages(); ++p) {
      // Pages neither machine wrote since the faulty one was synced to
      // the golden pre-state are provably equal; the rest pass a memcmp
      // gate before the word loop.
      if (fm.page_synced_with(gm, r, p)) continue;
      const Addr lo = static_cast<Addr>(p) << sim::Memory::kPageShift;
      const Addr n = gr[r].page_words(p);
      const Word* g = gr[r].data.data() + lo;
      const Word* f = fr[r].data.data() + lo;
      if (std::memcmp(g, f, n * sizeof(Word)) == 0) continue;
      for (Addr off = 0; off < n; ++off) {
        if (g[off] == f[off]) continue;
        StateDiff d;
        d.addr = gr[r].base + lo + off;
        d.golden = g[off];
        d.faulty = f[off];
        if (!L::classify_address(d.addr, nd, nv, d.cls, d.domain)) continue;
        if (d.domain <= -2) {
          // VCPU sentinel: translate the vcpu index to its domain.
          const int vcpu = -2 - d.domain;
          d.domain = vcpu >= golden.num_vcpus() ? 0 : vcpu / vpd;
        }
        diffs.push_back(d);
      }
    }
  }
  return diffs;
}

}  // namespace xentry::hv
