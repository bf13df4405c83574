#include "sim/cpu.hpp"

namespace xentry::sim {

void Cpu::reset(Addr rip, Addr rsp) {
  regs_.fill(0);
  set_reg(Reg::rip, rip);
  set_reg(Reg::rsp, rsp);
  steps_ = 0;
}

void Cpu::set_flags_cmp(Word a, Word b) {
  Word f = 0;
  if (a == b) f |= kFlagZero;
  if (static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b)) {
    f |= kFlagSign;
  }
  if (a < b) f |= kFlagCarry;
  set_reg(Reg::rflags, f);
}

void Cpu::set_flags_result(Word res) {
  Word f = 0;
  if (res == 0) f |= kFlagZero;
  if (static_cast<std::int64_t>(res) < 0) f |= kFlagSign;
  set_reg(Reg::rflags, f);
}

StepInfo Cpu::step() {
  StepInfo info;
  const Addr rip = reg(Reg::rip);
  info.rip_before = rip;

  const Instruction* fetched = prog_->fetch(rip);
  if (fetched == nullptr) {
    info.status = StepInfo::Status::Trapped;
    info.trap = Trap{TrapKind::PageFault, rip, 0};
    return info;
  }
  const Instruction& insn = *fetched;
  if (insn.op == Opcode::Ud) {
    info.status = StepInfo::Status::Trapped;
    info.trap = Trap{TrapKind::InvalidOpcode, rip, 0};
    return info;
  }

  // Retire bookkeeping happens for every instruction that begins executing;
  // a mid-instruction memory fault still counts as issued work for the
  // trace, but a trapped instruction does not retire.
  Addr next_rip = rip + 1;
  Trap trap;

  auto mem_read = [&](Addr a, Word& out) { trap = mem_->read(a, out); };
  auto mem_write = [&](Addr a, Word v) { trap = mem_->write(a, v); };

  switch (insn.op) {
    case Opcode::Nop:
      break;
    case Opcode::MovRR:
      set_reg(insn.r1, reg(insn.r2));
      break;
    case Opcode::MovRI:
      set_reg(insn.r1, static_cast<Word>(insn.imm));
      break;
    case Opcode::Load: {
      Word v = 0;
      mem_read(reg(insn.r2) + static_cast<Word>(insn.imm), v);
      if (!trap) set_reg(insn.r1, v);
      break;
    }
    case Opcode::Store:
      mem_write(reg(insn.r1) + static_cast<Word>(insn.imm), reg(insn.r2));
      break;
    case Opcode::Push: {
      const Word sp = reg(Reg::rsp) - 1;
      mem_write(sp, reg(insn.r1));
      if (!trap) {
        set_reg(Reg::rsp, sp);
        if (shadow_enabled_) {
          // The mirror stores the complement so a stale/never-pushed slot
          // pair (0, 0) cannot masquerade as consistent.
          trap = mem_->write(sp + static_cast<Word>(shadow_offset_),
                             ~reg(insn.r1));
        }
      } else {
        trap.kind = TrapKind::StackFault;
      }
      break;
    }
    case Opcode::Pop: {
      Word v = 0;
      mem_read(reg(Reg::rsp), v);
      if (!trap && shadow_enabled_) {
        Word mirror = 0;
        trap = mem_->read(reg(Reg::rsp) + static_cast<Word>(shadow_offset_),
                          mirror);
        if (!trap && mirror != ~v) {
          trap = Trap{TrapKind::StackCheck, reg(Reg::rsp), 0};
        }
      }
      if (!trap) {
        set_reg(Reg::rsp, reg(Reg::rsp) + 1);
        set_reg(insn.r1, v);
      } else if (trap.kind != TrapKind::StackCheck) {
        trap.kind = TrapKind::StackFault;
      }
      break;
    }
    case Opcode::AddRR: {
      const Word res = reg(insn.r1) + reg(insn.r2);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::AddRI: {
      const Word res = reg(insn.r1) + static_cast<Word>(insn.imm);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::SubRR: {
      const Word a = reg(insn.r1), b = reg(insn.r2);
      set_flags_cmp(a, b);
      set_reg(insn.r1, a - b);
      break;
    }
    case Opcode::SubRI: {
      const Word a = reg(insn.r1), b = static_cast<Word>(insn.imm);
      set_flags_cmp(a, b);
      set_reg(insn.r1, a - b);
      break;
    }
    case Opcode::MulRR: {
      const Word res = reg(insn.r1) * reg(insn.r2);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::DivR: {
      const Word d = reg(insn.r1);
      if (d == 0) {
        trap = Trap{TrapKind::DivideError, rip, 0};
      } else {
        const Word a = reg(Reg::rax);
        set_reg(Reg::rax, a / d);
        set_reg(Reg::rdx, a % d);
        set_flags_result(a / d);
      }
      break;
    }
    case Opcode::AndRR: {
      const Word res = reg(insn.r1) & reg(insn.r2);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::AndRI: {
      const Word res = reg(insn.r1) & static_cast<Word>(insn.imm);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::OrRR: {
      const Word res = reg(insn.r1) | reg(insn.r2);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::OrRI: {
      const Word res = reg(insn.r1) | static_cast<Word>(insn.imm);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::XorRR: {
      const Word res = reg(insn.r1) ^ reg(insn.r2);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::XorRI: {
      const Word res = reg(insn.r1) ^ static_cast<Word>(insn.imm);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::ShlRI: {
      const Word res = reg(insn.r1) << (insn.imm & 63);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::ShrRI: {
      const Word res = reg(insn.r1) >> (insn.imm & 63);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::ShlRR: {
      const Word res = reg(insn.r1) << (reg(insn.r2) & 63);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::ShrRR: {
      const Word res = reg(insn.r1) >> (reg(insn.r2) & 63);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::Neg: {
      const Word res = 0 - reg(insn.r1);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::Not: {
      const Word res = ~reg(insn.r1);
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::Inc: {
      const Word res = reg(insn.r1) + 1;
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::Dec: {
      const Word res = reg(insn.r1) - 1;
      set_flags_result(res);
      set_reg(insn.r1, res);
      break;
    }
    case Opcode::CmpRR:
      set_flags_cmp(reg(insn.r1), reg(insn.r2));
      break;
    case Opcode::CmpRI:
      set_flags_cmp(reg(insn.r1), static_cast<Word>(insn.imm));
      break;
    case Opcode::TestRR:
      set_flags_result(reg(insn.r1) & reg(insn.r2));
      break;
    case Opcode::TestRI:
      set_flags_result(reg(insn.r1) & static_cast<Word>(insn.imm));
      break;
    case Opcode::Jmp:
      next_rip = static_cast<Addr>(insn.imm);
      break;
    case Opcode::JmpR:
      next_rip = reg(insn.r1);
      break;
    case Opcode::Je:
      if (flag(kFlagZero)) next_rip = static_cast<Addr>(insn.imm);
      break;
    case Opcode::Jne:
      if (!flag(kFlagZero)) next_rip = static_cast<Addr>(insn.imm);
      break;
    case Opcode::Jl:
      if (flag(kFlagSign)) next_rip = static_cast<Addr>(insn.imm);
      break;
    case Opcode::Jle:
      if (flag(kFlagSign) || flag(kFlagZero)) {
        next_rip = static_cast<Addr>(insn.imm);
      }
      break;
    case Opcode::Jg:
      if (!flag(kFlagSign) && !flag(kFlagZero)) {
        next_rip = static_cast<Addr>(insn.imm);
      }
      break;
    case Opcode::Jge:
      if (!flag(kFlagSign)) next_rip = static_cast<Addr>(insn.imm);
      break;
    case Opcode::Jb:
      if (flag(kFlagCarry)) next_rip = static_cast<Addr>(insn.imm);
      break;
    case Opcode::Jae:
      if (!flag(kFlagCarry)) next_rip = static_cast<Addr>(insn.imm);
      break;
    case Opcode::Call: {
      const Word sp = reg(Reg::rsp) - 1;
      mem_write(sp, rip + 1);
      if (!trap) {
        set_reg(Reg::rsp, sp);
        next_rip = static_cast<Addr>(insn.imm);
        if (shadow_enabled_) {
          trap = mem_->write(sp + static_cast<Word>(shadow_offset_),
                             ~(rip + 1));
        }
      } else {
        trap.kind = TrapKind::StackFault;
      }
      break;
    }
    case Opcode::Ret: {
      Word ra = 0;
      mem_read(reg(Reg::rsp), ra);
      if (!trap && shadow_enabled_) {
        Word mirror = 0;
        trap = mem_->read(reg(Reg::rsp) + static_cast<Word>(shadow_offset_),
                          mirror);
        if (!trap && mirror != ~ra) {
          trap = Trap{TrapKind::StackCheck, reg(Reg::rsp), 0};
        }
      }
      if (!trap) {
        set_reg(Reg::rsp, reg(Reg::rsp) + 1);
        next_rip = ra;
      } else if (trap.kind != TrapKind::StackCheck) {
        trap.kind = TrapKind::StackFault;
      }
      break;
    }
    case Opcode::Rdtsc:
      set_reg(insn.r1, tsc_);
      break;
    case Opcode::Hlt:
      info.status = StepInfo::Status::Halted;
      break;
    case Opcode::AssertLeRI:
      if (static_cast<std::int64_t>(reg(insn.r1)) > insn.imm) {
        trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
      }
      break;
    case Opcode::AssertGeRI:
      if (static_cast<std::int64_t>(reg(insn.r1)) < insn.imm) {
        trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
      }
      break;
    case Opcode::AssertEqRI:
      if (reg(insn.r1) != static_cast<Word>(insn.imm)) {
        trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
      }
      break;
    case Opcode::AssertNeRI:
      if (reg(insn.r1) == static_cast<Word>(insn.imm)) {
        trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
      }
      break;
    case Opcode::AssertEqRR:
      if (reg(insn.r1) != reg(insn.r2)) {
        trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
      }
      break;
    case Opcode::AssertLtRR:
      if (reg(insn.r1) >= reg(insn.r2)) {
        trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
      }
      break;
    case Opcode::Ud:
      // handled at fetch
      break;
  }

  if (trap) {
    info.status = StepInfo::Status::Trapped;
    info.trap = trap;
    return info;
  }
  if (info.status == StepInfo::Status::Halted) {
    // hlt is the VM-entry gate; it does not retire as hypervisor work.
    return info;
  }

  // The instruction retired: advance rip, counters, TSC, trace.
  set_reg(Reg::rip, next_rip);
  counters_.on_retire(is_branch(insn.op), is_mem_load(insn.op),
                      is_mem_store(insn.op));
  tsc_ += kTscPerStep;
  ++steps_;
  if (trace_ != nullptr) trace_->push_back(rip);
  return info;
}

StepInfo Cpu::run_reference(std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    StepInfo info = step();
    if (info.status != StepInfo::Status::Ok) return info;
  }
  return watchdog();
}

StepInfo Cpu::watchdog() const {
  StepInfo info;
  info.status = StepInfo::Status::Trapped;
  info.trap = Trap{TrapKind::Watchdog, reg(Reg::rip), 0};
  info.rip_before = reg(Reg::rip);
  return info;
}

namespace {

/// is_branch | is_mem_load << 1 | is_mem_store << 2 per opcode byte: the
/// run loop's retire classification in one table load instead of three
/// opcode tests per step (≈9% of a clean run's engine time).
constexpr auto kRetireClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (std::size_t op = 0; op <= static_cast<std::size_t>(Opcode::Ud); ++op) {
    const Opcode o = static_cast<Opcode>(op);
    t[op] = static_cast<std::uint8_t>((is_branch(o) ? 1 : 0) |
                                      (is_mem_load(o) ? 2 : 0) |
                                      (is_mem_store(o) ? 4 : 0));
  }
  return t;
}();

}  // namespace

template <bool Trace, bool Shadow>
StepInfo Cpu::run_loop(std::uint64_t max_steps) {
  Memory& mem = *mem_;
  std::vector<Addr>* const trace = trace_;
  // Hoisted: stores to regs_ could alias the Program's members, so the
  // compiler would otherwise reload them on every step.
  const Instruction* const code = prog_->slots();
  const Addr code_base = prog_->base();
  const Addr code_size = prog_->size();
  Memory::Hint* const hints = hints_.data();

  // Retire bookkeeping accumulates in locals and is flushed exactly once
  // at loop exit; rip and rflags stay in the register array because
  // instructions may name them as ordinary operands.
  Word tsc = tsc_;
  std::uint64_t executed = 0;
  std::uint64_t branches = 0, loads = 0, stores = 0;
  const auto flush = [&] {
    tsc_ = tsc;
    steps_ += executed;
    counters_.retire_block(executed, branches, loads, stores);
  };

  StepInfo info;
  while (executed < max_steps) {
    const Addr rip = reg(Reg::rip);
    const Addr slot = rip - code_base;
    if (slot >= code_size) {
      flush();
      info.status = StepInfo::Status::Trapped;
      info.trap = Trap{TrapKind::PageFault, rip, 0};
      info.rip_before = rip;
      return info;
    }
    const Instruction& insn = code[slot];
    if (insn.op == Opcode::Ud) {
      flush();
      info.status = StepInfo::Status::Trapped;
      info.trap = Trap{TrapKind::InvalidOpcode, rip, 0};
      info.rip_before = rip;
      return info;
    }

    // Macro-op fusion: a Cmp*/Test* head whose successor Jcc is not a
    // control-flow landing point executes as one dispatch but retires as
    // two instructions (two trace entries, two counter retires, same
    // rflags effects).  Never fuse across the watchdog boundary.
    if (insn.fused && executed + 2 <= max_steps) {
      switch (insn.op) {
        case Opcode::CmpRR:
          set_flags_cmp(reg(insn.r1), reg(insn.r2));
          break;
        case Opcode::CmpRI:
          set_flags_cmp(reg(insn.r1), static_cast<Word>(insn.imm));
          break;
        case Opcode::TestRR:
          set_flags_result(reg(insn.r1) & reg(insn.r2));
          break;
        default:  // TestRI: the only remaining fusable head
          set_flags_result(reg(insn.r1) & static_cast<Word>(insn.imm));
          break;
      }
      // The fused flag guarantees the successor slot exists and is the Jcc.
      const Instruction& jcc = code[slot + 1];
      const Addr jrip = rip + 1;
      const Addr next = cond_taken(jcc.op, reg(Reg::rflags))
                            ? static_cast<Addr>(jcc.imm)
                            : jrip + 1;
      set_reg(Reg::rip, next);
      executed += 2;
      branches += 1;  // the head is not a branch; the tail is
      tsc += 2 * kTscPerStep;
      if constexpr (Trace) {
        trace->push_back(rip);
        trace->push_back(jrip);
      }
      continue;
    }

    Addr next_rip = rip + 1;
    Trap trap;

    switch (insn.op) {
      case Opcode::Nop:
        break;
      case Opcode::MovRR:
        set_reg(insn.r1, reg(insn.r2));
        break;
      case Opcode::MovRI:
        set_reg(insn.r1, static_cast<Word>(insn.imm));
        break;
      case Opcode::Load: {
        Word v = 0;
        trap = mem.read(reg(insn.r2) + static_cast<Word>(insn.imm), v,
                        hints[slot]);
        if (!trap) set_reg(insn.r1, v);
        break;
      }
      case Opcode::Store:
        trap = mem.write(reg(insn.r1) + static_cast<Word>(insn.imm),
                         reg(insn.r2), hints[slot]);
        break;
      case Opcode::Push: {
        const Word sp = reg(Reg::rsp) - 1;
        trap = mem.write(sp, reg(insn.r1), hints[slot]);
        if (!trap) {
          set_reg(Reg::rsp, sp);
          if constexpr (Shadow) {
            // The mirror stores the complement so a stale/never-pushed
            // slot pair (0, 0) cannot masquerade as consistent.
            trap = mem.write(sp + static_cast<Word>(shadow_offset_),
                             ~reg(insn.r1));
          }
        } else {
          trap.kind = TrapKind::StackFault;
        }
        break;
      }
      case Opcode::Pop: {
        Word v = 0;
        trap = mem.read(reg(Reg::rsp), v, hints[slot]);
        if constexpr (Shadow) {
          if (!trap) {
            Word mirror = 0;
            trap = mem.read(reg(Reg::rsp) + static_cast<Word>(shadow_offset_),
                            mirror);
            if (!trap && mirror != ~v) {
              trap = Trap{TrapKind::StackCheck, reg(Reg::rsp), 0};
            }
          }
        }
        if (!trap) {
          set_reg(Reg::rsp, reg(Reg::rsp) + 1);
          set_reg(insn.r1, v);
        } else if (trap.kind != TrapKind::StackCheck) {
          trap.kind = TrapKind::StackFault;
        }
        break;
      }
      case Opcode::AddRR: {
        const Word res = reg(insn.r1) + reg(insn.r2);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::AddRI: {
        const Word res = reg(insn.r1) + static_cast<Word>(insn.imm);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::SubRR: {
        const Word a = reg(insn.r1), b = reg(insn.r2);
        set_flags_cmp(a, b);
        set_reg(insn.r1, a - b);
        break;
      }
      case Opcode::SubRI: {
        const Word a = reg(insn.r1), b = static_cast<Word>(insn.imm);
        set_flags_cmp(a, b);
        set_reg(insn.r1, a - b);
        break;
      }
      case Opcode::MulRR: {
        const Word res = reg(insn.r1) * reg(insn.r2);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::DivR: {
        const Word d = reg(insn.r1);
        if (d == 0) {
          trap = Trap{TrapKind::DivideError, rip, 0};
        } else {
          const Word a = reg(Reg::rax);
          set_reg(Reg::rax, a / d);
          set_reg(Reg::rdx, a % d);
          set_flags_result(a / d);
        }
        break;
      }
      case Opcode::AndRR: {
        const Word res = reg(insn.r1) & reg(insn.r2);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::AndRI: {
        const Word res = reg(insn.r1) & static_cast<Word>(insn.imm);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::OrRR: {
        const Word res = reg(insn.r1) | reg(insn.r2);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::OrRI: {
        const Word res = reg(insn.r1) | static_cast<Word>(insn.imm);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::XorRR: {
        const Word res = reg(insn.r1) ^ reg(insn.r2);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::XorRI: {
        const Word res = reg(insn.r1) ^ static_cast<Word>(insn.imm);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::ShlRI: {
        const Word res = reg(insn.r1) << (insn.imm & 63);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::ShrRI: {
        const Word res = reg(insn.r1) >> (insn.imm & 63);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::ShlRR: {
        const Word res = reg(insn.r1) << (reg(insn.r2) & 63);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::ShrRR: {
        const Word res = reg(insn.r1) >> (reg(insn.r2) & 63);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::Neg: {
        const Word res = 0 - reg(insn.r1);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::Not: {
        const Word res = ~reg(insn.r1);
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::Inc: {
        const Word res = reg(insn.r1) + 1;
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::Dec: {
        const Word res = reg(insn.r1) - 1;
        set_flags_result(res);
        set_reg(insn.r1, res);
        break;
      }
      case Opcode::CmpRR:
        set_flags_cmp(reg(insn.r1), reg(insn.r2));
        break;
      case Opcode::CmpRI:
        set_flags_cmp(reg(insn.r1), static_cast<Word>(insn.imm));
        break;
      case Opcode::TestRR:
        set_flags_result(reg(insn.r1) & reg(insn.r2));
        break;
      case Opcode::TestRI:
        set_flags_result(reg(insn.r1) & static_cast<Word>(insn.imm));
        break;
      case Opcode::Jmp:
        next_rip = static_cast<Addr>(insn.imm);
        break;
      case Opcode::JmpR:
        next_rip = reg(insn.r1);
        break;
      case Opcode::Je:
        if (flag(kFlagZero)) next_rip = static_cast<Addr>(insn.imm);
        break;
      case Opcode::Jne:
        if (!flag(kFlagZero)) next_rip = static_cast<Addr>(insn.imm);
        break;
      case Opcode::Jl:
        if (flag(kFlagSign)) next_rip = static_cast<Addr>(insn.imm);
        break;
      case Opcode::Jle:
        if (flag(kFlagSign) || flag(kFlagZero)) {
          next_rip = static_cast<Addr>(insn.imm);
        }
        break;
      case Opcode::Jg:
        if (!flag(kFlagSign) && !flag(kFlagZero)) {
          next_rip = static_cast<Addr>(insn.imm);
        }
        break;
      case Opcode::Jge:
        if (!flag(kFlagSign)) next_rip = static_cast<Addr>(insn.imm);
        break;
      case Opcode::Jb:
        if (flag(kFlagCarry)) next_rip = static_cast<Addr>(insn.imm);
        break;
      case Opcode::Jae:
        if (!flag(kFlagCarry)) next_rip = static_cast<Addr>(insn.imm);
        break;
      case Opcode::Call: {
        const Word sp = reg(Reg::rsp) - 1;
        trap = mem.write(sp, rip + 1, hints[slot]);
        if (!trap) {
          set_reg(Reg::rsp, sp);
          next_rip = static_cast<Addr>(insn.imm);
          if constexpr (Shadow) {
            trap = mem.write(sp + static_cast<Word>(shadow_offset_),
                             ~(rip + 1));
          }
        } else {
          trap.kind = TrapKind::StackFault;
        }
        break;
      }
      case Opcode::Ret: {
        Word ra = 0;
        trap = mem.read(reg(Reg::rsp), ra, hints[slot]);
        if constexpr (Shadow) {
          if (!trap) {
            Word mirror = 0;
            trap = mem.read(reg(Reg::rsp) + static_cast<Word>(shadow_offset_),
                            mirror);
            if (!trap && mirror != ~ra) {
              trap = Trap{TrapKind::StackCheck, reg(Reg::rsp), 0};
            }
          }
        }
        if (!trap) {
          set_reg(Reg::rsp, reg(Reg::rsp) + 1);
          next_rip = ra;
        } else if (trap.kind != TrapKind::StackCheck) {
          trap.kind = TrapKind::StackFault;
        }
        break;
      }
      case Opcode::Rdtsc:
        set_reg(insn.r1, tsc);
        break;
      case Opcode::Hlt:
        info.status = StepInfo::Status::Halted;
        break;
      case Opcode::AssertLeRI:
        if (static_cast<std::int64_t>(reg(insn.r1)) > insn.imm) {
          trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
        }
        break;
      case Opcode::AssertGeRI:
        if (static_cast<std::int64_t>(reg(insn.r1)) < insn.imm) {
          trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
        }
        break;
      case Opcode::AssertEqRI:
        if (reg(insn.r1) != static_cast<Word>(insn.imm)) {
          trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
        }
        break;
      case Opcode::AssertNeRI:
        if (reg(insn.r1) == static_cast<Word>(insn.imm)) {
          trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
        }
        break;
      case Opcode::AssertEqRR:
        if (reg(insn.r1) != reg(insn.r2)) {
          trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
        }
        break;
      case Opcode::AssertLtRR:
        if (reg(insn.r1) >= reg(insn.r2)) {
          trap = Trap{TrapKind::AssertFailed, rip, insn.aux};
        }
        break;
      case Opcode::Ud:
        // handled at fetch
        break;
    }

    if (trap || info.status == StepInfo::Status::Halted) {
      // A trapped or halting instruction does not retire: flush what did.
      flush();
      if (trap) {
        info.status = StepInfo::Status::Trapped;
        info.trap = trap;
      }
      info.rip_before = rip;
      return info;
    }

    set_reg(Reg::rip, next_rip);
    ++executed;
    const unsigned cls = kRetireClass[static_cast<std::size_t>(insn.op)];
    branches += cls & 1u;
    loads += (cls >> 1) & 1u;
    stores += cls >> 2;
    tsc += kTscPerStep;
    if constexpr (Trace) trace->push_back(rip);
  }

  flush();
  return watchdog();
}

std::size_t diff_regs(const Cpu& a, const Cpu& b, std::vector<RegDiff>& out) {
  out.clear();
  for (int r = 0; r < kNumArchRegs; ++r) {
    const Word x = a.regs()[static_cast<std::size_t>(r)] ^
                   b.regs()[static_cast<std::size_t>(r)];
    if (x != 0) out.push_back(RegDiff{static_cast<Reg>(r), x});
  }
  return out.size();
}

StepInfo Cpu::run(std::uint64_t max_steps) {
  if (engine_ == EngineKind::Reference) return run_reference(max_steps);
  if (hints_.size() != prog_->size()) {
    hints_.assign(prog_->size(), Memory::kNoHint);
  }
  switch ((trace_ != nullptr ? 1u : 0u) | (shadow_enabled_ ? 2u : 0u)) {
    case 0: return run_loop<false, false>(max_steps);
    case 1: return run_loop<true, false>(max_steps);
    case 2: return run_loop<false, true>(max_steps);
    default: return run_loop<true, true>(max_steps);
  }
}

}  // namespace xentry::sim
