// Instruction set of the simulated machine.
//
// The ISA is deliberately small but covers everything the microvisor needs:
// register moves, ALU ops, loads/stores with base+displacement addressing,
// compare/test, conditional branches, call/ret with a real stack, and a few
// system instructions (rdtsc, hlt).  Software assertions are first-class
// opcodes so the runtime-detection technique of the paper (Section III-A,
// Listings 1 and 2) has a direct machine-level encoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace xentry::sim {

enum class Opcode : std::uint8_t {
  Nop = 0,

  // Data movement.
  MovRR,   ///< r1 = r2
  MovRI,   ///< r1 = imm
  Load,    ///< r1 = mem[r2 + imm]
  Store,   ///< mem[r1 + imm] = r2
  Push,    ///< mem[--rsp] = r1
  Pop,     ///< r1 = mem[rsp++]

  // ALU, register-register and register-immediate forms.  All update flags.
  AddRR, AddRI,
  SubRR, SubRI,
  MulRR,
  DivR,    ///< rax = rax / r1, rdx = rax % r1; #DE when r1 == 0
  AndRR, AndRI,
  OrRR,  OrRI,
  XorRR, XorRI,
  ShlRI, ShrRI,
  ShlRR, ShrRR,  ///< shift r1 by (r2 & 63)
  Neg,   Not,
  Inc,   Dec,

  // Flag-setting comparisons (do not write a destination).
  CmpRR, CmpRI,
  TestRR, TestRI,

  // Control flow.  Branch targets are absolute instruction addresses.
  Jmp,
  JmpR,    ///< indirect jump through r1
  Je, Jne, Jl, Jle, Jg, Jge, Jb, Jae,
  Call,    ///< push return address, jump to imm
  Ret,     ///< pop return address

  // System.
  Rdtsc,   ///< r1 = current timestamp counter (monotonic, advances per step)
  Hlt,     ///< end of hypervisor execution: the VM-entry gate

  // Software assertions (paper Section III-A).  On violation they raise
  // TrapKind::AssertFailed carrying the assertion id in Instruction::aux.
  AssertLeRI,  ///< assert r1 <= imm   (signed)
  AssertGeRI,  ///< assert r1 >= imm   (signed)
  AssertEqRI,  ///< assert r1 == imm
  AssertNeRI,  ///< assert r1 != imm
  AssertEqRR,  ///< assert r1 == r2
  AssertLtRR,  ///< assert r1 <  r2   (unsigned)

  // Explicitly invalid instruction; fetching one raises #UD.  Used to pad
  // gaps between handler bodies so a corrupted rip that lands inside the
  // code region but between functions faults realistically.
  Ud,
};

/// One decoded instruction.  Programs are stored pre-decoded; rip indexes
/// instruction slots directly (one slot per address unit).
struct Instruction {
  Opcode op = Opcode::Nop;
  Reg r1 = Reg::rax;
  Reg r2 = Reg::rax;
  std::int64_t imm = 0;
  std::uint32_t aux = 0;  ///< assertion id for Assert* opcodes
  /// Micro-architectural macro-op fusion hint, set by Program at assembly
  /// time (never by the Assembler): nonzero when this slot is a Cmp*/Test*
  /// whose immediate successor is a fusable conditional jump.  Not part of
  /// the architectural instruction encoding; occupies tail padding and is
  /// last so positional aggregate initialization stays unchanged.
  std::uint8_t fused = 0;
};

/// Static classification used by the performance counters.
constexpr bool is_branch(Opcode op) {
  switch (op) {
    case Opcode::Jmp: case Opcode::JmpR:
    case Opcode::Je: case Opcode::Jne:
    case Opcode::Jl: case Opcode::Jle:
    case Opcode::Jg: case Opcode::Jge:
    case Opcode::Jb: case Opcode::Jae:
    case Opcode::Call: case Opcode::Ret:
      return true;
    default:
      return false;
  }
}

/// Instructions whose execution performs a memory read.
constexpr bool is_mem_load(Opcode op) {
  return op == Opcode::Load || op == Opcode::Pop || op == Opcode::Ret;
}

/// Instructions whose execution performs a memory write.
constexpr bool is_mem_store(Opcode op) {
  return op == Opcode::Store || op == Opcode::Push || op == Opcode::Call;
}

/// Direct conditional branches: legal macro-op fusion tails.
constexpr bool is_cond_branch(Opcode op) {
  switch (op) {
    case Opcode::Je: case Opcode::Jne:
    case Opcode::Jl: case Opcode::Jle:
    case Opcode::Jg: case Opcode::Jge:
    case Opcode::Jb: case Opcode::Jae:
      return true;
    default:
      return false;
  }
}

/// Taken-condition of a direct conditional branch on a flags word: what
/// the fused run-loop dispatch and the hang prover evaluate.
constexpr bool cond_taken(Opcode jcc, Word f) {
  switch (jcc) {
    case Opcode::Je: return (f & kFlagZero) != 0;
    case Opcode::Jne: return (f & kFlagZero) == 0;
    case Opcode::Jl: return (f & kFlagSign) != 0;
    case Opcode::Jle: return (f & (kFlagSign | kFlagZero)) != 0;
    case Opcode::Jg: return (f & (kFlagSign | kFlagZero)) == 0;
    case Opcode::Jge: return (f & kFlagSign) == 0;
    case Opcode::Jb: return (f & kFlagCarry) != 0;
    default: return (f & kFlagCarry) == 0;  // Jae
  }
}

/// Flag-setting compare/test instructions: legal macro-op fusion heads.
/// They write only rflags and cannot trap, so a fused pair has exactly the
/// architectural effects of executing the two instructions back to back.
constexpr bool is_fusable_head(Opcode op) {
  switch (op) {
    case Opcode::CmpRR: case Opcode::CmpRI:
    case Opcode::TestRR: case Opcode::TestRI:
      return true;
    default:
      return false;
  }
}

constexpr bool is_assertion(Opcode op) {
  switch (op) {
    case Opcode::AssertLeRI: case Opcode::AssertGeRI:
    case Opcode::AssertEqRI: case Opcode::AssertNeRI:
    case Opcode::AssertEqRR: case Opcode::AssertLtRR:
      return true;
    default:
      return false;
  }
}

std::string_view opcode_name(Opcode op);

/// Human-readable rendering for traces and debugging.
std::string disassemble(const Instruction& insn);

constexpr std::uint32_t reg_bit(Reg r) {
  return 1u << static_cast<unsigned>(r);
}

/// Which architectural registers an instruction reads, as a bitmask indexed
/// by Reg.  Used by the fault injector to decide whether an injected flip
/// was *activated* (register read before being overwritten; first_touch).
constexpr std::uint32_t regs_read(const Instruction& insn) {
  constexpr std::uint32_t rflags_bit = reg_bit(Reg::rflags);
  constexpr std::uint32_t rsp_bit = reg_bit(Reg::rsp);
  switch (insn.op) {
    case Opcode::Nop: case Opcode::Hlt: case Opcode::Ud:
      return 0;
    case Opcode::MovRR:
      return reg_bit(insn.r2);
    case Opcode::MovRI:
      return 0;
    case Opcode::Load:
      return reg_bit(insn.r2);
    case Opcode::Store:
      return reg_bit(insn.r1) | reg_bit(insn.r2);
    case Opcode::Push:
      return reg_bit(insn.r1) | rsp_bit;
    case Opcode::Pop:
      return rsp_bit;
    case Opcode::AddRR: case Opcode::SubRR: case Opcode::MulRR:
    case Opcode::AndRR: case Opcode::OrRR: case Opcode::XorRR:
    case Opcode::ShlRR: case Opcode::ShrRR:
      // xor r, r is an idiom for zeroing: it does not depend on the old
      // value in any meaningful sense, but architecturally it reads both.
      return reg_bit(insn.r1) | reg_bit(insn.r2);
    case Opcode::AddRI: case Opcode::SubRI: case Opcode::AndRI:
    case Opcode::OrRI: case Opcode::XorRI: case Opcode::ShlRI:
    case Opcode::ShrRI: case Opcode::Neg: case Opcode::Not:
    case Opcode::Inc: case Opcode::Dec:
      return reg_bit(insn.r1);
    case Opcode::DivR:
      return reg_bit(insn.r1) | reg_bit(Reg::rax);
    case Opcode::CmpRR: case Opcode::TestRR:
      return reg_bit(insn.r1) | reg_bit(insn.r2);
    case Opcode::CmpRI: case Opcode::TestRI:
      return reg_bit(insn.r1);
    case Opcode::Jmp: case Opcode::Call:
      return insn.op == Opcode::Call ? rsp_bit : 0u;
    case Opcode::JmpR:
      return reg_bit(insn.r1);
    case Opcode::Je: case Opcode::Jne: case Opcode::Jl: case Opcode::Jle:
    case Opcode::Jg: case Opcode::Jge: case Opcode::Jb: case Opcode::Jae:
      return rflags_bit;
    case Opcode::Ret:
      return rsp_bit;
    case Opcode::Rdtsc:
      return 0;
    case Opcode::AssertLeRI: case Opcode::AssertGeRI:
    case Opcode::AssertEqRI: case Opcode::AssertNeRI:
      return reg_bit(insn.r1);
    case Opcode::AssertEqRR: case Opcode::AssertLtRR:
      return reg_bit(insn.r1) | reg_bit(insn.r2);
  }
  return 0;
}

/// Which architectural registers an instruction writes, as a bitmask.
constexpr std::uint32_t regs_written(const Instruction& insn) {
  constexpr std::uint32_t rflags_bit = reg_bit(Reg::rflags);
  constexpr std::uint32_t rsp_bit = reg_bit(Reg::rsp);
  switch (insn.op) {
    case Opcode::Nop: case Opcode::Hlt: case Opcode::Ud:
    case Opcode::Store:
      return 0;
    case Opcode::MovRR: case Opcode::MovRI: case Opcode::Load:
    case Opcode::Rdtsc:
      return reg_bit(insn.r1);
    case Opcode::Push:
      return rsp_bit;
    case Opcode::Pop:
      return reg_bit(insn.r1) | rsp_bit;
    case Opcode::AddRR: case Opcode::AddRI: case Opcode::SubRR:
    case Opcode::SubRI: case Opcode::MulRR: case Opcode::AndRR:
    case Opcode::AndRI: case Opcode::OrRR: case Opcode::OrRI:
    case Opcode::XorRR: case Opcode::XorRI: case Opcode::ShlRI:
    case Opcode::ShrRI: case Opcode::ShlRR: case Opcode::ShrRR:
    case Opcode::Neg: case Opcode::Not:
    case Opcode::Inc: case Opcode::Dec:
      return reg_bit(insn.r1) | rflags_bit;
    case Opcode::DivR:
      return reg_bit(Reg::rax) | reg_bit(Reg::rdx) | rflags_bit;
    case Opcode::CmpRR: case Opcode::CmpRI: case Opcode::TestRR:
    case Opcode::TestRI:
      return rflags_bit;
    case Opcode::Jmp: case Opcode::JmpR: case Opcode::Je: case Opcode::Jne:
    case Opcode::Jl: case Opcode::Jle: case Opcode::Jg: case Opcode::Jge:
    case Opcode::Jb: case Opcode::Jae:
      return 0;  // rip handled separately by the CPU
    case Opcode::Call:
      return rsp_bit;
    case Opcode::Ret:
      return rsp_bit;
    case Opcode::AssertLeRI: case Opcode::AssertGeRI:
    case Opcode::AssertEqRI: case Opcode::AssertNeRI:
    case Opcode::AssertEqRR: case Opcode::AssertLtRR:
      return 0;
  }
  return 0;
}

class Program;

/// The first instruction of an executed trace that touches one register.
struct Touch {
  enum class Kind : std::uint8_t { None, Read, Written };
  Kind kind = Kind::None;
  std::size_t index = 0;  ///< its position in the trace; 0 when None
};

/// Walks `rips` (retired instructions of `program`, in order) to the first
/// one whose static read or write set (regs_read, regs_written) names
/// `reg`.  A read wins when one instruction does both.  This is the one
/// activation rule (paper Section V-B: a flipped register is activated
/// only if it is read before it is overwritten), applied to a golden
/// trace to skip a faulted run and to a faulted run's own trace.
Touch first_touch(const Program& program, std::span<const Addr> rips, Reg reg);

}  // namespace xentry::sim
