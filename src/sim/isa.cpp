#include "sim/isa.hpp"

#include <sstream>

#include "sim/program.hpp"

namespace xentry::sim {

std::string_view opcode_name(Opcode op) {
  switch (op) {
    case Opcode::Nop: return "nop";
    case Opcode::MovRR: return "mov";
    case Opcode::MovRI: return "mov";
    case Opcode::Load: return "load";
    case Opcode::Store: return "store";
    case Opcode::Push: return "push";
    case Opcode::Pop: return "pop";
    case Opcode::AddRR: case Opcode::AddRI: return "add";
    case Opcode::SubRR: case Opcode::SubRI: return "sub";
    case Opcode::MulRR: return "mul";
    case Opcode::DivR: return "div";
    case Opcode::AndRR: case Opcode::AndRI: return "and";
    case Opcode::OrRR: case Opcode::OrRI: return "or";
    case Opcode::XorRR: case Opcode::XorRI: return "xor";
    case Opcode::ShlRI: case Opcode::ShlRR: return "shl";
    case Opcode::ShrRI: case Opcode::ShrRR: return "shr";
    case Opcode::Neg: return "neg";
    case Opcode::Not: return "not";
    case Opcode::Inc: return "inc";
    case Opcode::Dec: return "dec";
    case Opcode::CmpRR: case Opcode::CmpRI: return "cmp";
    case Opcode::TestRR: case Opcode::TestRI: return "test";
    case Opcode::Jmp: return "jmp";
    case Opcode::JmpR: return "jmp*";
    case Opcode::Je: return "je";
    case Opcode::Jne: return "jne";
    case Opcode::Jl: return "jl";
    case Opcode::Jle: return "jle";
    case Opcode::Jg: return "jg";
    case Opcode::Jge: return "jge";
    case Opcode::Jb: return "jb";
    case Opcode::Jae: return "jae";
    case Opcode::Call: return "call";
    case Opcode::Ret: return "ret";
    case Opcode::Rdtsc: return "rdtsc";
    case Opcode::Hlt: return "hlt";
    case Opcode::AssertLeRI: return "assert_le";
    case Opcode::AssertGeRI: return "assert_ge";
    case Opcode::AssertEqRI: return "assert_eq";
    case Opcode::AssertNeRI: return "assert_ne";
    case Opcode::AssertEqRR: return "assert_eq";
    case Opcode::AssertLtRR: return "assert_lt";
    case Opcode::Ud: return "ud2";
  }
  return "?";
}

namespace {

enum class Form { None, R, RR, RI, RRI, I, RIAux };

Form form_of(Opcode op) {
  switch (op) {
    case Opcode::Nop: case Opcode::Hlt: case Opcode::Ud: case Opcode::Ret:
      return Form::None;
    case Opcode::MovRR: case Opcode::AddRR: case Opcode::SubRR:
    case Opcode::MulRR: case Opcode::AndRR: case Opcode::OrRR:
    case Opcode::XorRR: case Opcode::CmpRR: case Opcode::TestRR:
    case Opcode::ShlRR: case Opcode::ShrRR:
    case Opcode::AssertEqRR: case Opcode::AssertLtRR:
      return Form::RR;
    case Opcode::MovRI: case Opcode::AddRI: case Opcode::SubRI:
    case Opcode::AndRI: case Opcode::OrRI: case Opcode::XorRI:
    case Opcode::ShlRI: case Opcode::ShrRI: case Opcode::CmpRI:
    case Opcode::TestRI:
      return Form::RI;
    case Opcode::AssertLeRI: case Opcode::AssertGeRI:
    case Opcode::AssertEqRI: case Opcode::AssertNeRI:
      return Form::RIAux;
    case Opcode::Load: case Opcode::Store:
      return Form::RRI;
    case Opcode::Push: case Opcode::Pop: case Opcode::DivR:
    case Opcode::Neg: case Opcode::Not: case Opcode::Inc: case Opcode::Dec:
    case Opcode::JmpR: case Opcode::Rdtsc:
      return Form::R;
    case Opcode::Jmp: case Opcode::Je: case Opcode::Jne: case Opcode::Jl:
    case Opcode::Jle: case Opcode::Jg: case Opcode::Jge: case Opcode::Jb:
    case Opcode::Jae: case Opcode::Call:
      return Form::I;
  }
  return Form::None;
}

}  // namespace

std::string disassemble(const Instruction& insn) {
  std::ostringstream os;
  os << opcode_name(insn.op);
  switch (form_of(insn.op)) {
    case Form::None:
      break;
    case Form::R:
      os << ' ' << reg_name(insn.r1);
      break;
    case Form::RR:
      os << ' ' << reg_name(insn.r1) << ", " << reg_name(insn.r2);
      break;
    case Form::RI:
      os << ' ' << reg_name(insn.r1) << ", " << insn.imm;
      break;
    case Form::RIAux:
      os << ' ' << reg_name(insn.r1) << ", " << insn.imm << "  ; id="
         << insn.aux;
      break;
    case Form::RRI:
      if (insn.op == Opcode::Load) {
        os << ' ' << reg_name(insn.r1) << ", [" << reg_name(insn.r2);
        if (insn.imm != 0) os << (insn.imm > 0 ? "+" : "") << insn.imm;
        os << ']';
      } else {
        os << " [" << reg_name(insn.r1);
        if (insn.imm != 0) os << (insn.imm > 0 ? "+" : "") << insn.imm;
        os << "], " << reg_name(insn.r2);
      }
      break;
    case Form::I:
      os << " 0x" << std::hex << insn.imm;
      break;
  }
  return os.str();
}

Touch first_touch(const Program& program, std::span<const Addr> rips,
                  Reg reg) {
  const std::uint32_t bit = reg_bit(reg);
  for (std::size_t i = 0; i < rips.size(); ++i) {
    const Instruction& insn = program.at(rips[i]);
    if (regs_read(insn) & bit) return {Touch::Kind::Read, i};
    if (regs_written(insn) & bit) return {Touch::Kind::Written, i};
  }
  return {};
}

}  // namespace xentry::sim
