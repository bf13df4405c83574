// A fully assembled code image.
//
// Instructions are pre-decoded and live in a dedicated code address range
// [base, base + code.size()); rip values index instruction slots directly.
// A rip outside the range faults with #PF (instruction fetch from unmapped
// memory); a rip landing on a Ud padding slot faults with #UD.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/isa.hpp"
#include "sim/types.hpp"

namespace xentry::sim {

/// Conservative static landing set of a program: one flag per instruction
/// slot, true when control flow can enter that slot without falling
/// through from the previous one.  Covers direct branch/call targets,
/// named symbols (dispatch entries), call return sites, and any MovRI
/// immediate that lands in the code image (material for indirect jumps
/// through a register and for manually pushed return addresses).
///
/// This is the single source of truth for "where can control arrive":
/// Program::compute_fusion consumes it (a pair whose Jcc slot is a
/// landing point must not fuse), the analysis subsystem's CFG builder
/// consumes it (every landing point is a basic-block leader), so the
/// fuser and the CFG-based analyses can never disagree about landing
/// legality.  Computed once at assembly time and cached on
/// the Program (Program::landing_sites); this free function returns the
/// cached vector.
const std::vector<bool>& compute_landing_sites(const class Program& program);

/// FNV-1a accumulation of one instruction's architectural text (op,
/// operands, immediate, aux — not the fused hint, which is derived).
/// Shared by program_text_signature and the analysis CFG's per-block
/// signatures so all layers key caches off the same hash.
std::uint64_t instruction_fnv(std::uint64_t h, const Instruction& insn);

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// FNV-1a signature of a program's load address + full architectural
/// text.  This is the staleness key of the analysis artifacts
/// (analysis::program_signature delegates here).
std::uint64_t program_text_signature(const class Program& program);

/// Macro-op fusion metadata for one instruction slot, computed once at
/// assembly time.  When `fused` is set, the slot holds a Cmp*/Test* whose
/// immediate successor is a direct conditional jump and no control flow can
/// land *between* the two; the specialized run loops may then execute the
/// pair in one dispatch.  The pair still retires as two instructions (two
/// trace entries, two counter retires, same rflags effects), so every
/// architectural observable is bit-identical to unfused execution.  The
/// architectural code stream is never rewritten: single-stepping, the
/// injector, and diagnostics keep seeing the original two instructions.
///
/// The hot loops do not read this struct: the hint lives in
/// Instruction::fused (the slot's padding byte) and the branch's opcode and
/// target are read from the successor slot.  This accessor view exists for
/// tests and diagnostics.
struct FusedPair {
  bool fused = false;
  Opcode jcc = Opcode::Nop;  ///< the fused conditional branch
  Addr target = 0;           ///< its taken-path target (resolved imm)
};

class Program {
 public:
  Program() = default;
  Program(Addr base, std::vector<Instruction> code,
          std::map<std::string, Addr> symbols)
      : base_(base), code_(std::move(code)), symbols_(std::move(symbols)) {
    compute_landing();
    compute_fusion();
  }

  Addr base() const { return base_; }
  Addr end() const { return base_ + code_.size(); }
  std::size_t size() const { return code_.size(); }
  bool empty() const { return code_.empty(); }

  bool contains(Addr rip) const { return rip >= base_ && rip < end(); }

  const Instruction& at(Addr rip) const { return code_[rip - base_]; }

  /// Single-lookup fetch for Cpu::step(): nullptr when `rip` is outside
  /// the code image (instruction fetch from unmapped memory).
  const Instruction* fetch(Addr rip) const {
    const Addr off = rip - base_;
    return off < code_.size() ? &code_[off] : nullptr;
  }

  /// The code image as one array, slot `i` at address base() + i: the
  /// Fast engine hoists it out of its per-step fetch.
  const Instruction* slots() const { return code_.data(); }

  /// Fusion metadata for the instruction slot at offset `off` (valid for
  /// off < size()).
  FusedPair fused(std::size_t off) const {
    if (!code_[off].fused) return {};
    const Instruction& jcc = code_[off + 1];
    return FusedPair{true, jcc.op, static_cast<Addr>(jcc.imm)};
  }

  /// Address of a named symbol (function entry).  Throws if unknown.
  Addr symbol(const std::string& name) const;
  bool has_symbol(const std::string& name) const {
    return symbols_.count(name) != 0;
  }
  const std::map<std::string, Addr>& symbols() const { return symbols_; }

  /// Name of the function containing `rip` (last symbol at or before it),
  /// or empty if none.  For diagnostics.
  std::string symbol_at(Addr rip) const;

  /// Cached conservative landing set (see compute_landing_sites above),
  /// one flag per instruction slot.  Computed once at assembly time so
  /// per-attach consumers (campaign shards, CFG builds) never recompute
  /// it.
  const std::vector<bool>& landing_sites() const { return landing_; }

 private:
  void compute_landing();
  void compute_fusion();

  Addr base_ = 0;
  std::vector<Instruction> code_;
  std::map<std::string, Addr> symbols_;
  std::vector<bool> landing_;
};

}  // namespace xentry::sim
