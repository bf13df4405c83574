// Hang proof: retiring a hung run's watchdog budget in closed form.
//
// A faulted run that never reaches VM entry spins in a small loop until
// the watchdog fires.  Cpu::prove_hang steps that loop to find its lap
// (the rip sequence of one iteration), then proves with one abstract pass
// over the lap that every lap up to the budget repeats it:
//   - each general-purpose register is Const (the same value in every
//     lap), Affine (a lap-start register plus an offset, where that
//     register advances by a constant per lap), Window (an unsigned range:
//     `and x, m` bounds any x to [0, m], and adding a constant shifts a
//     window that does not wrap) or Data (unknown);
//   - a load from a Const address that no store of the lap may touch reads
//     the word's current value, which then no lap changes;
//   - every load and store address is Const or a Window inside one mapped
//     region (a writable one for stores), so no access traps;
//   - every conditional branch reads the flags of a compare or an ALU
//     result on Const/Affine operands.  Their exact values are linear in
//     the lap number k, so if both stay inside the range the branch
//     compares in and the sign of their difference is the same in the
//     recorded lap and in the last lap the budget reaches, the branch goes
//     the recorded way in every lap in between;
//   - at the end of the lap each register matches the per-lap change the
//     two recorded laps showed (none, or the same constant twice); one
//     that does not, and a load a store may overlap, is demoted to Data
//     and the pass runs again.
// By induction over the laps the rip sequence repeats up to the budget,
// so the step count, the TSC, the counters and the final rip follow in
// closed form.
#include <algorithm>
#include <array>
#include <vector>

#include "sim/cpu.hpp"

namespace xentry::sim {
namespace {

using Regs = std::array<Word, kNumArchRegs>;
/// Exact lap arithmetic.  With at most kMaxProvenSteps laps and 64-bit
/// per-lap changes, every value stays below 2^126 in magnitude.
using Int = __int128;

/// Longest lap the prover looks for, in instructions.
constexpr std::size_t kMaxLap = 64;
/// Longest budget remainder the prover retires (keeps Int exact).
constexpr std::uint64_t kMaxProvenSteps = std::uint64_t{1} << 62;

/// Abstract value of a register, operand or address, valid in every lap
/// the proof covers.
struct Val {
  enum class Kind : std::uint8_t { Data, Const, Affine, Window };
  Kind kind = Kind::Data;
  Reg base = Reg::rax;  ///< Affine: the register whose lap-start value
                        ///< it offsets
  Word lo = 0;          ///< Const value, Affine offset, Window low bound
  Word hi = 0;          ///< Window high bound (unsigned, inclusive)

  static Val constant(Word c) { return {Kind::Const, Reg::rax, c, 0}; }
  static Val affine(Reg r, Word off) { return {Kind::Affine, r, off, 0}; }
  static Val window(Word lo, Word hi) {
    return {Kind::Window, Reg::rax, lo, hi};
  }
};

/// Abstract rflags: what the last flag-setting instruction compared or
/// computed.
struct Flags {
  enum class Kind : std::uint8_t { Data, Compare, Result };
  Kind kind = Kind::Data;
  Val a;  ///< Compare: left operand; Result: the result
  Val b;  ///< Compare: right operand
};

/// What the two recorded laps showed about one register.
struct Hyp {
  enum class Kind : std::uint8_t { Data, Invariant, Affine };
  Kind kind = Kind::Data;
  Word delta = 0;  ///< per-lap change (Affine)
};

/// Concrete value of an ALU opcode on known operands (unary opcodes
/// ignore `b`; Inc/Dec take b = 1), exactly as Cpu::step computes it.
Word alu(Opcode op, Word a, Word b) {
  switch (op) {
    case Opcode::AddRR: case Opcode::AddRI: case Opcode::Inc: return a + b;
    case Opcode::SubRR: case Opcode::SubRI: case Opcode::Dec: return a - b;
    case Opcode::MulRR: return a * b;
    case Opcode::AndRR: case Opcode::AndRI: return a & b;
    case Opcode::OrRR: case Opcode::OrRI: return a | b;
    case Opcode::XorRR: case Opcode::XorRI: return a ^ b;
    case Opcode::ShlRR: case Opcode::ShlRI: return a << (b & 63);
    case Opcode::ShrRR: case Opcode::ShrRI: return a >> (b & 63);
    case Opcode::Neg: return 0 - a;
    default: return ~a;  // Not
  }
}

/// a + b, where at least one side must be Const for a precise result.
Val add(const Val& a, const Val& b) {
  const bool b_const = b.kind == Val::Kind::Const;
  const Val& v = b_const ? a : b;
  const Val& c = b_const ? b : a;
  if (c.kind != Val::Kind::Const) return {};
  switch (v.kind) {
    case Val::Kind::Const: return Val::constant(v.lo + c.lo);
    case Val::Kind::Affine: return Val::affine(v.base, v.lo + c.lo);
    case Val::Kind::Window: {
      const Int d = static_cast<std::int64_t>(c.lo);
      const Int lo = static_cast<Int>(v.lo) + d;
      const Int hi = static_cast<Int>(v.hi) + d;
      if (lo < 0 || hi > static_cast<Int>(~Word{0})) return {};
      return Val::window(static_cast<Word>(lo), static_cast<Word>(hi));
    }
    case Val::Kind::Data: break;
  }
  return {};
}

/// a & b: bounded by either side's largest value, whatever the other is.
Val mask(const Val& a, const Val& b) {
  const auto bound = [](const Val& v, Word& m) {
    if (v.kind == Val::Kind::Const) m = v.lo;
    if (v.kind == Val::Kind::Window) m = v.hi;
    return v.kind == Val::Kind::Const || v.kind == Val::Kind::Window;
  };
  Word ma = ~Word{0};
  Word mb = ~Word{0};
  const bool bounded_a = bound(a, ma);
  const bool bounded_b = bound(b, mb);
  if (!bounded_a && !bounded_b) return {};
  return Val::window(0, std::min(ma, mb));
}

/// Abstract value of an ALU result.
Val arith(Opcode op, const Val& a, const Val& b) {
  if (a.kind == Val::Kind::Const && b.kind == Val::Kind::Const) {
    return Val::constant(alu(op, a.lo, b.lo));
  }
  switch (op) {
    case Opcode::AddRR: case Opcode::AddRI: case Opcode::Inc:
      return add(a, b);
    case Opcode::SubRR: case Opcode::SubRI: case Opcode::Dec:
      return b.kind == Val::Kind::Const ? add(a, Val::constant(0 - b.lo))
                                        : Val{};
    case Opcode::AndRR: case Opcode::AndRI:
      return mask(a, b);
    default:
      return {};
  }
}

/// The abstract pass over one lap, for laps k = -1 (the second recorded
/// lap) through `last_lap` (the lap that holds the last budgeted step);
/// k = 0 is the lap about to run from `s2`.
class LapProof {
 public:
  LapProof(const Program& prog, const Memory& mem,
           const std::vector<Addr>& lap, const Regs& s0, const Regs& s1,
           const Regs& s2, std::uint64_t last_lap)
      : prog_(prog),
        mem_(mem),
        lap_(lap),
        start_(s2),
        last_(static_cast<Int>(last_lap)),
        data_load_(lap.size(), false) {
    for (std::size_t r = 0; r < kNumGprs; ++r) {
      const Word d1 = s1[r] - s0[r];
      const Word d2 = s2[r] - s1[r];
      if (d1 == d2) {
        hyp_[r] = {d1 == 0 ? Hyp::Kind::Invariant : Hyp::Kind::Affine, d1};
      }
    }
  }

  /// Runs the pass until its assumptions are consistent.  Every rerun
  /// demotes a register or a load to Data, so at most 16 + lap-length
  /// passes run, and a failed check fails for good: demotion only makes
  /// values less precise.
  bool holds() {
    for (;;) {
      if (!pass()) return false;
      bool again = false;
      for (const ConstLoad& l : loads_) {
        for (const Range& s : stores_) {
          if (l.addr >= s.lo && l.addr <= s.hi) {
            data_load_[l.pos] = true;
            again = true;
          }
        }
      }
      if (again) continue;
      for (std::size_t r = 0; r < kNumGprs; ++r) {
        if (!matches_hypothesis(r)) {
          hyp_[r].kind = Hyp::Kind::Data;
          again = true;
        }
      }
      if (!again) return true;
    }
  }

 private:
  struct ConstLoad {
    std::size_t pos = 0;
    Addr addr = 0;
  };
  struct Range {
    Addr lo = 0;
    Addr hi = 0;
  };

  bool pass() {
    loads_.clear();
    stores_.clear();
    for (std::size_t r = 0; r < kNumGprs; ++r) {
      switch (hyp_[r].kind) {
        case Hyp::Kind::Invariant: regs_[r] = Val::constant(start_[r]); break;
        case Hyp::Kind::Affine:
          regs_[r] = Val::affine(static_cast<Reg>(r), 0);
          break;
        case Hyp::Kind::Data: regs_[r] = {}; break;
      }
    }
    // The lap head sets the flags (prove_hang rotates it there), so a
    // branch that reads the flags it started with fails the proof.
    flags_ = {};
    ok_ = true;
    for (std::size_t i = 0; i < lap_.size(); ++i) {
      if (!transfer(i)) return false;
    }
    return true;
  }

  bool matches_hypothesis(std::size_t r) const {
    const Val& v = regs_[r];
    switch (hyp_[r].kind) {
      case Hyp::Kind::Invariant:
        return v.kind == Val::Kind::Const && v.lo == start_[r];
      case Hyp::Kind::Affine:
        return v.kind == Val::Kind::Affine &&
               v.base == static_cast<Reg>(r) && v.lo == hyp_[r].delta;
      case Hyp::Kind::Data: break;
    }
    return true;
  }

  /// Operand access: the prover tracks the general-purpose registers
  /// only, so an instruction naming rip or rflags fails the proof.
  Val get(Reg r) {
    if (static_cast<std::size_t>(r) >= kNumGprs) {
      ok_ = false;
      return {};
    }
    return regs_[static_cast<std::size_t>(r)];
  }
  void set(Reg r, const Val& v) {
    if (static_cast<std::size_t>(r) >= kNumGprs) {
      ok_ = false;
      return;
    }
    regs_[static_cast<std::size_t>(r)] = v;
  }

  /// True when the access cannot trap in any lap.
  bool access(const Val& addr, bool store) {
    if (addr.kind != Val::Kind::Const && addr.kind != Val::Kind::Window) {
      return false;
    }
    const Addr lo = addr.lo;
    const Addr hi = addr.kind == Val::Kind::Const ? addr.lo : addr.hi;
    const Memory::Region* region = mem_.region_at(lo);
    if (region == nullptr || !region->contains(hi) ||
        (store && region->perm != Perm::ReadWrite)) {
      return false;
    }
    if (store) stores_.push_back({lo, hi});
    return true;
  }

  /// Exact value of `v` in lap `k`, as the signed or unsigned reading of
  /// the machine word; false unless v is Const/Affine and that reading
  /// equals the linear value (it stays in range).
  bool exact(const Val& v, Int k, bool is_signed, Int& out) const {
    Word w = 0;
    Int per_lap = 0;
    switch (v.kind) {
      case Val::Kind::Const: w = v.lo; break;
      case Val::Kind::Affine: {
        const auto r = static_cast<std::size_t>(v.base);
        w = start_[r] + v.lo;
        per_lap = static_cast<std::int64_t>(hyp_[r].delta);
        break;
      }
      default: return false;
    }
    out = (is_signed ? static_cast<Int>(static_cast<std::int64_t>(w))
                     : static_cast<Int>(w)) +
          k * per_lap;
    const Int lo = is_signed ? -(Int{1} << 63) : 0;
    const Int hi = is_signed ? (Int{1} << 63) - 1 : (Int{1} << 64) - 1;
    return out >= lo && out <= hi;
  }

  /// Decides conditional branch `jcc` for every lap; false unless it
  /// provably goes one way.
  bool decide(Opcode jcc, bool& taken) const {
    if (flags_.kind == Flags::Kind::Data) return false;
    const bool carry = jcc == Opcode::Jb || jcc == Opcode::Jae;
    if (flags_.kind == Flags::Kind::Result && carry) {
      taken = cond_taken(jcc, 0);  // ALU and test results clear CF
      return true;
    }
    // Compares read a - b; results compare against zero.  ZF/SF branches
    // compare signed (set_flags_cmp's SF is a signed less-than), CF ones
    // unsigned.
    const Val rhs = flags_.kind == Flags::Kind::Compare ? flags_.b
                                                        : Val::constant(0);
    const auto sign = [&](Int k, int& s) {
      Int x = 0;
      Int y = 0;
      if (!exact(flags_.a, k, !carry, x) || !exact(rhs, k, !carry, y)) {
        return false;
      }
      s = (x > y) - (x < y);
      return true;
    };
    int first = 0;
    int last = 0;
    if (!sign(-1, first) || !sign(last_, last) || first != last) return false;
    Word f = 0;
    if (first == 0) f |= kFlagZero;
    if (first < 0) f |= carry ? kFlagCarry : kFlagSign;
    taken = cond_taken(jcc, f);
    return true;
  }

  /// ALU instruction with second operand `b`: Sub* sets compare flags,
  /// the rest set flags from their result.
  void alu_step(const Instruction& insn, const Val& b) {
    const Val a = get(insn.r1);
    const Val res = insn.op == Opcode::XorRR && insn.r1 == insn.r2
                        ? Val::constant(0)
                        : arith(insn.op, a, b);
    if (insn.op == Opcode::SubRR || insn.op == Opcode::SubRI) {
      flags_ = {Flags::Kind::Compare, a, b};
    } else {
      flags_ = {Flags::Kind::Result, res, {}};
    }
    set(insn.r1, res);
  }

  /// Abstract effect of lap position `i`; false when the proof fails.
  bool transfer(std::size_t i) {
    const Addr rip = lap_[i];
    const Addr next = lap_[(i + 1) % lap_.size()];
    const Instruction& insn = prog_.at(rip);
    const Val imm = Val::constant(static_cast<Word>(insn.imm));
    switch (insn.op) {
      case Opcode::Nop:
      case Opcode::Jmp:
        break;
      case Opcode::MovRR:
        set(insn.r1, get(insn.r2));
        break;
      case Opcode::MovRI:
        set(insn.r1, imm);
        break;
      case Opcode::Load: {
        const Val addr = add(get(insn.r2), imm);
        if (!access(addr, false)) return false;
        Val v;
        if (addr.kind == Val::Kind::Const && !data_load_[i]) {
          loads_.push_back({i, addr.lo});
          v = Val::constant(mem_.peek(addr.lo));
        }
        set(insn.r1, v);
        break;
      }
      case Opcode::Store:
        get(insn.r2);  // any value, but it must be a tracked register
        if (!access(add(get(insn.r1), imm), true)) return false;
        break;
      case Opcode::AddRR: case Opcode::SubRR: case Opcode::MulRR:
      case Opcode::AndRR: case Opcode::OrRR: case Opcode::XorRR:
      case Opcode::ShlRR: case Opcode::ShrRR:
        alu_step(insn, get(insn.r2));
        break;
      case Opcode::AddRI: case Opcode::SubRI: case Opcode::AndRI:
      case Opcode::OrRI: case Opcode::XorRI: case Opcode::ShlRI:
      case Opcode::ShrRI:
        alu_step(insn, imm);
        break;
      case Opcode::Neg: case Opcode::Not: case Opcode::Inc: case Opcode::Dec:
        alu_step(insn, Val::constant(1));  // Neg/Not ignore it
        break;
      case Opcode::CmpRR:
        flags_ = {Flags::Kind::Compare, get(insn.r1), get(insn.r2)};
        break;
      case Opcode::CmpRI:
        flags_ = {Flags::Kind::Compare, get(insn.r1), imm};
        break;
      case Opcode::TestRR:
        flags_ = {Flags::Kind::Result,
                  arith(Opcode::AndRR, get(insn.r1), get(insn.r2)), {}};
        break;
      case Opcode::TestRI:
        flags_ = {Flags::Kind::Result, arith(Opcode::AndRR, get(insn.r1), imm),
                  {}};
        break;
      case Opcode::Je: case Opcode::Jne: case Opcode::Jl: case Opcode::Jle:
      case Opcode::Jg: case Opcode::Jge: case Opcode::Jb: case Opcode::Jae: {
        bool taken = false;
        if (!decide(insn.op, taken)) return false;
        if ((taken ? static_cast<Addr>(insn.imm) : rip + 1) != next) {
          return false;
        }
        break;
      }
      case Opcode::JmpR: {
        const Val target = get(insn.r1);
        if (target.kind != Val::Kind::Const || target.lo != next) return false;
        break;
      }
      case Opcode::Rdtsc:
        set(insn.r1, {});
        break;
      case Opcode::AssertLeRI: case Opcode::AssertGeRI:
      case Opcode::AssertEqRI: case Opcode::AssertNeRI:
        if (get(insn.r1).kind != Val::Kind::Const) return false;
        break;
      case Opcode::AssertEqRR: case Opcode::AssertLtRR:
        if (get(insn.r1).kind != Val::Kind::Const ||
            get(insn.r2).kind != Val::Kind::Const) {
          return false;
        }
        break;
      case Opcode::Push: case Opcode::Pop: case Opcode::Call:
      case Opcode::Ret: case Opcode::DivR: case Opcode::Hlt: case Opcode::Ud:
        return false;
    }
    return ok_;
  }

  const Program& prog_;
  const Memory& mem_;
  const std::vector<Addr>& lap_;
  const Regs& start_;
  const Int last_;
  std::array<Hyp, kNumGprs> hyp_{};
  /// Lap positions whose Const-address load a store may overlap.
  std::vector<bool> data_load_;

  // State of the current pass.
  std::array<Val, kNumGprs> regs_{};
  Flags flags_;
  std::vector<ConstLoad> loads_;
  std::vector<Range> stores_;
  bool ok_ = true;
};

}  // namespace

StepInfo Cpu::prove_hang(std::uint64_t max_steps, bool& proven) {
  StepInfo info;  // Status::Ok: the run goes on
  // The Reference engine is the oracle the prover is checked against.
  if (engine_ == EngineKind::Reference) return info;
  const std::uint64_t start = steps_;
  // One real step within the budget; false once the run has ended (info
  // then says how) or has left the lap being recorded.
  const auto advance = [&] {
    if (steps_ - start == max_steps) {
      info = watchdog();
      return false;
    }
    info = step();
    return info.status == StepInfo::Status::Ok;
  };

  // Lap 0: step until rip comes back.
  std::vector<Addr> lap;
  lap.reserve(kMaxLap);
  const Addr first = reg(Reg::rip);
  do {
    if (lap.size() == kMaxLap) return info;
    lap.push_back(reg(Reg::rip));
    if (!advance()) return info;
  } while (reg(Reg::rip) != first);

  // Move the head to the lap's first flag-setting instruction, so no
  // branch reads flags the previous lap left.
  std::size_t head = 0;
  while (head < lap.size() &&
         (regs_written(prog_->at(lap[head])) & reg_bit(Reg::rflags)) == 0) {
    ++head;
  }
  if (head == lap.size()) head = 0;
  for (std::size_t i = 0; i < head; ++i) {
    if (!advance()) return info;
  }
  std::rotate(lap.begin(), lap.begin() + static_cast<std::ptrdiff_t>(head),
              lap.end());

  // Laps 1 and 2 must retrace it; their starts give the per-lap changes.
  std::array<Regs, 3> starts{};
  for (std::size_t l = 0; l < 2; ++l) {
    starts[l] = regs_;
    for (const Addr a : lap) {
      if (reg(Reg::rip) != a || !advance()) return info;
    }
  }
  if (reg(Reg::rip) != lap[0]) return info;
  starts[2] = regs_;

  const std::uint64_t left = max_steps - (steps_ - start);
  if (left == 0 || left > kMaxProvenSteps) return info;
  const std::uint64_t p = lap.size();
  LapProof proof(*prog_, *mem_, lap, starts[0], starts[1], starts[2],
                 (left - 1) / p);
  if (!proof.holds()) return info;

  // Retire `left` steps: position i of the lap runs q times, once more
  // when it lies in the final partial lap.
  const std::uint64_t q = left / p;
  const std::uint64_t r = left % p;
  std::uint64_t branches = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  for (std::size_t i = 0; i < p; ++i) {
    const Opcode op = prog_->at(lap[i]).op;
    const std::uint64_t runs = q + (i < r ? 1 : 0);
    branches += is_branch(op) ? runs : 0;
    loads += is_mem_load(op) ? runs : 0;
    stores += is_mem_store(op) ? runs : 0;
  }
  counters_.retire_block(left, branches, loads, stores);
  tsc_ += kTscPerStep * left;
  steps_ += left;
  set_reg(Reg::rip, lap[r]);
  proven = true;
  return watchdog();
}

}  // namespace xentry::sim
