#include "analysis/dataflow.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

namespace xentry::analysis {

namespace {

using sim::Addr;
using sim::Instruction;
using sim::Opcode;
using sim::Program;
using sim::Reg;

/// Lattice ascents per block before bounds are widened to infinity.
constexpr int kWidenThreshold = 20;

bool add_overflows(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return __builtin_add_overflow(a, b, out);
}

unsigned gpr(Reg r) { return static_cast<unsigned>(r); }
bool tracked(Reg r) { return gpr(r) < sim::kNumGprs; }

}  // namespace

Interval interval_join(const Interval& a, const Interval& b) {
  if (a.is_empty()) return b;
  if (b.is_empty()) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval interval_meet(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval interval_add(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return {1, 0};
  Interval r;
  // The machine wraps; the lattice does not.  Any potential wrap is top.
  if (add_overflows(a.lo, b.lo, &r.lo) || add_overflows(a.hi, b.hi, &r.hi)) {
    return Interval::top();
  }
  return r;
}

Interval interval_sub(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return {1, 0};
  Interval r;
  if (__builtin_sub_overflow(a.lo, b.hi, &r.lo) ||
      __builtin_sub_overflow(a.hi, b.lo, &r.hi)) {
    return Interval::top();
  }
  return r;
}

namespace {

/// Removes `v` from the interval when it sits on an endpoint (the only
/// hole the domain can express).
Interval trim_value(Interval s, std::int64_t v) {
  if (s.lo == v && s.hi == v) return {1, 0};  // empty
  if (s.lo == v) ++s.lo;
  else if (s.hi == v) --s.hi;
  return s;
}

void clamp_hi(Interval& s, std::int64_t v) { s.hi = std::min(s.hi, v); }
void clamp_lo(Interval& s, std::int64_t v) { s.lo = std::max(s.lo, v); }

void refine_cmp_ri(Opcode jcc, bool taken, std::int64_t k, Interval& s) {
  switch (jcc) {
    case Opcode::Je:
      s = taken ? interval_meet(s, Interval::exact(k)) : trim_value(s, k);
      break;
    case Opcode::Jne:
      s = taken ? trim_value(s, k) : interval_meet(s, Interval::exact(k));
      break;
    case Opcode::Jl:
      if (taken) { if (k != Interval::kMin) clamp_hi(s, k - 1); }
      else clamp_lo(s, k);
      break;
    case Opcode::Jle:
      if (taken) clamp_hi(s, k);
      else if (k != Interval::kMax) clamp_lo(s, k + 1);
      break;
    case Opcode::Jg:
      if (taken) { if (k != Interval::kMax) clamp_lo(s, k + 1); }
      else clamp_hi(s, k);
      break;
    case Opcode::Jge:
      if (taken) clamp_lo(s, k);
      else if (k != Interval::kMin) clamp_hi(s, k - 1);
      break;
    case Opcode::Jb:  // unsigned <
      if (k >= 0) {
        if (taken) s = interval_meet(s, {0, k - 1});
        else if (s.lo >= 0) clamp_lo(s, k);
      }
      break;
    case Opcode::Jae:  // unsigned >=
      if (k >= 0) {
        if (taken) { if (s.lo >= 0) clamp_lo(s, k); }
        else s = interval_meet(s, {0, k - 1});
      }
      break;
    default:
      break;
  }
}

/// Signed two-register refinement: narrows `a` (left operand) against the
/// pre-branch interval of the right operand, and vice versa.
void refine_cmp_rr(Opcode jcc, bool taken, Interval& a, Interval& b) {
  const Interval a0 = a, b0 = b;
  // Normalize to one of {<, <=, >, >=, ==} on (a, b).
  enum class Rel : std::uint8_t { Lt, Le, Gt, Ge, Eq, None };
  Rel rel = Rel::None;
  switch (jcc) {
    case Opcode::Je: rel = taken ? Rel::Eq : Rel::None; break;
    case Opcode::Jne: rel = taken ? Rel::None : Rel::Eq; break;
    case Opcode::Jl: rel = taken ? Rel::Lt : Rel::Ge; break;
    case Opcode::Jle: rel = taken ? Rel::Le : Rel::Gt; break;
    case Opcode::Jg: rel = taken ? Rel::Gt : Rel::Le; break;
    case Opcode::Jge: rel = taken ? Rel::Ge : Rel::Lt; break;
    case Opcode::Jb:  // unsigned: only meaningful when both nonnegative
      if (a0.lo >= 0 && b0.lo >= 0) rel = taken ? Rel::Lt : Rel::Ge;
      else if (taken && b0.lo >= 0) {
        // a <u b with b in [0, hi]: a's unsigned value is below 2^63, so
        // a is nonnegative as signed and bounded by b-1.
        a = interval_meet(a0, {0, b0.hi - 1});
        return;
      }
      break;
    case Opcode::Jae:
      if (a0.lo >= 0 && b0.lo >= 0) rel = taken ? Rel::Ge : Rel::Lt;
      else if (!taken && b0.lo >= 0) {
        a = interval_meet(a0, {0, b0.hi - 1});
        return;
      }
      break;
    default:
      break;
  }
  switch (rel) {
    case Rel::Lt:
      if (b0.hi != Interval::kMin) clamp_hi(a, b0.hi - 1);
      if (a0.lo != Interval::kMax) clamp_lo(b, a0.lo + 1);
      break;
    case Rel::Le:
      clamp_hi(a, b0.hi);
      clamp_lo(b, a0.lo);
      break;
    case Rel::Gt:
      if (b0.lo != Interval::kMax) clamp_lo(a, b0.lo + 1);
      if (a0.hi != Interval::kMin) clamp_hi(b, a0.hi - 1);
      break;
    case Rel::Ge:
      clamp_lo(a, b0.lo);
      clamp_hi(b, a0.hi);
      break;
    case Rel::Eq: {
      const Interval m = interval_meet(a0, b0);
      a = m;
      b = m;
      break;
    }
    case Rel::None:
      break;
  }
}

}  // namespace

void apply_instruction(const Instruction& insn, RegState& state) {
  const auto set = [&](Reg r, Interval v) {
    if (tracked(r)) state[gpr(r)] = v;
  };
  const auto get = [&](Reg r) {
    return tracked(r) ? state[gpr(r)] : Interval::top();
  };
  Interval& rsp = state[gpr(Reg::rsp)];
  const std::int64_t imm = insn.imm;

  switch (insn.op) {
    case Opcode::MovRR: set(insn.r1, get(insn.r2)); break;
    case Opcode::MovRI: set(insn.r1, Interval::exact(imm)); break;
    case Opcode::Load: set(insn.r1, Interval::top()); break;
    case Opcode::Push: rsp = interval_sub(rsp, Interval::exact(1)); break;
    case Opcode::Pop:
      rsp = interval_add(rsp, Interval::exact(1));
      set(insn.r1, Interval::top());
      break;
    case Opcode::AddRR: set(insn.r1, interval_add(get(insn.r1), get(insn.r2))); break;
    case Opcode::AddRI: set(insn.r1, interval_add(get(insn.r1), Interval::exact(imm))); break;
    case Opcode::SubRR: set(insn.r1, interval_sub(get(insn.r1), get(insn.r2))); break;
    case Opcode::SubRI: set(insn.r1, interval_sub(get(insn.r1), Interval::exact(imm))); break;
    case Opcode::Inc: set(insn.r1, interval_add(get(insn.r1), Interval::exact(1))); break;
    case Opcode::Dec: set(insn.r1, interval_sub(get(insn.r1), Interval::exact(1))); break;
    case Opcode::MulRR: {
      const Interval a = get(insn.r1), b = get(insn.r2);
      Interval r = Interval::top();
      if (a.lo == a.hi && b.lo == b.hi) {
        std::int64_t p = 0;
        if (!__builtin_mul_overflow(a.lo, b.lo, &p)) r = Interval::exact(p);
      }
      set(insn.r1, r);
      break;
    }
    case Opcode::DivR:
      state[gpr(Reg::rax)] = Interval::top();
      state[gpr(Reg::rdx)] = Interval::top();
      break;
    case Opcode::AndRR: {
      const Interval a = get(insn.r1), b = get(insn.r2);
      set(insn.r1, a.lo >= 0 && b.lo >= 0
                       ? Interval{0, std::min(a.hi, b.hi)}
                       : Interval::top());
      break;
    }
    case Opcode::AndRI: {
      const Interval a = get(insn.r1);
      if (imm >= 0) set(insn.r1, {0, imm});
      else if (a.lo >= 0) set(insn.r1, {0, a.hi});
      else set(insn.r1, Interval::top());
      break;
    }
    case Opcode::XorRR:
      // The canonical zeroing idiom; anything else loses all bits info.
      set(insn.r1, insn.r1 == insn.r2 ? Interval::exact(0) : Interval::top());
      break;
    case Opcode::OrRR: case Opcode::OrRI: case Opcode::XorRI:
    case Opcode::ShlRR: case Opcode::ShrRR:
      set(insn.r1, Interval::top());
      break;
    case Opcode::ShlRI: {
      const Interval a = get(insn.r1);
      const auto s = static_cast<unsigned>(imm) & 63u;
      if (a.lo >= 0 && s < 63 && a.hi <= (Interval::kMax >> s)) {
        set(insn.r1, {a.lo << s, a.hi << s});
      } else {
        set(insn.r1, Interval::top());
      }
      break;
    }
    case Opcode::ShrRI: {
      const Interval a = get(insn.r1);
      const auto s = static_cast<unsigned>(imm) & 63u;
      if (s == 0) break;  // identity
      if (a.lo >= 0) {
        set(insn.r1, {a.lo >> s, a.hi >> s});
      } else {
        // Logical shift of any 64-bit value by s >= 1 fits in 63 bits.
        set(insn.r1, {0, static_cast<std::int64_t>(~std::uint64_t{0} >> s)});
      }
      break;
    }
    case Opcode::Neg: {
      const Interval a = get(insn.r1);
      set(insn.r1, a.lo != Interval::kMin ? Interval{-a.hi, -a.lo}
                                          : Interval::top());
      break;
    }
    case Opcode::Not: {
      // ~x = -x-1 is a monotone-decreasing bijection on int64.
      const Interval a = get(insn.r1);
      set(insn.r1, {~a.hi, ~a.lo});
      break;
    }
    case Opcode::Rdtsc:
      // Monotonic counter, one tick per step: nonnegative for any run
      // shorter than 2^63 steps.
      set(insn.r1, {0, Interval::kMax});
      break;
    case Opcode::Call: rsp = interval_sub(rsp, Interval::exact(1)); break;
    case Opcode::Ret: rsp = interval_add(rsp, Interval::exact(1)); break;
    // Assertions refine along their non-trapping path: the next
    // instruction only executes when the predicate held.
    case Opcode::AssertLeRI:
      if (tracked(insn.r1)) clamp_hi(state[gpr(insn.r1)], imm);
      break;
    case Opcode::AssertGeRI:
      if (tracked(insn.r1)) clamp_lo(state[gpr(insn.r1)], imm);
      break;
    case Opcode::AssertEqRI:
      set(insn.r1, interval_meet(get(insn.r1), Interval::exact(imm)));
      break;
    case Opcode::AssertNeRI:
      set(insn.r1, trim_value(get(insn.r1), imm));
      break;
    case Opcode::AssertEqRR: {
      const Interval m = interval_meet(get(insn.r1), get(insn.r2));
      set(insn.r1, m);
      set(insn.r2, m);
      break;
    }
    case Opcode::AssertLtRR: {
      // Unsigned r1 < r2: when r2 is known nonnegative as a signed value,
      // its unsigned value matches, so r1's unsigned value is below
      // kMax — hence r1 is also nonnegative as signed.
      const Interval b = get(insn.r2);
      if (b.lo >= 0 && b.hi > 0) {
        set(insn.r1, interval_meet(get(insn.r1), {0, b.hi - 1}));
      }
      break;
    }
    default:
      break;  // Nop, Store, Cmp*, Test*, branches, Hlt: no register writes
  }
}

void refine_edge(const Program& program, const BasicBlock& b,
                 Addr succ_first, RegState& st) {
  const Instruction& jcc = program.at(b.last);
  if (!sim::is_cond_branch(jcc.op)) return;
  if (b.last == b.first) return;  // guard lives in another block
  const Instruction& guard = program.at(b.last - 1);
  const auto target = static_cast<Addr>(jcc.imm);
  const Addr fallthrough = b.last + 1;
  if (target == fallthrough) return;
  bool taken = false;
  if (succ_first == target) taken = true;
  else if (succ_first == fallthrough) taken = false;
  else return;

  if (guard.op == Opcode::CmpRI && tracked(guard.r1)) {
    refine_cmp_ri(jcc.op, taken, guard.imm, st[gpr(guard.r1)]);
  } else if (guard.op == Opcode::CmpRR && tracked(guard.r1) &&
             tracked(guard.r2) && guard.r1 != guard.r2) {
    refine_cmp_rr(jcc.op, taken, st[gpr(guard.r1)], st[gpr(guard.r2)]);
  } else if (guard.op == Opcode::TestRR && guard.r1 == guard.r2 &&
             tracked(guard.r1)) {
    Interval& s = st[gpr(guard.r1)];
    if (jcc.op == Opcode::Je) {
      s = taken ? interval_meet(s, Interval::exact(0)) : trim_value(s, 0);
    } else if (jcc.op == Opcode::Jne) {
      s = taken ? trim_value(s, 0) : interval_meet(s, Interval::exact(0));
    }
  } else if (guard.op == Opcode::TestRI && tracked(guard.r1) &&
             guard.imm != 0 && (guard.imm & (guard.imm - 1)) == 0) {
    // test r, single-bit: the jne edge proves the register nonzero.
    Interval& s = st[gpr(guard.r1)];
    if ((jcc.op == Opcode::Jne && taken) || (jcc.op == Opcode::Je && !taken)) {
      s = trim_value(s, 0);
    }
  }
}

namespace {

void compute_reachability(const ControlFlowGraph& cfg,
                          std::vector<BlockFacts>& facts) {
  std::deque<std::uint32_t> work(cfg.roots.begin(), cfg.roots.end());
  for (std::uint32_t r : cfg.roots) facts[r].reachable = true;
  while (!work.empty()) {
    const std::uint32_t b = work.front();
    work.pop_front();
    for (std::uint32_t s : cfg.blocks[b].succs) {
      if (!facts[s].reachable) {
        facts[s].reachable = true;
        work.push_back(s);
      }
    }
  }
}

/// Cooper–Harvey–Kennedy iterative dominators with a virtual entry node
/// (index N) whose successors are the CFG roots.
void compute_dominators(const ControlFlowGraph& cfg,
                        std::vector<BlockFacts>& facts) {
  const auto n = static_cast<std::uint32_t>(cfg.blocks.size());
  const std::uint32_t virt = n;
  // Reverse postorder from the virtual root over reachable blocks.
  std::vector<std::uint32_t> po_num(n + 1, kNoBlock);
  std::vector<std::uint32_t> rpo;
  {
    std::vector<std::uint8_t> state(n + 1, 0);
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{{virt, 0}};
    state[virt] = 1;
    std::vector<std::uint32_t> postorder;
    while (!stack.empty()) {
      auto& [b, i] = stack.back();
      const std::vector<std::uint32_t>& succs =
          b == virt ? cfg.roots : cfg.blocks[b].succs;
      if (i < succs.size()) {
        const std::uint32_t s = succs[i++];
        if (state[s] == 0) {
          state[s] = 1;
          stack.emplace_back(s, 0);
        }
      } else {
        postorder.push_back(b);
        stack.pop_back();
      }
    }
    for (std::uint32_t i = 0; i < postorder.size(); ++i) {
      po_num[postorder[i]] = i;
    }
    rpo.assign(postorder.rbegin(), postorder.rend());
  }

  std::vector<std::uint32_t> idom(n + 1, kNoBlock);
  idom[virt] = virt;
  auto intersect = [&](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      while (po_num[a] < po_num[b]) a = idom[a];
      while (po_num[b] < po_num[a]) b = idom[b];
    }
    return a;
  };
  const std::vector<std::uint32_t> no_preds;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t b : rpo) {
      if (b == virt) continue;
      std::uint32_t new_idom = kNoBlock;
      const bool is_root = std::find(cfg.roots.begin(), cfg.roots.end(), b) !=
                           cfg.roots.end();
      if (is_root) new_idom = virt;
      for (std::uint32_t p : cfg.blocks[b].preds) {
        if (po_num[p] == kNoBlock || idom[p] == kNoBlock) continue;
        new_idom = new_idom == kNoBlock ? p : intersect(new_idom, p);
      }
      if (new_idom != kNoBlock && idom[b] != new_idom) {
        idom[b] = new_idom;
        changed = true;
      }
    }
  }
  for (std::uint32_t b = 0; b < n; ++b) {
    facts[b].idom = idom[b] == virt ? kNoBlock : idom[b];
  }
}

void run_intervals(const Program& program, const ControlFlowGraph& cfg,
                   std::vector<BlockFacts>& facts,
                   std::vector<RegState>& in_state) {
  const auto n = static_cast<std::uint32_t>(cfg.blocks.size());
  in_state.assign(n, RegState{});
  std::vector<int> ascents(n, 0);
  std::deque<std::uint32_t> work;
  std::vector<bool> queued(n, false);
  for (std::uint32_t r : cfg.roots) {
    in_state[r].fill(Interval::top());
    facts[r].in_valid = true;
    work.push_back(r);
    queued[r] = true;
  }
  while (!work.empty()) {
    const std::uint32_t bi = work.front();
    work.pop_front();
    queued[bi] = false;
    const BasicBlock& b = cfg.blocks[bi];
    RegState out = in_state[bi];
    for (Addr a = b.first; a <= b.last; ++a) {
      apply_instruction(program.at(a), out);
    }
    for (std::uint32_t si : b.succs) {
      RegState edge = out;
      refine_edge(program, b, cfg.blocks[si].first, edge);
      bool infeasible = false;
      for (const Interval& v : edge) infeasible |= v.is_empty();
      if (infeasible) continue;
      RegState& tin = in_state[si];
      bool changed = false;
      if (!facts[si].in_valid) {
        tin = edge;
        facts[si].in_valid = true;
        changed = true;
      } else {
        for (unsigned r = 0; r < sim::kNumGprs; ++r) {
          Interval j = interval_join(tin[r], edge[r]);
          if (ascents[si] >= kWidenThreshold && !(j == tin[r])) {
            if (j.lo < tin[r].lo) j.lo = Interval::kMin;
            if (j.hi > tin[r].hi) j.hi = Interval::kMax;
          }
          if (!(j == tin[r])) {
            tin[r] = j;
            changed = true;
          }
        }
      }
      if (changed) {
        ++ascents[si];
        if (!queued[si]) {
          work.push_back(si);
          queued[si] = true;
        }
      }
    }
  }
}

void run_stack_depth(const Program& program, const ControlFlowGraph& cfg,
                     std::vector<BlockFacts>& facts,
                     std::vector<StackWarning>& warnings) {
  const auto n = static_cast<std::uint32_t>(cfg.blocks.size());
  auto warn = [&](Addr addr, std::int32_t depth, std::string what) {
    warnings.push_back({addr, depth, std::move(what)});
  };
  std::deque<std::uint32_t> work;
  auto join_in = [&](std::uint32_t bi, std::int32_t depth) {
    BlockFacts& f = facts[bi];
    if (depth == kDepthUnknown) return;
    if (f.stack_in == kDepthUnknown) {
      f.stack_in = depth;
      work.push_back(bi);
    } else if (f.stack_in != depth) {
      std::ostringstream os;
      os << "stack depth mismatch on entry: " << f.stack_in << " vs "
         << depth;
      warn(cfg.blocks[bi].first, f.stack_in, os.str());
    }
  };
  // Function entries start with an empty local frame.  Blocks entered
  // only through manually materialized addresses (MovRI landings) keep
  // kDepthUnknown and stay silent: optimistic joins, so a warning always
  // names two *proven* depths.
  for (std::uint32_t bi = 0; bi < n; ++bi) {
    if (cfg.blocks[bi].is_function_entry) join_in(bi, 0);
  }
  if (cfg.blocks.empty()) return;
  if (!cfg.roots.empty() && program.symbols().empty()) join_in(cfg.roots[0], 0);

  while (!work.empty()) {
    const std::uint32_t bi = work.front();
    work.pop_front();
    const BasicBlock& b = cfg.blocks[bi];
    std::int32_t depth = facts[bi].stack_in;
    if (depth == kDepthUnknown) continue;
    for (Addr a = b.first; a <= b.last; ++a) {
      const Opcode op = program.at(a).op;
      if (op == Opcode::Push) {
        ++depth;
      } else if (op == Opcode::Pop) {
        if (depth <= 0) {
          warn(a, depth, "pop below the function's local frame");
          depth = kDepthUnknown;
          break;
        }
        --depth;
      } else if (op == Opcode::Ret && depth != 0) {
        warn(a, depth, "ret with non-empty local frame");
      }
    }
    if (depth == kDepthUnknown) continue;
    const Opcode last = program.at(b.last).op;
    if (last == Opcode::Call) {
      // A balanced callee returns to the next slot with the frame intact.
      const std::uint32_t next = cfg.block_at(b.last + 1);
      if (next != kNoBlock) join_in(next, depth);
    } else if (last == Opcode::Jmp || sim::is_cond_branch(last) ||
               (!sim::is_branch(last) && last != Opcode::Hlt)) {
      for (std::uint32_t si : b.succs) join_in(si, depth);
    }
    // Ret / JmpR / Hlt: control leaves the frame; nothing to propagate.
  }
}

}  // namespace

DataflowResult run_dataflow(const Program& program,
                            const ControlFlowGraph& cfg) {
  DataflowResult r;
  r.facts.assign(cfg.blocks.size(), BlockFacts{});
  if (cfg.blocks.empty()) return r;
  compute_reachability(cfg, r.facts);
  compute_dominators(cfg, r.facts);
  run_intervals(program, cfg, r.facts, r.in_state);
  run_stack_depth(program, cfg, r.facts, r.stack_warnings);
  return r;
}

}  // namespace xentry::analysis
