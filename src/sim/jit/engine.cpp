// The threaded-code execution engine.
//
// run_jit_loop executes a CompiledProgram with computed-goto dispatch:
// every handler ends by jumping straight through the label table to the
// next slot's handler, so the steady state is one indirect jump per
// instruction — no fetch bounds check, no opcode switch, no per-step
// retire/TSC/counter updates, and no fusion re-check (a threaded
// dispatch is already the single jump fusion buys the interpreter).
//
// Architectural rip is implicit in the stream cursor `ip` and only
// materialized into the register file at control-flow exits (trap, halt,
// watchdog, deopt) and by the SyncRip prefix for the rare ops that read
// rip as a data operand.  Retire bookkeeping uses the superblock prefix
// scheme described in compiled_program.hpp: superblock entry subtracts
// the entry op's prefixes, every exit adds the exit op's (plus its own
// retire when it retires), so the accumulators hold exact totals at
// every boundary while costing nothing per op.
//
// Watchdog exactness: superblock entry checks the *worst case* retires
// of the run against the remaining budget once.  When the budget is too
// tight — only near the watchdog horizon — the engine deopts: it flushes
// exact architectural state and lets Cpu::run_interp walk the short tail
// with its per-step check.  Ops that do not retire (Hlt, Ud, the
// off-the-end sentinel) re-check explicitly because the entry check only
// bounds retires, and the reference engine watchdogs *before* reaching
// them when the budget is already exhausted.
//
// Computed goto is a GNU extension (GCC and Clang both provide it); on
// other compilers run_jit transparently degrades to the fast
// interpreter, which is bit-identical.
#include <stdexcept>
#include <utility>

#include "sim/cpu.hpp"
#include "sim/jit/compiled_program.hpp"

namespace xentry::sim {

void Cpu::set_compiled(std::shared_ptr<const jit::CompiledProgram> compiled) {
  if (compiled != nullptr && !compiled->matches(*prog_)) {
    throw std::invalid_argument(
        "Cpu::set_compiled: compiled program is stale for the attached "
        "program (base, size, or text signature differs) — recompile from "
        "the current image");
  }
  jit_ = std::move(compiled);
}

#if defined(__GNUC__)

namespace {

constexpr std::size_t kRax = static_cast<std::size_t>(Reg::rax);
constexpr std::size_t kRdx = static_cast<std::size_t>(Reg::rdx);
constexpr std::size_t kRsp = static_cast<std::size_t>(Reg::rsp);
constexpr std::size_t kRip = static_cast<std::size_t>(Reg::rip);
constexpr std::size_t kRflags = static_cast<std::size_t>(Reg::rflags);

}  // namespace

template <bool Trace, bool Shadow>
StepInfo Cpu::run_jit_loop(std::uint64_t max_steps, bool& deopted,
                           std::uint64_t& deopt_remaining) {
  const jit::CompiledProgram& cp = *jit_;
  const jit::OpEntry* const ops = cp.ops.data();
  const Addr base = cp.base;
  const Addr size = cp.code_size;
  Memory& mem = *mem_;
  // The register file is its own array: nothing the loop stores through
  // (region data, the trace buffer) aliases it, and telling the compiler
  // so keeps operand loads out of the store-reload chains.
  Word* const __restrict regs = regs_.data();
  std::vector<Addr>* const trace = trace_;
  const Word tsc0 = tsc_;

  // Signed on purpose: a mid-superblock entry subtracts the entry op's
  // prefixes, so the accumulators dip below zero until the matching exit
  // adds the exit op's prefixes back.  At every superblock boundary they
  // hold the true totals.
  std::int64_t executed = 0;
  std::int64_t branches = 0;
  std::int64_t loads = 0;
  std::int64_t stores = 0;

  const auto flush = [&] {
    tsc_ = tsc0 + static_cast<Word>(executed) * kTscPerStep;
    steps_ += static_cast<std::uint64_t>(executed);
    counters_.retire_block(static_cast<std::uint64_t>(executed),
                           static_cast<std::uint64_t>(branches),
                           static_cast<std::uint64_t>(loads),
                           static_cast<std::uint64_t>(stores));
  };
  const auto set_cmp = [&](Word a, Word b) {
    Word f = 0;
    if (a == b) f |= kFlagZero;
    if (static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b)) {
      f |= kFlagSign;
    }
    if (a < b) f |= kFlagCarry;
    regs[kRflags] = f;
  };
  const auto set_res = [&](Word res) {
    Word f = 0;
    if (res == 0) f |= kFlagZero;
    if (static_cast<std::int64_t>(res) < 0) f |= kFlagSign;
    regs[kRflags] = f;
  };

  // Label table, same order as the Handler enum.
  const void* const labels[] = {
#define XENTRY_JIT_LABEL_ENTRY(name) &&h_##name,
      XENTRY_JIT_HANDLERS(XENTRY_JIT_LABEL_ENTRY)
#undef XENTRY_JIT_LABEL_ENTRY
  };
  static_assert(sizeof(labels) / sizeof(labels[0]) == jit::kNumHandlers);

  StepInfo info;
  const jit::OpEntry* ip = ops;
  Addr taddr = 0;
  Addr cur = 0;
  Trap tr;

  // Two-entry software TLB: flat {base, read size, write size, data}
  // views of the last-hit pages, held in locals so a hit is one
  // compare plus one load — the region-vector walk inside Memory is a
  // dependent-load chain that would otherwise dominate every memory op
  // now that dispatch is cheap.  Entry 0 is the most recent; refills
  // rotate 0 into 1.  A read-install leaves the write size 0, so the
  // first write through that page re-installs it and bumps the page's
  // mutation generation exactly once before any raw store
  // (Memory::DirectSpan documents why that preserves the generation
  // contract).  Two entries cover the stack/data alternation of handler
  // code; shadow-stack mirror accesses go through Memory's own hinted
  // path instead so they do not thrash the pair.
  Addr t0b = 0, t0s = 0, t0ws = 0;
  Addr t1b = 0, t1s = 0, t1ws = 0;
  Word* t0d = nullptr;
  Word* t1d = nullptr;

  if (max_steps == 0) {
    // The reference engine watchdogs before fetching anything.
    info.status = StepInfo::Status::Trapped;
    info.trap = Trap{TrapKind::Watchdog, regs[kRip], 0};
    info.rip_before = regs[kRip];
    return info;
  }
  taddr = regs[kRip];
  goto enter_far;

// Advance to the next slot of the current superblock.  The retire itself
// is free: it is pre-aggregated in the next ops' prefixes.
#define XJ_CUR() (base + static_cast<Addr>(ip - ops))
#define XJ_NEXT()                            \
  do {                                       \
    if constexpr (Trace) {                   \
      trace->push_back(XJ_CUR());            \
    }                                        \
    ++ip;                                    \
    goto* labels[ip->handler];               \
  } while (0)

// Account a taken control transfer: the branch retires here (its own
// class counts included), closing out the superblock prefix.
#define XJ_RETIRE_BRANCH()                   \
  do {                                       \
    if constexpr (Trace) {                   \
      trace->push_back(XJ_CUR());            \
    }                                        \
    executed += ip->pre_retired + 1;         \
    branches += ip->pre_branches + 1;        \
    loads += ip->pre_loads;                  \
    stores += ip->pre_stores;                \
  } while (0)

#define XJ_ALU(name, expr)                   \
  h_##name : {                               \
    const Word res = (expr);                 \
    set_res(res);                            \
    regs[ip->r1] = res;                      \
  }                                          \
  XJ_NEXT()

// Superblock entry, replicated at every transfer site so each transfer
// op owns a private indirect-branch slot (a single shared entry dispatch
// would fold every branch/call/ret target into one predictor entry and
// mispredict constantly).  One budget check covers the whole superblock;
// the entry op's prefixes are subtracted so the accumulators read true
// totals at the next exit.
#define XJ_ENTER()                                                        \
  do {                                                                    \
    if (max_steps - static_cast<std::uint64_t>(executed) <                \
        ip->sb_remaining) {                                               \
      goto deopt;                                                         \
    }                                                                     \
    executed -= ip->pre_retired;                                          \
    branches -= ip->pre_branches;                                         \
    loads -= ip->pre_loads;                                               \
    stores -= ip->pre_stores;                                             \
    goto* labels[ip->handler];                                            \
  } while (0)

#define XJ_JCC(name, cond)                   \
  h_##name:                                  \
  if (cond) {                                \
    XJ_RETIRE_BRANCH();                      \
    if (ip->target != jit::kNoTarget) {      \
      ip = ops + ip->target;                 \
      XJ_ENTER();                            \
    }                                        \
    taddr = static_cast<Addr>(ip->imm);      \
    goto exit_oor;                           \
  }                                          \
  XJ_NEXT()

#define XJ_ASSERT(name, fail_cond)                           \
  h_##name:                                                  \
  if (fail_cond) {                                           \
    tr = Trap{TrapKind::AssertFailed, XJ_CUR(), ip->aux};    \
    goto trap_exit;                                          \
  }                                                          \
  XJ_NEXT()

// Reads the word at `a` into `out`.  Sets `tr` only when the address is
// unmapped (`tr` is always kind None while the loop runs: every path
// that makes it truthy exits).  The miss path installs the page's
// direct view for next time; mem.read on a genuinely unmapped address
// produces the exact architectural trap.
#define XJ_READ(a, out)                                               \
  do {                                                                \
    const Addr xr_a = (a);                                            \
    Addr xr_o = xr_a - t0b;                                           \
    if (xr_o < t0s) {                                                 \
      out = t0d[xr_o];                                                \
    } else if ((xr_o = xr_a - t1b) < t1s) {                           \
      out = t1d[xr_o];                                                \
    } else {                                                          \
      const Memory::DirectSpan xr_s = mem.direct_span(xr_a);          \
      if (xr_s.size != 0) {                                           \
        t1b = t0b; t1s = t0s; t1ws = t0ws; t1d = t0d;                 \
        t0b = xr_s.base; t0s = xr_s.size; t0ws = 0; t0d = xr_s.data;  \
        out = t0d[xr_a - t0b];                                        \
      } else {                                                        \
        tr = mem.read(xr_a, out);                                     \
      }                                                               \
    }                                                                 \
  } while (0)

// Writes `v` at `a`; sets `tr` when unmapped or read-only.  A write
// install bumps the page generation once, before the first raw store.
#define XJ_WRITE(a, v)                                                \
  do {                                                                \
    const Addr xw_a = (a);                                            \
    const Word xw_v = (v);                                            \
    Addr xw_o = xw_a - t0b;                                           \
    if (xw_o < t0ws) {                                                \
      t0d[xw_o] = xw_v;                                               \
    } else if ((xw_o = xw_a - t1b) < t1ws) {                          \
      t1d[xw_o] = xw_v;                                               \
    } else {                                                          \
      const Memory::DirectSpan xw_s = mem.direct_span(xw_a);          \
      if (xw_s.size != 0 && xw_s.writable) {                          \
        ++*xw_s.gen;                                                  \
        t1b = t0b; t1s = t0s; t1ws = t0ws; t1d = t0d;                 \
        t0b = xw_s.base; t0s = t0ws = xw_s.size; t0d = xw_s.data;     \
        t0d[xw_a - t0b] = xw_v;                                       \
      } else {                                                        \
        tr = mem.write(xw_a, xw_v);                                   \
      }                                                               \
    }                                                                 \
  } while (0)

enter_far:
  // taddr is an absolute transfer target; accumulators hold true totals.
  if (taddr - base < size) {
    ip = ops + (taddr - base);
    XJ_ENTER();
  }
  goto exit_oor;

exit_oor:
  // Control reached an address outside the code image.  The reference
  // engine's loop head watchdogs first when the budget is spent;
  // otherwise the instruction fetch page-faults.  No masks either way.
  regs[kRip] = taddr;
  flush();
  info.status = StepInfo::Status::Trapped;
  info.trap = static_cast<std::uint64_t>(executed) >= max_steps
                  ? Trap{TrapKind::Watchdog, taddr, 0}
                  : Trap{TrapKind::PageFault, taddr, 0};
  info.rip_before = taddr;
  return info;

deopt:
  // Remaining budget below this superblock's worst case: flush exact
  // state and let the interpreter's per-step watchdog walk the tail.
  regs[kRip] = XJ_CUR();
  flush();
  deopted = true;
  deopt_remaining = max_steps - static_cast<std::uint64_t>(executed);
  return info;

watchdog:
  // Budget exhausted at a non-retiring op (Hlt/Ud/off-end would need a
  // step the watchdog no longer grants).
  executed += ip->pre_retired;
  branches += ip->pre_branches;
  loads += ip->pre_loads;
  stores += ip->pre_stores;
  cur = XJ_CUR();
  regs[kRip] = cur;
  flush();
  info.status = StepInfo::Status::Trapped;
  info.trap = Trap{TrapKind::Watchdog, cur, 0};
  info.rip_before = cur;
  return info;

trap_exit:
  // `tr` describes the trap raised by the op at `ip`, which does not
  // retire.  Masks mirror the interpreter exit: computed from the
  // faulting instruction when mask tracking is on.
  executed += ip->pre_retired;
  branches += ip->pre_branches;
  loads += ip->pre_loads;
  stores += ip->pre_stores;
  cur = XJ_CUR();
  regs[kRip] = cur;
  flush();
  info.status = StepInfo::Status::Trapped;
  info.trap = tr;
  info.rip_before = cur;
  if (track_masks_) {
    const Instruction& insn = prog_->at(cur);
    info.read_mask = regs_read(insn);
    info.written_mask = regs_written(insn);
  }
  return info;

h_Nop:
  XJ_NEXT();

h_MovRR:
  regs[ip->r1] = regs[ip->r2];
  XJ_NEXT();

h_MovRI:
  regs[ip->r1] = static_cast<Word>(ip->imm);
  XJ_NEXT();

h_Load: {
  Word v = 0;
  XJ_READ(regs[ip->r2] + static_cast<Word>(ip->imm), v);
  if (tr) goto trap_exit;
  regs[ip->r1] = v;
}
  XJ_NEXT();

h_Store:
  XJ_WRITE(regs[ip->r1] + static_cast<Word>(ip->imm), regs[ip->r2]);
  if (tr) goto trap_exit;
  XJ_NEXT();

h_Push: {
  const Word sp = regs[kRsp] - 1;
  XJ_WRITE(sp, regs[ip->r1]);
  if (tr) {
    tr.kind = TrapKind::StackFault;
    goto trap_exit;
  }
  regs[kRsp] = sp;
  if constexpr (Shadow) {
    // The mirror stores the complement so a stale/never-pushed slot pair
    // (0, 0) cannot masquerade as consistent.  Mirror faults keep their
    // own kind (the interpreter does not coerce them to StackFault).
    tr = mem.write(sp + static_cast<Word>(shadow_offset_), ~regs[ip->r1]);
    if (tr) goto trap_exit;
  }
}
  XJ_NEXT();

h_Pop: {
  Word v = 0;
  XJ_READ(regs[kRsp], v);
  if constexpr (Shadow) {
    if (!tr) {
      Word mirror = 0;
      tr = mem.read(regs[kRsp] + static_cast<Word>(shadow_offset_), mirror);
      if (!tr && mirror != ~v) {
        tr = Trap{TrapKind::StackCheck, regs[kRsp], 0};
      }
    }
  }
  if (tr) {
    if (tr.kind != TrapKind::StackCheck) tr.kind = TrapKind::StackFault;
    goto trap_exit;
  }
  regs[kRsp] += 1;
  regs[ip->r1] = v;
}
  XJ_NEXT();

  XJ_ALU(AddRR, regs[ip->r1] + regs[ip->r2]);
  XJ_ALU(AddRI, regs[ip->r1] + static_cast<Word>(ip->imm));

h_SubRR: {
  const Word a = regs[ip->r1];
  const Word b = regs[ip->r2];
  set_cmp(a, b);
  regs[ip->r1] = a - b;
}
  XJ_NEXT();

h_SubRI: {
  const Word a = regs[ip->r1];
  const Word b = static_cast<Word>(ip->imm);
  set_cmp(a, b);
  regs[ip->r1] = a - b;
}
  XJ_NEXT();

  XJ_ALU(MulRR, regs[ip->r1] * regs[ip->r2]);

h_DivR: {
  const Word d = regs[ip->r1];
  if (d == 0) {
    tr = Trap{TrapKind::DivideError, XJ_CUR(), 0};
    goto trap_exit;
  }
  const Word a = regs[kRax];
  regs[kRax] = a / d;
  regs[kRdx] = a % d;
  set_res(a / d);
}
  XJ_NEXT();

  XJ_ALU(AndRR, regs[ip->r1] & regs[ip->r2]);
  XJ_ALU(AndRI, regs[ip->r1] & static_cast<Word>(ip->imm));
  XJ_ALU(OrRR, regs[ip->r1] | regs[ip->r2]);
  XJ_ALU(OrRI, regs[ip->r1] | static_cast<Word>(ip->imm));
  XJ_ALU(XorRR, regs[ip->r1] ^ regs[ip->r2]);
  XJ_ALU(XorRI, regs[ip->r1] ^ static_cast<Word>(ip->imm));
  XJ_ALU(ShlRI, regs[ip->r1] << (ip->imm & 63));
  XJ_ALU(ShrRI, regs[ip->r1] >> (ip->imm & 63));
  XJ_ALU(ShlRR, regs[ip->r1] << (regs[ip->r2] & 63));
  XJ_ALU(ShrRR, regs[ip->r1] >> (regs[ip->r2] & 63));
  XJ_ALU(Neg, 0 - regs[ip->r1]);
  XJ_ALU(Not, ~regs[ip->r1]);
  XJ_ALU(Inc, regs[ip->r1] + 1);
  XJ_ALU(Dec, regs[ip->r1] - 1);

h_CmpRR:
  set_cmp(regs[ip->r1], regs[ip->r2]);
  XJ_NEXT();

h_CmpRI:
  set_cmp(regs[ip->r1], static_cast<Word>(ip->imm));
  XJ_NEXT();

h_TestRR:
  set_res(regs[ip->r1] & regs[ip->r2]);
  XJ_NEXT();

h_TestRI:
  set_res(regs[ip->r1] & static_cast<Word>(ip->imm));
  XJ_NEXT();

h_Jmp:
  XJ_RETIRE_BRANCH();
  if (ip->target != jit::kNoTarget) {
    ip = ops + ip->target;
    XJ_ENTER();
  }
  taddr = static_cast<Addr>(ip->imm);
  goto exit_oor;

h_JmpR:
  taddr = regs[ip->r1];
  XJ_RETIRE_BRANCH();
  if (taddr - base < size) {
    ip = ops + (taddr - base);
    XJ_ENTER();
  }
  goto exit_oor;

  XJ_JCC(Je, (regs[kRflags] & kFlagZero) != 0);
  XJ_JCC(Jne, (regs[kRflags] & kFlagZero) == 0);
  XJ_JCC(Jl, (regs[kRflags] & kFlagSign) != 0);
  XJ_JCC(Jle, (regs[kRflags] & (kFlagSign | kFlagZero)) != 0);
  XJ_JCC(Jg, (regs[kRflags] & (kFlagSign | kFlagZero)) == 0);
  XJ_JCC(Jge, (regs[kRflags] & kFlagSign) == 0);
  XJ_JCC(Jb, (regs[kRflags] & kFlagCarry) != 0);
  XJ_JCC(Jae, (regs[kRflags] & kFlagCarry) == 0);

h_Call: {
  const Addr ret = XJ_CUR() + 1;
  const Word sp = regs[kRsp] - 1;
  XJ_WRITE(sp, ret);
  if (tr) {
    tr.kind = TrapKind::StackFault;
    goto trap_exit;
  }
  regs[kRsp] = sp;
  if constexpr (Shadow) {
    tr = mem.write(sp + static_cast<Word>(shadow_offset_), ~ret);
    if (tr) goto trap_exit;
  }
  if constexpr (Trace) {
    trace->push_back(ret - 1);
  }
  executed += ip->pre_retired + 1;
  branches += ip->pre_branches + 1;
  loads += ip->pre_loads;
  stores += ip->pre_stores + 1;
  if (ip->target != jit::kNoTarget) {
    ip = ops + ip->target;
    XJ_ENTER();
  }
  taddr = static_cast<Addr>(ip->imm);
  goto exit_oor;
}

h_Ret: {
  Word ra = 0;
  XJ_READ(regs[kRsp], ra);
  if constexpr (Shadow) {
    if (!tr) {
      Word mirror = 0;
      tr = mem.read(regs[kRsp] + static_cast<Word>(shadow_offset_), mirror);
      if (!tr && mirror != ~ra) {
        tr = Trap{TrapKind::StackCheck, regs[kRsp], 0};
      }
    }
  }
  if (tr) {
    if (tr.kind != TrapKind::StackCheck) tr.kind = TrapKind::StackFault;
    goto trap_exit;
  }
  regs[kRsp] += 1;
  if constexpr (Trace) {
    trace->push_back(XJ_CUR());
  }
  executed += ip->pre_retired + 1;
  branches += ip->pre_branches + 1;
  loads += ip->pre_loads + 1;
  stores += ip->pre_stores;
  taddr = ra;
  if (taddr - base < size) {
    ip = ops + (taddr - base);
    XJ_ENTER();
  }
  goto exit_oor;
}

h_Rdtsc:
  // TSC is implicit: base value plus retires so far, exactly what the
  // interpreter's per-step accumulation would read here.
  regs[ip->r1] =
      tsc0 + static_cast<Word>(executed + ip->pre_retired) * kTscPerStep;
  XJ_NEXT();

h_Hlt:
  // hlt is the VM-entry gate; it does not retire as hypervisor work, and
  // the reference engine watchdogs first when the budget is spent.
  if (static_cast<std::uint64_t>(executed + ip->pre_retired) >= max_steps) {
    goto watchdog;
  }
  executed += ip->pre_retired;
  branches += ip->pre_branches;
  loads += ip->pre_loads;
  stores += ip->pre_stores;
  cur = XJ_CUR();
  regs[kRip] = cur;
  flush();
  info.status = StepInfo::Status::Halted;
  info.rip_before = cur;
  if (track_masks_) {
    const Instruction& insn = prog_->at(cur);
    info.read_mask = regs_read(insn);
    info.written_mask = regs_written(insn);
  }
  return info;

  XJ_ASSERT(AssertLeRI, static_cast<std::int64_t>(regs[ip->r1]) > ip->imm);
  XJ_ASSERT(AssertGeRI, static_cast<std::int64_t>(regs[ip->r1]) < ip->imm);
  XJ_ASSERT(AssertEqRI, regs[ip->r1] != static_cast<Word>(ip->imm));
  XJ_ASSERT(AssertNeRI, regs[ip->r1] == static_cast<Word>(ip->imm));
  XJ_ASSERT(AssertEqRR, regs[ip->r1] != regs[ip->r2]);
  XJ_ASSERT(AssertLtRR, regs[ip->r1] >= regs[ip->r2]);

// Macro-fused compare+branch: set flags, retire the compare (trace push
// is its retirement; the count is pre-aggregated in the branch slot's
// prefixes), advance the cursor, and fall straight into the branch
// handler's code — one dispatch for the pair.
#define XJ_FUSE(cname, jname, cmpstmt)               \
  h_Fuse##cname##jname:                              \
  cmpstmt;                                           \
  if constexpr (Trace) {                             \
    trace->push_back(XJ_CUR());                      \
  }                                                  \
  ++ip;                                              \
  goto h_##jname;

#define XJ_FUSE8(cname, cmpstmt)                     \
  XJ_FUSE(cname, Je, cmpstmt)                        \
  XJ_FUSE(cname, Jne, cmpstmt)                       \
  XJ_FUSE(cname, Jl, cmpstmt)                        \
  XJ_FUSE(cname, Jle, cmpstmt)                       \
  XJ_FUSE(cname, Jg, cmpstmt)                        \
  XJ_FUSE(cname, Jge, cmpstmt)                       \
  XJ_FUSE(cname, Jb, cmpstmt)                        \
  XJ_FUSE(cname, Jae, cmpstmt)

  XJ_FUSE8(CmpRR, set_cmp(regs[ip->r1], regs[ip->r2]))
  XJ_FUSE8(CmpRI, set_cmp(regs[ip->r1], static_cast<Word>(ip->imm)))
  XJ_FUSE8(TestRR, set_res(regs[ip->r1] & regs[ip->r2]))
  XJ_FUSE8(TestRI, set_res(regs[ip->r1] & static_cast<Word>(ip->imm)))

h_Ud:
  if (static_cast<std::uint64_t>(executed + ip->pre_retired) >= max_steps) {
    goto watchdog;
  }
  tr = Trap{TrapKind::InvalidOpcode, XJ_CUR(), 0};
  goto trap_exit;

h_OffEnd:
  // Fell through past the last instruction slot: everything before the
  // sentinel retired, then the fetch at base+size faults (or the
  // watchdog fires first — exit_oor orders that check).
  executed += ip->pre_retired;
  branches += ip->pre_branches;
  loads += ip->pre_loads;
  stores += ip->pre_stores;
  taddr = XJ_CUR();
  goto exit_oor;

h_SyncRip:
  // This op reads rip as a data operand: materialize it, then chain to
  // the real handler carried in `target`.
  regs[kRip] = XJ_CUR();
  goto* labels[ip->target];

#undef XJ_CUR
#undef XJ_NEXT
#undef XJ_RETIRE_BRANCH
#undef XJ_ALU
#undef XJ_ENTER
#undef XJ_JCC
#undef XJ_ASSERT
#undef XJ_READ
#undef XJ_WRITE
#undef XJ_FUSE
#undef XJ_FUSE8
}

StepInfo Cpu::run_jit(std::uint64_t max_steps) {
  bool deopted = false;
  std::uint64_t remaining = 0;
  StepInfo info;
  const unsigned key =
      (trace_ != nullptr ? 1u : 0u) | (shadow_enabled_ ? 2u : 0u);
  switch (key) {
    case 0:
      info = run_jit_loop<false, false>(max_steps, deopted, remaining);
      break;
    case 1:
      info = run_jit_loop<true, false>(max_steps, deopted, remaining);
      break;
    case 2:
      info = run_jit_loop<false, true>(max_steps, deopted, remaining);
      break;
    default:
      info = run_jit_loop<true, true>(max_steps, deopted, remaining);
      break;
  }
  if (!deopted) return info;
  // Deopt tail: architectural state is exact; the interpreter finishes
  // the remaining (watchdog-tight) budget with per-step checks.
  return run_interp(remaining);
}

#else  // !defined(__GNUC__)

// Computed goto unavailable: the threaded engine degrades to the fast
// interpreter, which is bit-identical (just slower).
StepInfo Cpu::run_jit(std::uint64_t max_steps) { return run_interp(max_steps); }

#endif

}  // namespace xentry::sim
