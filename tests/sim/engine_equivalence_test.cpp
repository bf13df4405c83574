// Differential harness: the mode-specialized fast engine must be
// bit-identical to the single-step reference engine on every architectural
// observable — final StepInfo, all 18 registers, retired step count, TSC,
// performance counters, recorded trace, and memory contents — across
// randomly generated programs, every trap path, and all eight
// trace/split/shadow mode combinations (in split mode the fast engine's
// run is cut into pieces of seeded lengths, each resumed with another
// Cpu::run call, as hv::Machine::run resumes at the flip point and at
// every hang-proof chunk).  Also pins down macro-op
// fusion legality at basic-block boundaries, and fixed programs the
// generator rarely produces: every tight watchdog budget on a long loop, an
// indirect jump into the middle of a straight-line run, out-of-image
// control transfers, and a load and a store whose addresses walk across
// regions (the Fast engine's per-instruction region hints).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sim/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/memory.hpp"

namespace xentry::sim {
namespace {

constexpr Addr kCodeBase = 0x400000;
constexpr Addr kDataBase = 0x10000;
constexpr Addr kDataSize = 0x100;
constexpr Addr kStackBase = 0x20000;
constexpr Addr kStackSize = 0x100;
constexpr Addr kStackTop = kStackBase + 0x80;  // room to pop upward too
constexpr std::int64_t kShadowOffset = 0x5000;

Memory make_memory() {
  Memory mem;
  mem.map(kDataBase, kDataSize, Perm::ReadWrite, "data");
  mem.map(0x11000, 0x40, Perm::Read, "rodata");
  mem.map(kStackBase, kStackSize, Perm::ReadWrite, "stack");
  mem.map(kStackBase + static_cast<Addr>(kShadowOffset), kStackSize,
          Perm::ReadWrite, "shadow_stack");
  return mem;
}

/// Every opcode the generator can emit, weighted towards the interesting
/// ones (memory ops, stack ops, compare+branch pairs for fusion).
const Opcode kOpcodePool[] = {
    Opcode::Nop,       Opcode::MovRR,    Opcode::MovRI,    Opcode::Load,
    Opcode::Load,      Opcode::Store,    Opcode::Store,    Opcode::Push,
    Opcode::Push,      Opcode::Pop,      Opcode::Pop,      Opcode::AddRR,
    Opcode::AddRI,     Opcode::SubRR,    Opcode::SubRI,    Opcode::MulRR,
    Opcode::DivR,      Opcode::AndRR,    Opcode::AndRI,    Opcode::OrRR,
    Opcode::OrRI,      Opcode::XorRR,    Opcode::XorRI,    Opcode::ShlRI,
    Opcode::ShrRI,     Opcode::ShlRR,    Opcode::ShrRR,    Opcode::Neg,
    Opcode::Not,       Opcode::Inc,      Opcode::Dec,      Opcode::CmpRR,
    Opcode::CmpRI,     Opcode::CmpRR,    Opcode::CmpRI,    Opcode::TestRR,
    Opcode::TestRI,    Opcode::Jmp,      Opcode::JmpR,     Opcode::Je,
    Opcode::Jne,       Opcode::Jl,       Opcode::Jle,      Opcode::Jg,
    Opcode::Jge,       Opcode::Jb,       Opcode::Jae,      Opcode::Call,
    Opcode::Ret,       Opcode::Rdtsc,    Opcode::Hlt,      Opcode::AssertLeRI,
    Opcode::AssertGeRI, Opcode::AssertEqRI, Opcode::AssertNeRI,
    Opcode::AssertEqRR, Opcode::AssertLtRR, Opcode::Ud,
};

/// A random program over the full ISA.  Immediates for branches/calls land
/// mostly inside the code image (including on and between fusable pairs),
/// occasionally outside it (#PF paths); memory displacements mostly hit the
/// data region.  Assembled through Program's constructor, so fusion
/// metadata is computed exactly as for real workloads.
Program random_program(std::mt19937_64& rng, std::size_t len) {
  std::uniform_int_distribution<std::size_t> pick_op(
      0, std::size(kOpcodePool) - 1);
  std::uniform_int_distribution<int> pick_reg(0, kNumArchRegs - 1);
  std::uniform_int_distribution<std::int64_t> pick_target(
      -2, static_cast<std::int64_t>(len) + 1);
  std::uniform_int_distribution<std::int64_t> pick_disp(-4, kDataSize + 4);
  std::uniform_int_distribution<std::int64_t> pick_imm(-64, 64);
  std::bernoulli_distribution data_addr(0.5);

  std::vector<Instruction> code(len);
  for (Instruction& insn : code) {
    insn.op = kOpcodePool[pick_op(rng)];
    insn.r1 = static_cast<Reg>(pick_reg(rng));
    insn.r2 = static_cast<Reg>(pick_reg(rng));
    insn.aux = static_cast<std::uint32_t>(pick_imm(rng) & 0xff);
    switch (insn.op) {
      case Opcode::Jmp: case Opcode::Je: case Opcode::Jne:
      case Opcode::Jl: case Opcode::Jle: case Opcode::Jg:
      case Opcode::Jge: case Opcode::Jb: case Opcode::Jae:
      case Opcode::Call:
        insn.imm = static_cast<std::int64_t>(kCodeBase) + pick_target(rng);
        break;
      case Opcode::Load:
      case Opcode::Store:
        insn.imm = pick_disp(rng);
        break;
      case Opcode::MovRI:
        // Sometimes a data/code address (indirect-jump material, which
        // also feeds the fusion landing set), sometimes a small scalar.
        insn.imm = data_addr(rng)
                       ? static_cast<std::int64_t>(kCodeBase) + pick_target(rng)
                       : pick_imm(rng);
        break;
      default:
        insn.imm = pick_imm(rng);
        break;
    }
  }
  return Program(kCodeBase, std::move(code), {});
}

struct EngineState {
  StepInfo info;
  std::array<Word, kNumArchRegs> regs;
  std::uint64_t steps = 0;
  Word tsc = 0;
  PerfSnapshot counters;
  std::vector<Addr> trace;
  Memory::Snapshot memory;
  std::uint64_t resumptions = 0;
};

/// Runs `prog` from a seeded register soup.  With `split`, the run is cut
/// into pieces of 1 to 16 steps (seeded), each resumed with another
/// Cpu::run call until the run ends or `max_steps` have retired.
EngineState run_engine(const Program& prog, std::uint64_t seed,
                       EngineKind kind, bool trace, bool split, bool shadow,
                       std::uint64_t max_steps) {
  Memory mem = make_memory();
  Cpu cpu(&prog, &mem);
  cpu.reset(prog.base(), kStackTop);
  cpu.set_tsc(seed & 0xffff);
  cpu.set_engine(kind);

  // Deterministic initial register soup (same for both engines).
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Word> pick(0, ~Word{0});
  for (int r = 0; r < kNumArchRegs; ++r) {
    const Reg reg = static_cast<Reg>(r);
    if (reg == Reg::rip || reg == Reg::rsp) continue;
    // Mostly small values and valid addresses; raw 64-bit soup sometimes.
    const Word v = pick(rng);
    cpu.set_reg(reg, (v & 3) == 0 ? v
                                  : (v & 1) ? (kDataBase + (v & 0xff))
                                            : (v & 0x3f));
  }

  EngineState st;
  if (trace) cpu.set_trace(&st.trace);
  if (shadow) cpu.enable_shadow_stack(kShadowOffset);
  cpu.counters().arm();

  std::mt19937_64 pieces(~seed);
  std::uniform_int_distribution<std::uint64_t> piece(1, 16);
  const auto next_piece = [&] {
    const std::uint64_t left = max_steps - cpu.steps_executed();
    return split ? std::min(piece(pieces), left) : left;
  };
  st.info = cpu.run(next_piece());
  while (st.info.trap.kind == TrapKind::Watchdog &&
         cpu.steps_executed() < max_steps) {
    ++st.resumptions;
    st.info = cpu.run(next_piece());
  }
  st.regs = cpu.regs();
  st.steps = cpu.steps_executed();
  st.tsc = cpu.tsc();
  st.counters = cpu.counters().disarm();
  st.memory = mem.snapshot();
  return st;
}

void expect_equivalent(const EngineState& a, const EngineState& b,
                       const std::string& what) {
  EXPECT_EQ(a.info.status, b.info.status) << what;
  EXPECT_EQ(a.info.trap.kind, b.info.trap.kind) << what;
  EXPECT_EQ(a.info.trap.fault_addr, b.info.trap.fault_addr) << what;
  EXPECT_EQ(a.info.trap.aux, b.info.trap.aux) << what;
  EXPECT_EQ(a.info.rip_before, b.info.rip_before) << what;
  EXPECT_EQ(a.regs, b.regs) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.tsc, b.tsc) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_TRUE(a.memory == b.memory) << what;
}

TEST(EngineEquivalenceTest, RandomProgramsAllModeCombinations) {
  std::mt19937_64 rng(0x1234abcdu);
  int halted = 0, trapped = 0, watchdogged = 0, fused_programs = 0;
  std::uint64_t resumptions = 0;
  for (int p = 0; p < 400; ++p) {
    const std::size_t len = 4 + (p % 60);
    const Program prog = random_program(rng, len);
    for (std::size_t off = 0; off + 1 < prog.size(); ++off) {
      if (prog.fused(off).fused) {
        ++fused_programs;
        break;
      }
    }
    const std::uint64_t seed = rng();
    const std::uint64_t max_steps = 1 + (seed % 300);
    for (unsigned mode = 0; mode < 8; ++mode) {
      const bool trace = mode & 1, split = mode & 2, shadow = mode & 4;
      const std::string what =
          "program " + std::to_string(p) + " mode " + std::to_string(mode);
      const EngineState ref = run_engine(prog, seed, EngineKind::Reference,
                                         trace, false, shadow, max_steps);
      const EngineState fast = run_engine(prog, seed, EngineKind::Fast, trace,
                                          split, shadow, max_steps);
      expect_equivalent(fast, ref, what);
      resumptions += fast.resumptions;
      if (mode == 0) {
        if (fast.info.status == StepInfo::Status::Halted) ++halted;
        else if (fast.info.trap.kind == TrapKind::Watchdog) ++watchdogged;
        else ++trapped;
      }
    }
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
  // The generator must actually exercise every exit class and fusion.
  EXPECT_GT(halted, 0);
  EXPECT_GT(trapped, 0);
  EXPECT_GT(watchdogged, 0);
  EXPECT_GT(fused_programs, 100);
  EXPECT_GT(resumptions, 1000u);
}

TEST(EngineEquivalenceTest, FusedPairRetiresAsTwoInstructions) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 5);
  const auto out = as.make_label();
  as.cmpi(Reg::rax, 5);  // fusable head
  as.je(out);            // fused tail, taken
  as.movi(Reg::rbx, 1);  // skipped
  as.bind(out);
  as.hlt();
  const Program prog = as.finish();
  ASSERT_TRUE(prog.fused(1).fused);
  EXPECT_EQ(prog.fused(1).jcc, Opcode::Je);

  Memory mem = make_memory();
  Cpu cpu(&prog, &mem);
  cpu.reset(prog.base(), kStackTop);
  std::vector<Addr> trace;
  cpu.set_trace(&trace);
  cpu.counters().arm();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);

  // movi + cmp + je retire; the pair contributes two trace entries, two
  // retired instructions (one branch), and two TSC ticks.
  EXPECT_EQ(cpu.steps_executed(), 3u);
  EXPECT_EQ(cpu.tsc(), 3 * kTscPerStep);
  const PerfSnapshot counters = cpu.counters().disarm();
  EXPECT_EQ(counters.inst_retired, 3u);
  EXPECT_EQ(counters.branches, 1u);
  const std::vector<Addr> want = {kCodeBase, kCodeBase + 1, kCodeBase + 2};
  EXPECT_EQ(trace, want);
  EXPECT_EQ(cpu.reg(Reg::rbx), 0u);  // the not-taken slot was skipped
}

TEST(EngineEquivalenceTest, JumpTargetBetweenPairBlocksFusion) {
  // A branch landing directly on the Jcc slot means control flow can enter
  // between head and tail: the pair must not fuse.
  Assembler as(kCodeBase);
  const auto jcc_slot = as.make_label();
  const auto end = as.make_label();
  as.movi(Reg::rax, 1);
  as.cmpi(Reg::rax, 1);  // head (slot 1)
  as.bind(jcc_slot);
  as.je(end);  // tail (slot 2) — also a landing point
  as.jmp(jcc_slot);
  as.bind(end);
  as.hlt();
  const Program prog = as.finish();
  EXPECT_FALSE(prog.fused(1).fused);
}

TEST(EngineEquivalenceTest, MovRIOfCodeAddressBlocksFusion) {
  // MovRI of a label is indirect-jump material: if the loaded address is
  // the Jcc slot, a JmpR may land between the pair, so fusion is illegal.
  Assembler as(kCodeBase);
  const auto tail = as.make_label();
  const auto end = as.make_label();
  as.movi(Reg::rcx, tail);  // rcx = address of the je below
  as.cmpi(Reg::rax, 0);     // head (slot 1)
  as.bind(tail);
  as.je(end);  // tail (slot 2)
  as.bind(end);
  as.hlt();
  const Program prog = as.finish();
  EXPECT_FALSE(prog.fused(1).fused);
}

TEST(EngineEquivalenceTest, SymbolOnTailBlocksFusion) {
  Assembler as(kCodeBase);
  const auto end = as.make_label();
  as.cmpi(Reg::rax, 0);  // head (slot 0)
  as.global("entry2");   // dispatchable entry right on the tail
  as.je(end);
  as.bind(end);
  as.hlt();
  const Program prog = as.finish();
  EXPECT_FALSE(prog.fused(0).fused);
}

TEST(EngineEquivalenceTest, CallReturnSiteLandsOnHeadNotTail) {
  // A call's return site is the slot right after it.  When that slot is a
  // fusable pair's *head*, control entering there still executes both
  // instructions of the pair — fusion stays legal.  (A return site can
  // never be a pair's tail: that would put the call in the head slot, and
  // a call is not a fusable head.)
  Assembler as(kCodeBase);
  const auto skip = as.make_label();
  as.jmp(skip);
  as.global("leaf");
  as.ret();
  as.bind(skip);
  as.call("leaf");       // slot 2; return site is slot 3
  as.cmpi(Reg::rax, 0);  // slot 3: head, and a landing point
  as.je(skip);           // slot 4: tail, not a landing point
  as.hlt();
  const Program prog = as.finish();
  EXPECT_TRUE(prog.fused(3).fused);
}

TEST(EngineEquivalenceTest, WatchdogBoundarySplitsFusedPair) {
  // max_steps expiring between head and tail: the fast loop must execute
  // the head alone and then watchdog, exactly like the reference engine.
  // test rax,0 sets ZF for any rax, so the loop never exits.
  Assembler as(kCodeBase);
  const auto loop = as.here();
  as.testi(Reg::rax, 0);
  as.je(loop);
  as.hlt();
  const Program prog = as.finish();
  ASSERT_TRUE(prog.fused(0).fused);

  for (std::uint64_t max_steps = 1; max_steps <= 5; ++max_steps) {
    const EngineState ref = run_engine(prog, 42, EngineKind::Reference, true,
                                       false, false, max_steps);
    const EngineState fast = run_engine(prog, 42, EngineKind::Fast, true,
                                        false, false, max_steps);
    expect_equivalent(fast, ref, "max_steps " + std::to_string(max_steps));
    EXPECT_EQ(fast.info.trap.kind, TrapKind::Watchdog);
    EXPECT_EQ(fast.steps, max_steps);
  }
}

TEST(EngineEquivalenceTest, EveryTightWatchdogBudgetOnLongLoop) {
  // A long straight-line run ending in a backedge: every budget from 0
  // (immediate watchdog) up past two full iterations expires at a
  // different instruction of the body.  All budgets must stay
  // bit-identical to the reference engine, including counters and the
  // recorded trace.
  Assembler as(kCodeBase);
  const auto loop = as.here();
  for (int i = 0; i < 12; ++i) as.inc(Reg::rax);
  as.movi(Reg::rbx, kDataBase + 4);
  as.store(Reg::rbx, Reg::rax);
  as.jmp(loop);
  const Program prog = as.finish();

  for (std::uint64_t max_steps = 0; max_steps <= 35; ++max_steps) {
    const EngineState ref = run_engine(prog, 9, EngineKind::Reference, true,
                                       false, false, max_steps);
    const EngineState fast = run_engine(prog, 9, EngineKind::Fast, true, false,
                                        false, max_steps);
    expect_equivalent(fast, ref, "budget " + std::to_string(max_steps));
    EXPECT_EQ(fast.info.trap.kind, TrapKind::Watchdog);
    EXPECT_EQ(fast.steps, max_steps);
  }
}

TEST(EngineEquivalenceTest, IndirectEntryIntoStraightLineRun) {
  // An indirect jump landing in the middle of a straight-line run: only
  // the instructions from the landing site on may retire.
  Assembler as(kCodeBase);
  const auto end = as.make_label();
  as.movi(Reg::rcx, kCodeBase + 6);  // mid-run landing site
  as.jmp_reg(Reg::rcx);
  as.inc(Reg::rax);  // slots 2..8: one straight-line run
  as.inc(Reg::rax);
  as.inc(Reg::rax);
  as.inc(Reg::rax);
  as.inc(Reg::rax);  // slot 6: the landing site
  as.inc(Reg::rax);
  as.inc(Reg::rax);
  as.jmp(end);
  as.bind(end);
  as.hlt();
  const Program prog = as.finish();

  const EngineState ref = run_engine(prog, 5, EngineKind::Reference, true,
                                     false, false, 100);
  const EngineState fast = run_engine(prog, 5, EngineKind::Fast, true, false,
                                      false, 100);
  expect_equivalent(fast, ref, "mid-run entry");
  EXPECT_EQ(fast.info.status, StepInfo::Status::Halted);
  // movi, jmp_reg, the three incs from the landing site on, jmp — and
  // nothing before the landing site.
  const std::vector<Addr> want = {kCodeBase,     kCodeBase + 1, kCodeBase + 6,
                                  kCodeBase + 7, kCodeBase + 8, kCodeBase + 9};
  EXPECT_EQ(fast.trace, want);
  EXPECT_EQ(fast.counters.inst_retired, 6u);
}

TEST(EngineEquivalenceTest, OutOfImageControlTransfers) {
  // A direct branch and an indirect jump to targets outside the image:
  // far past it, just before it, exactly one past the last slot, and
  // null.  Every case must fault like the reference engine (instruction
  // fetch #PF at the target).
  const std::int64_t targets[] = {
      static_cast<std::int64_t>(kCodeBase) + 64,   // far past the image
      static_cast<std::int64_t>(kCodeBase) - 1,    // just before it
      static_cast<std::int64_t>(kCodeBase) + 3,    // one past the last slot
      0,                                           // null
  };
  for (const std::int64_t target : targets) {
    for (const bool indirect : {false, true}) {
      Assembler as(kCodeBase);
      if (indirect) {
        as.movi(Reg::rcx, target);
        as.jmp_reg(Reg::rcx);
        as.hlt();
      } else {
        as.nop();
        as.emit_raw({Opcode::Jmp, Reg::rax, Reg::rax, target, 0});
        as.hlt();
      }
      const Program prog = as.finish();
      const EngineState ref = run_engine(prog, 1, EngineKind::Reference, true,
                                         false, false, 100);
      const EngineState fast = run_engine(prog, 1, EngineKind::Fast, true,
                                          false, false, 100);
      expect_equivalent(fast, ref,
                        (indirect ? std::string("jmpr ") : std::string("jmp ")) +
                            std::to_string(target));
      EXPECT_EQ(fast.info.trap.kind, TrapKind::PageFault);
      EXPECT_EQ(fast.info.trap.fault_addr, static_cast<Addr>(target));
    }
  }
}

TEST(EngineEquivalenceTest, PerInstructionHintsFollowWalkingAddresses) {
  // One static Load and one static Store whose effective addresses walk
  // across regions from one loop iteration to the next, over several runs
  // of the same Cpu: each slot's region hint hits, misses, is refreshed
  // and is carried into the next run.  Each row of the table in data
  // memory holds one iteration's (load address, store address).
  constexpr Addr kRodata = 0x11000;
  constexpr Addr kUnmapped = 0x30000;
  constexpr Addr kTable = kDataBase + 0x80;
  Assembler as(kCodeBase);
  as.movi(Reg::rbx, static_cast<std::int64_t>(kTable));
  const auto loop = as.here();
  as.load(Reg::rsi, Reg::rbx, 0);
  as.load(Reg::rdi, Reg::rbx, 1);
  as.load(Reg::rax, Reg::rsi, 0);  // the walking Load
  as.addi(Reg::rax, 1);
  as.store(Reg::rdi, Reg::rax, 0);  // the walking Store
  as.addi(Reg::rbx, 2);
  as.dec(Reg::rcx);
  as.jne(loop);
  as.hlt();
  const Program prog = as.finish();

  struct Walk {
    std::vector<std::pair<Addr, Addr>> rows;
    TrapKind ends;
    Addr fault_addr;
  };
  const Walk walks[] = {
      // The Load walks data -> rodata -> stack -> unmapped.
      {{{kDataBase + 0x10, kDataBase + 0x20},
        {kRodata + 4, kStackBase + 0x10},
        {kStackBase + 0x20, kDataBase + 0x30},
        {kUnmapped, kDataBase + 0x40}},
       TrapKind::PageFault, kUnmapped},
      // The Store walks data -> stack -> rodata: its miss learns rodata.
      {{{kDataBase + 0x11, kDataBase + 0x21},
        {kStackBase + 0x21, kStackBase + 0x11},
        {kRodata + 5, kRodata + 6}},
       TrapKind::GeneralProtection, kRodata + 6},
      // The Store's hint now names rodata: the hit still raises #GP.
      {{{kRodata + 7, kRodata + 8}}, TrapKind::GeneralProtection,
       kRodata + 8},
      // Back to data and stack, to the end of the table.
      {{{kStackBase + 0x22, kDataBase + 0x22},
        {kDataBase + 0x12, kStackBase + 0x12}},
       TrapKind::None, 0},
  };

  Memory fast_mem = make_memory(), ref_mem = make_memory();
  for (Memory* mem : {&fast_mem, &ref_mem}) {
    for (Addr i = 0; i < 0x40; ++i) mem->poke(kRodata + i, 0x100 + i);
  }
  Cpu fast(&prog, &fast_mem), ref(&prog, &ref_mem);
  fast.set_engine(EngineKind::Fast);
  ref.set_engine(EngineKind::Reference);
  std::vector<Addr> fast_trace, ref_trace;
  fast.set_trace(&fast_trace);
  ref.set_trace(&ref_trace);

  int run = 0;
  for (const Walk& walk : walks) {
    const std::string what = "run " + std::to_string(run++);
    EngineState st[2];
    Cpu* cpus[2] = {&fast, &ref};
    for (int e = 0; e < 2; ++e) {
      Cpu& cpu = *cpus[e];
      for (std::size_t r = 0; r < walk.rows.size(); ++r) {
        cpu.memory().poke(kTable + 2 * r, walk.rows[r].first);
        cpu.memory().poke(kTable + 2 * r + 1, walk.rows[r].second);
      }
      cpu.reset(prog.base(), kStackTop);
      cpu.set_reg(Reg::rcx, walk.rows.size());
      cpu.counters().arm();
      st[e].info = cpu.run(1000);
      st[e].regs = cpu.regs();
      st[e].steps = cpu.steps_executed();
      st[e].tsc = cpu.tsc();
      st[e].counters = cpu.counters().disarm();
      st[e].memory = cpu.memory().snapshot();
    }
    st[0].trace = fast_trace;
    st[1].trace = ref_trace;
    expect_equivalent(st[0], st[1], what);
    if (walk.ends == TrapKind::None) {
      EXPECT_EQ(st[0].info.status, StepInfo::Status::Halted) << what;
    } else {
      EXPECT_EQ(st[0].info.trap.kind, walk.ends) << what;
      EXPECT_EQ(st[0].info.trap.fault_addr, walk.fault_addr) << what;
    }
  }
  // The stores that retired landed, and a #GP left rodata as it was.
  EXPECT_EQ(fast_mem.peek(kStackBase + 0x10), 0x105u);
  EXPECT_EQ(fast_mem.peek(kDataBase + 0x22), 1u);
  EXPECT_EQ(fast_mem.peek(kRodata + 6), 0x106u);
  EXPECT_EQ(fast_mem.peek(kRodata + 8), 0x108u);
}

}  // namespace
}  // namespace xentry::sim
