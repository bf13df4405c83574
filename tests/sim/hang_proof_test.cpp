// Hang-prover oracle.  Hand-assembled loops run on the Fast engine, which
// tries Cpu::prove_hang between run chunks the way hv::Machine::run's
// faulted remainder does, and on the Reference engine, which never
// proves.  Loops the prover must prove end with the same StepInfo, rip,
// step count, TSC and counters as the reference run, and a trace that is a
// prefix of the reference trace.  Loops it must not prove run to their
// real end and equal the reference run bit for bit: registers, memory and
// the full trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/memory.hpp"

namespace xentry::sim {
namespace {

constexpr Addr kCodeBase = 0x400000;
constexpr Addr kDataBase = 0x10000;
constexpr Addr kDataSize = 0x2000;
constexpr Addr kRodataBase = 0x30000;
constexpr Addr kStackBase = 0x20000;
constexpr Addr kStackTop = 0x20100;
constexpr std::uint64_t kBudget = 100000;  // RunOptions' watchdog budget
constexpr std::uint64_t kChunk = 4096;     // Machine::run's proof interval
constexpr Word kTsc0 = 1000;

Memory make_memory() {
  Memory mem;
  mem.map(kDataBase, kDataSize, Perm::ReadWrite, "data");
  mem.map(kStackBase, 0x200, Perm::ReadWrite, "stack");
  mem.map(kRodataBase, 0x40, Perm::Read, "rodata");
  return mem;
}

/// One loop program and the state it starts from.
struct Loop {
  std::string name;
  Program prog;
  Addr entry = 0;
  std::function<void(Cpu&, Memory&)> setup = [](Cpu&, Memory&) {};
  std::uint64_t budget = kBudget;
};

Loop make_loop(std::string name, Assembler& as) {
  Loop l;
  l.name = std::move(name);
  l.prog = as.finish();
  l.entry = l.prog.base();
  return l;
}

struct Outcome {
  StepInfo info;
  bool proven = false;
  std::array<Word, kNumArchRegs> regs{};
  std::uint64_t steps = 0;
  Word tsc = 0;
  PerfSnapshot counters;
  std::vector<Addr> trace;
  Memory::Snapshot memory;
};

/// Machine::run's faulted remainder.
StepInfo drive(Cpu& cpu, std::uint64_t budget, bool& proven) {
  StepInfo info;
  while (info.status == StepInfo::Status::Ok) {
    const std::uint64_t left = budget - cpu.steps_executed();
    info = cpu.run(std::min(left, kChunk));
    if (info.trap.kind == TrapKind::Watchdog && kChunk < left) {
      info = cpu.prove_hang(left - kChunk, proven);
    }
  }
  return info;
}

Outcome run(const Loop& loop, EngineKind engine) {
  Memory mem = make_memory();
  Cpu cpu(&loop.prog, &mem);
  cpu.set_engine(engine);
  cpu.reset(loop.entry, kStackTop);
  cpu.set_tsc(kTsc0);
  loop.setup(cpu, mem);
  Outcome out;
  cpu.set_trace(&out.trace);
  cpu.counters().arm();
  out.info = drive(cpu, loop.budget, out.proven);
  out.counters = cpu.counters().disarm();
  cpu.set_trace(nullptr);
  out.regs = cpu.regs();
  out.steps = cpu.steps_executed();
  out.tsc = cpu.tsc();
  out.memory = mem.snapshot();
  return out;
}

void expect_same_end(const Outcome& got, const Outcome& want,
                     const std::string& what) {
  EXPECT_EQ(got.info.status, want.info.status) << what;
  EXPECT_EQ(got.info.trap.kind, want.info.trap.kind) << what;
  EXPECT_EQ(got.info.trap.fault_addr, want.info.trap.fault_addr) << what;
  EXPECT_EQ(got.info.trap.aux, want.info.trap.aux) << what;
  EXPECT_EQ(got.info.rip_before, want.info.rip_before) << what;
  EXPECT_EQ(got.regs[static_cast<std::size_t>(Reg::rip)],
            want.regs[static_cast<std::size_t>(Reg::rip)])
      << what;
  EXPECT_EQ(got.steps, want.steps) << what;
  EXPECT_EQ(got.tsc, want.tsc) << what;
  EXPECT_EQ(got.counters, want.counters) << what;
}

void expect_proven(const Loop& loop) {
  const Outcome fast = run(loop, EngineKind::Fast);
  const Outcome ref = run(loop, EngineKind::Reference);
  EXPECT_TRUE(fast.proven) << loop.name;
  EXPECT_FALSE(ref.proven) << loop.name;
  EXPECT_EQ(ref.info.trap.kind, TrapKind::Watchdog) << loop.name;
  expect_same_end(fast, ref, loop.name);
  // The trace stops at the proof point: at the first chunk boundary, after
  // lap 0, the head rotation and two more laps (at most four laps of 64).
  ASSERT_LT(fast.trace.size(), ref.trace.size()) << loop.name;
  EXPECT_GE(fast.trace.size(), kChunk) << loop.name;
  EXPECT_LE(fast.trace.size(), kChunk + 4 * 64) << loop.name;
  EXPECT_TRUE(std::equal(fast.trace.begin(), fast.trace.end(),
                         ref.trace.begin()))
      << loop.name;
}

void expect_executed(const Loop& loop) {
  const Outcome fast = run(loop, EngineKind::Fast);
  const Outcome ref = run(loop, EngineKind::Reference);
  EXPECT_FALSE(fast.proven) << loop.name;
  expect_same_end(fast, ref, loop.name);
  EXPECT_EQ(fast.regs, ref.regs) << loop.name;
  EXPECT_EQ(fast.trace, ref.trace) << loop.name;
  EXPECT_TRUE(fast.memory == ref.memory) << loop.name;
  // Every such loop runs long enough for the prover to try.
  EXPECT_GT(ref.steps, kChunk) << loop.name;
}

constexpr Word kHighBitCounter = (Word{1} << 62) + 3;

// -- loops the prover must prove ---------------------------------------------

/// `load; xor|add; store [rbp+k]; dec; cmp 0; jg` with a counter whose
/// high bit a fault flipped, after `prefix` nops.
Loop countdown(bool use_xor, int prefix = 0) {
  Assembler as(kCodeBase);
  for (int i = 0; i < prefix; ++i) as.nop();
  const Assembler::Label top = as.here();
  as.load(Reg::rax, Reg::rbp, 8);
  if (use_xor) {
    as.xor_(Reg::rax, Reg::rbx);
  } else {
    as.add(Reg::rax, Reg::rdx);
  }
  as.store(Reg::rbp, Reg::rax, 8);
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Loop l = make_loop(use_xor ? "countdown/xor" : "countdown/add", as);
  l.setup = [](Cpu& cpu, Memory& mem) {
    cpu.set_reg(Reg::rbp, kDataBase);
    cpu.set_reg(Reg::rbx, 0x5a5a);
    cpu.set_reg(Reg::rdx, 7);
    cpu.set_reg(Reg::rcx, kHighBitCounter);
    mem.poke(kDataBase + 8, 11);
  };
  return l;
}

/// `mov; and 63; add c; store`: the store address is the counter masked
/// into a window.
Loop masked_window() {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  as.mov(Reg::rdx, Reg::rcx);
  as.andi(Reg::rdx, 63);
  as.addi(Reg::rdx, static_cast<std::int64_t>(kDataBase + 0x100));
  as.store(Reg::rdx, Reg::rax, 0);
  as.inc(Reg::rcx);
  as.cmp(Reg::rcx, Reg::rsi);
  as.jl(top);
  as.hlt();
  Loop l = make_loop("masked_window", as);
  l.setup = [](Cpu& cpu, Memory&) {
    cpu.set_reg(Reg::rsi, Word{1} << 40);  // a flipped bound
    cpu.set_reg(Reg::rax, 99);
  };
  return l;
}

/// `load r11,[r9+7]; … or; store [r11+532]`: a pointer loaded from a word
/// no store of the lap touches.
Loop invariant_pointer() {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  as.load(Reg::r11, Reg::r9, 7);
  as.load(Reg::rax, Reg::r11, 532);
  as.ori(Reg::rax, 4);
  as.store(Reg::r11, Reg::rax, 532);
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Loop l = make_loop("invariant_pointer", as);
  l.setup = [](Cpu& cpu, Memory& mem) {
    cpu.set_reg(Reg::r9, kRodataBase);
    cpu.set_reg(Reg::rcx, kHighBitCounter);
    mem.poke(kRodataBase + 7, kDataBase + 0x40);
  };
  return l;
}

/// A loop whose inner `cmp rdi, 0; jne` compares an invariant register.
Loop invariant_inner_branch() {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  const Assembler::Label skip = as.make_label();
  as.cmpi(Reg::rdi, 0);
  as.jne(skip);
  as.inc(Reg::rbx);
  as.bind(skip);
  as.addi(Reg::r12, 2);
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Loop l = make_loop("invariant_inner_branch", as);
  l.setup = [](Cpu& cpu, Memory&) {
    cpu.set_reg(Reg::rdi, 5);
    cpu.set_reg(Reg::rcx, kHighBitCounter);
  };
  return l;
}

/// `dec; cmp 0; jg` entered at its `jg` when the chunk boundary falls
/// there (two nops, then laps of three: step 4096 is the jg).  That jg
/// reads flags the previous lap set, so the lap head must move to the
/// `dec`.
Loop entered_at_jg() {
  Assembler as(kCodeBase);
  as.nop();
  as.nop();
  const Assembler::Label top = as.here();
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Loop l = make_loop("entered_at_jg", as);
  l.setup = [](Cpu& cpu, Memory&) { cpu.set_reg(Reg::rcx, kHighBitCounter); };
  static_assert((kChunk - 2) % 3 == 2);
  return l;
}

TEST(HangProofTest, ProvesCampaignLapShapes) {
  for (const Loop& l : {countdown(true), countdown(false), masked_window(),
                        invariant_pointer(), invariant_inner_branch(),
                        entered_at_jg()}) {
    expect_proven(l);
  }
}

TEST(HangProofTest, ProvesFromEveryLapPosition) {
  // Each prefix puts the chunk boundary on another of the six lap
  // positions; each budget ends the closed form at another one.
  for (int prefix = 0; prefix < 6; ++prefix) {
    for (std::uint64_t extra = 0; extra < 6; ++extra) {
      Loop l = countdown(true, prefix);
      l.budget = 3 * kChunk + extra;
      l.name += " prefix " + std::to_string(prefix) + " budget " +
                std::to_string(l.budget);
      expect_proven(l);
    }
  }
}

// -- loops the prover must not prove ---------------------------------------

/// `dec; cmp 0; jg` from `n`: n laps of three steps, then hlt at step 3n.
Loop counted(std::uint64_t n, std::uint64_t budget, std::string name) {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Loop l = make_loop(std::move(name), as);
  l.setup = [n](Cpu& cpu, Memory&) { cpu.set_reg(Reg::rcx, n); };
  l.budget = budget;
  return l;
}

TEST(HangProofTest, ExitNearTheBudgetRunsToItsEnd) {
  constexpr std::uint64_t n = 5000;  // hlt fetched at step 3n
  expect_executed(counted(n, 3 * n + 1, "exit at budget - 1"));
  expect_executed(counted(n, 3 * n, "exit at budget"));
  expect_executed(counted(n, 3 * n - 1, "exit at budget + 1"));
}

TEST(HangProofTest, AffineStoreWalkingOffItsRegionFaults) {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  as.store(Reg::rdx, Reg::rax, 0);
  as.inc(Reg::rdx);
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Loop l = make_loop("affine store", as);
  l.setup = [](Cpu& cpu, Memory&) {
    cpu.set_reg(Reg::rdx, kDataBase);
    cpu.set_reg(Reg::rcx, kHighBitCounter);
  };
  expect_executed(l);
  EXPECT_EQ(run(l, EngineKind::Fast).info.trap.kind, TrapKind::PageFault);
}

TEST(HangProofTest, CounterInMemoryRunsToItsEnd) {
  // `load; dec; store; cmp; jg`, and the same after a flag-setting head,
  // where the loaded counter decides the branch within the lap.
  for (const bool head : {false, true}) {
    Assembler as(kCodeBase);
    const Assembler::Label top = as.here();
    if (head) as.inc(Reg::r10);
    as.load(Reg::rcx, Reg::rbp, 0);
    as.dec(Reg::rcx);
    as.store(Reg::rbp, Reg::rcx, 0);
    as.cmpi(Reg::rcx, 0);
    as.jg(top);
    as.hlt();
    Loop l = make_loop(
        head ? "counter in memory after inc" : "counter in memory", as);
    l.setup = [](Cpu& cpu, Memory& mem) {
      cpu.set_reg(Reg::rbp, kDataBase);
      mem.poke(kDataBase, 3000);
    };
    expect_executed(l);
  }
}

TEST(HangProofTest, StepThatRepeatsOnlyInTheRecordedLapsRunsToItsEnd) {
  // rcx falls by table[(r12 >> 9) & 7]: 1 in the laps the prover records,
  // 2^62 from lap 1024 on, which ends the loop.
  constexpr Addr kTable = kDataBase + 0x400;
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  const Assembler::Label out = as.make_label();
  as.cmpi(Reg::rcx, 0);
  as.jle(out);
  as.mov(Reg::rsi, Reg::r12);
  as.shri(Reg::rsi, 9);
  as.andi(Reg::rsi, 7);
  as.load(Reg::rdx, Reg::rsi, static_cast<std::int64_t>(kTable));
  as.sub(Reg::rcx, Reg::rdx);
  as.inc(Reg::r12);
  as.jmp(top);
  as.bind(out);
  as.hlt();
  Loop l = make_loop("data-dependent step", as);
  l.setup = [](Cpu& cpu, Memory& mem) {
    cpu.set_reg(Reg::rcx, Word{1} << 61);
    for (Addr i = 0; i < 8; ++i) {
      mem.poke(kTable + i, i < 2 ? 1 : Word{1} << 62);
    }
  };
  expect_executed(l);
}

TEST(HangProofTest, CountersWrappingTheirRangeRunToTheirEnd) {
  {
    // Signed: rcx climbs past INT64_MAX and jg falls through.
    Assembler as(kCodeBase);
    const Assembler::Label top = as.here();
    as.inc(Reg::rcx);
    as.cmpi(Reg::rcx, 0);
    as.jg(top);
    as.hlt();
    Loop l = make_loop("signed wrap under jg", as);
    l.setup = [](Cpu& cpu, Memory&) {
      cpu.set_reg(Reg::rcx, static_cast<Word>(
                                std::numeric_limits<std::int64_t>::max()) -
                                3000);
    };
    expect_executed(l);
  }
  {
    // Unsigned: rcx drops past zero and jb falls through.
    Assembler as(kCodeBase);
    const Assembler::Label top = as.here();
    as.dec(Reg::rcx);
    as.cmp(Reg::rcx, Reg::rsi);
    as.jb(top);
    as.hlt();
    Loop l = make_loop("unsigned wrap under jb", as);
    l.setup = [](Cpu& cpu, Memory&) {
      cpu.set_reg(Reg::rcx, 3000);
      cpu.set_reg(Reg::rsi, Word{1} << 63);
    };
    expect_executed(l);
  }
}

TEST(HangProofTest, EqualityReachedMidRangeRunsToItsEnd) {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  as.inc(Reg::rcx);
  as.cmpi(Reg::rcx, 5000);
  as.jne(top);
  as.hlt();
  expect_executed(make_loop("jne reaching equality", as));
}

TEST(HangProofTest, BranchOnTimestampRunsToItsEnd) {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  as.rdtsc(Reg::rax);
  as.cmp(Reg::rax, Reg::rbx);
  as.jb(top);
  as.hlt();
  Loop l = make_loop("branch on rdtsc", as);
  l.setup = [](Cpu& cpu, Memory&) {
    cpu.set_reg(Reg::rbx, kTsc0 + 3 * 20000);
  };
  expect_executed(l);
}

TEST(HangProofTest, AssertionOnAffineRegisterFires) {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  as.inc(Reg::rcx);
  as.assert_le(Reg::rcx, 5000, 17);
  as.jmp(top);
  Loop l = make_loop("assertion on an affine register", as);
  expect_executed(l);
  const Outcome fast = run(l, EngineKind::Fast);
  EXPECT_EQ(fast.info.trap.kind, TrapKind::AssertFailed);
  EXPECT_EQ(fast.info.trap.aux, 17u);
}

TEST(HangProofTest, StackAndDivideInTheLapRunToTheWatchdog) {
  {
    Assembler as(kCodeBase);
    const Assembler::Label top = as.here();
    as.push(Reg::rax);
    as.pop(Reg::rax);
    as.dec(Reg::rcx);
    as.cmpi(Reg::rcx, 0);
    as.jg(top);
    as.hlt();
    Loop l = make_loop("push/pop", as);
    l.setup = [](Cpu& cpu, Memory&) {
      cpu.set_reg(Reg::rcx, kHighBitCounter);
    };
    expect_executed(l);
  }
  {
    Assembler as(kCodeBase);
    const Assembler::Label top = as.here();
    const Assembler::Label fn = as.make_label();
    as.call(fn);
    as.dec(Reg::rcx);
    as.cmpi(Reg::rcx, 0);
    as.jg(top);
    as.hlt();
    as.bind(fn);
    as.ret();
    Loop l = make_loop("call/ret", as);
    l.setup = [](Cpu& cpu, Memory&) {
      cpu.set_reg(Reg::rcx, kHighBitCounter);
    };
    expect_executed(l);
  }
  {
    Assembler as(kCodeBase);
    const Assembler::Label top = as.here();
    as.movi(Reg::rax, 100);
    as.div(Reg::rbx);
    as.dec(Reg::rcx);
    as.cmpi(Reg::rcx, 0);
    as.jg(top);
    as.hlt();
    Loop l = make_loop("div", as);
    l.setup = [](Cpu& cpu, Memory&) {
      cpu.set_reg(Reg::rbx, 7);
      cpu.set_reg(Reg::rcx, kHighBitCounter);
    };
    expect_executed(l);
  }
}

TEST(HangProofTest, LapLongerThan64InstructionsRunsToTheWatchdog) {
  Assembler as(kCodeBase);
  const Assembler::Label top = as.here();
  for (int i = 0; i < 70; ++i) as.nop();
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Loop l = make_loop("73-instruction lap", as);
  l.setup = [](Cpu& cpu, Memory&) { cpu.set_reg(Reg::rcx, kHighBitCounter); };
  expect_executed(l);
}

}  // namespace
}  // namespace xentry::sim
