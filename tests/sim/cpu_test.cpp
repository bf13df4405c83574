#include "sim/cpu.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "sim/assembler.hpp"

namespace xentry::sim {
namespace {

constexpr Addr kCodeBase = 0x400000;
constexpr Addr kDataBase = 0x10000;
constexpr Addr kStackTop = 0x20100;

struct Fixture {
  Program prog;
  Memory mem;

  explicit Fixture(Assembler& as) : prog(as.finish()) {
    mem.map(kDataBase, 256, Perm::ReadWrite, "data");
    mem.map(0x20000, 0x100, Perm::ReadWrite, "stack");
  }

  Cpu make_cpu() {
    Cpu cpu(&prog, &mem);
    cpu.reset(prog.base(), kStackTop);
    return cpu;
  }
};

TEST(CpuTest, ArithmeticAndFlags) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 10);
  as.movi(Reg::rbx, 3);
  as.sub(Reg::rax, Reg::rbx);  // rax = 7
  as.mul(Reg::rax, Reg::rbx);  // rax = 21
  as.addi(Reg::rax, -21);      // rax = 0, ZF set
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100);
  ASSERT_EQ(info.status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rax), 0u);
  EXPECT_TRUE(cpu.reg(Reg::rflags) & kFlagZero);
}

TEST(CpuTest, DivComputesQuotientAndRemainder) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 17);
  as.movi(Reg::rcx, 5);
  as.div(Reg::rcx);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rax), 3u);
  EXPECT_EQ(cpu.reg(Reg::rdx), 2u);
}

TEST(CpuTest, DivideByZeroTraps) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 17);
  as.movi(Reg::rcx, 0);
  as.div(Reg::rcx);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.kind, TrapKind::DivideError);
}

TEST(CpuTest, LoadStoreRoundTrip) {
  Assembler as(kCodeBase);
  as.movi(Reg::rbx, kDataBase);
  as.movi(Reg::rax, 99);
  as.store(Reg::rbx, Reg::rax, 4);
  as.load(Reg::rcx, Reg::rbx, 4);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rcx), 99u);
  EXPECT_EQ(f.mem.peek(kDataBase + 4), 99u);
}

TEST(CpuTest, LoadFromUnmappedPageFaults) {
  Assembler as(kCodeBase);
  as.movi(Reg::rbx, 0xdead0000);
  as.load(Reg::rax, Reg::rbx);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.kind, TrapKind::PageFault);
  EXPECT_EQ(info.trap.fault_addr, 0xdead0000u);
  // rip points at the faulting instruction.
  EXPECT_EQ(cpu.reg(Reg::rip), kCodeBase + 1);
}

TEST(CpuTest, ConditionalBranchTakenAndNotTaken) {
  Assembler as(kCodeBase);
  auto else_ = as.make_label();
  auto end = as.make_label();
  as.movi(Reg::rax, 5);
  as.cmpi(Reg::rax, 5);
  as.jne(else_);
  as.movi(Reg::rbx, 1);  // taken path (equal)
  as.jmp(end);
  as.bind(else_);
  as.movi(Reg::rbx, 2);
  as.bind(end);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rbx), 1u);
}

TEST(CpuTest, SignedVersusUnsignedBranches) {
  // -1 < 1 signed, but 0xffff... > 1 unsigned.
  Assembler as(kCodeBase);
  auto sl = as.make_label();
  auto end = as.make_label();
  as.movi(Reg::rax, -1);
  as.cmpi(Reg::rax, 1);
  as.jl(sl);
  as.movi(Reg::rbx, 0);
  as.jmp(end);
  as.bind(sl);
  as.movi(Reg::rbx, 1);  // signed-less taken
  as.bind(end);
  as.cmpi(Reg::rax, 1);
  auto below = as.make_label();
  auto end2 = as.make_label();
  as.jb(below);
  as.movi(Reg::rcx, 1);  // unsigned: not below
  as.jmp(end2);
  as.bind(below);
  as.movi(Reg::rcx, 0);
  as.bind(end2);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rbx), 1u);
  EXPECT_EQ(cpu.reg(Reg::rcx), 1u);
}

TEST(CpuTest, LoopExecutesExactIterationCount) {
  Assembler as(kCodeBase);
  as.movi(Reg::rcx, 10);
  as.movi(Reg::rax, 0);
  auto top = as.here();
  as.addi(Reg::rax, 2);
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(1000).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rax), 20u);
}

TEST(CpuTest, CallRetUsesStack) {
  Assembler as(kCodeBase);
  as.global("main");
  as.call("fn");
  as.addi(Reg::rax, 1);
  as.hlt();
  as.global("fn");
  as.movi(Reg::rax, 41);
  as.ret();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rax), 42u);
  EXPECT_EQ(cpu.reg(Reg::rsp), kStackTop);  // balanced
}

TEST(CpuTest, PushPopRoundTrip) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 7);
  as.push(Reg::rax);
  as.movi(Reg::rax, 0);
  as.pop(Reg::rbx);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rbx), 7u);
}

TEST(CpuTest, StackOverflowRaisesStackFault) {
  Assembler as(kCodeBase);
  as.movi(Reg::rcx, 0x1000);
  auto top = as.here();
  as.push(Reg::rcx);
  as.jmp(top);
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100000);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.kind, TrapKind::StackFault);
}

TEST(CpuTest, RipOutsideCodeRaisesPageFault) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 0x9999999);
  as.jmp_reg(Reg::rax);
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.kind, TrapKind::PageFault);
  EXPECT_EQ(info.trap.fault_addr, 0x9999999u);
}

TEST(CpuTest, UdPaddingRaisesInvalidOpcode) {
  Assembler as(kCodeBase);
  as.nop();
  as.pad_ud(1);
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.kind, TrapKind::InvalidOpcode);
}

TEST(CpuTest, WatchdogFiresOnInfiniteLoop) {
  Assembler as(kCodeBase);
  auto top = as.here();
  as.jmp(top);
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(500);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.kind, TrapKind::Watchdog);
}

TEST(CpuTest, AssertionPassesWhenConditionHolds) {
  Assembler as(kCodeBase);
  as.movi(Reg::rbx, 5);
  as.assert_le(Reg::rbx, 19, 1);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  EXPECT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
}

TEST(CpuTest, AssertionFiresWithId) {
  Assembler as(kCodeBase);
  as.movi(Reg::rbx, 25);
  as.assert_le(Reg::rbx, 19, 7);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.kind, TrapKind::AssertFailed);
  EXPECT_EQ(info.trap.aux, 7u);
}

TEST(CpuTest, AssertEqRegisterForm) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 3);
  as.movi(Reg::rbx, 4);
  as.assert_eq(Reg::rax, Reg::rbx, 9);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  auto info = cpu.run(100);
  ASSERT_EQ(info.status, StepInfo::Status::Trapped);
  EXPECT_EQ(info.trap.aux, 9u);
}

TEST(CpuTest, RdtscMonotonicallyAdvances) {
  Assembler as(kCodeBase);
  as.rdtsc(Reg::rax);
  as.nop();
  as.rdtsc(Reg::rbx);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
  EXPECT_EQ(cpu.reg(Reg::rbx) - cpu.reg(Reg::rax), 2 * kTscPerStep);
}

TEST(CpuTest, BitFlipChangesRegister) {
  Assembler as(kCodeBase);
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  cpu.set_reg(Reg::rcx, 0b100);
  cpu.flip_bit(Reg::rcx, 2);
  EXPECT_EQ(cpu.reg(Reg::rcx), 0u);
  cpu.flip_bit(Reg::rcx, 63);
  EXPECT_EQ(cpu.reg(Reg::rcx), Word{1} << 63);
}

TEST(CpuTest, BitFlipInLoopCounterAddsExtraInstructions) {
  // Fig. 5(a): a fault in rcx, the counter of a rep-mov style loop, adds
  // extra dynamic instructions to the trace.
  Assembler as(kCodeBase);
  as.movi(Reg::rcx, 4);
  auto top = as.here();
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);
  as.jg(top);
  as.hlt();
  Fixture f(as);

  Cpu golden = f.make_cpu();
  ASSERT_EQ(golden.run(10000).status, StepInfo::Status::Halted);
  const std::uint64_t golden_steps = golden.steps_executed();

  Cpu faulty = f.make_cpu();
  // Execute the first instruction (rcx = 4), then flip bit 3: rcx = 12.
  faulty.step();
  faulty.flip_bit(Reg::rcx, 3);
  ASSERT_EQ(faulty.run(10000).status, StepInfo::Status::Halted);
  EXPECT_GT(faulty.steps_executed(), golden_steps);
  EXPECT_EQ(faulty.steps_executed() - golden_steps, 8u * 3u);
}

TEST(CpuTest, TraceRecordsControlPath) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 1);
  as.nop();
  as.hlt();
  Fixture f(as);
  Cpu cpu = f.make_cpu();
  std::vector<Addr> trace;
  cpu.set_trace(&trace);
  cpu.run(100);
  ASSERT_EQ(trace.size(), 2u);  // hlt does not retire
  EXPECT_EQ(trace[0], kCodeBase);
  EXPECT_EQ(trace[1], kCodeBase + 1);
}

TEST(CpuTest, FirstTouchFindsFirstReadOrWriteOnExecutedTrace) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 1);        // slot 0: a write of rax
  as.addi(Reg::rax, 2);        // slot 1: a read and a write of rax
  as.mov(Reg::rcx, Reg::rbx);  // slot 2: first read of rbx, write of rcx
  as.movi(Reg::rbx, 5);        // slot 3: a write of rbx
  as.hlt();
  Fixture f(as);
  for (const EngineKind engine : {EngineKind::Fast, EngineKind::Reference}) {
    Cpu cpu = f.make_cpu();
    cpu.set_engine(engine);
    std::vector<Addr> trace;
    cpu.set_trace(&trace);
    ASSERT_EQ(cpu.run(100).status, StepInfo::Status::Halted);
    ASSERT_EQ(trace.size(), 4u);  // hlt does not retire
    const std::span<const Addr> rips(trace);
    const auto touch = [&](std::size_t from, Reg reg) {
      const Touch t = first_touch(f.prog, rips.subspan(from), reg);
      return std::pair(t.kind, t.index);
    };
    using K = Touch::Kind;
    // A first read, and a first write (also of a register read later).
    EXPECT_EQ(touch(0, Reg::rbx), std::pair(K::Read, std::size_t{2}));
    EXPECT_EQ(touch(0, Reg::rcx), std::pair(K::Written, std::size_t{2}));
    EXPECT_EQ(touch(0, Reg::rax), std::pair(K::Written, std::size_t{0}));
    EXPECT_EQ(touch(3, Reg::rbx), std::pair(K::Written, std::size_t{0}));
    // One instruction that reads and writes the register: the read wins.
    EXPECT_EQ(touch(1, Reg::rax), std::pair(K::Read, std::size_t{0}));
    // Never touched, on the whole trace and on an empty one.
    EXPECT_EQ(touch(0, Reg::rdx), std::pair(K::None, std::size_t{0}));
    EXPECT_EQ(touch(4, Reg::rbx), std::pair(K::None, std::size_t{0}));
    // rflags: the add writes it, nothing reads it.
    EXPECT_EQ(touch(0, Reg::rflags), std::pair(K::Written, std::size_t{1}));
  }
}

}  // namespace
}  // namespace xentry::sim
