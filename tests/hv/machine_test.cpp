#include "hv/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

namespace xentry::hv {
namespace {

namespace L = layout;

// The single most important substrate property: every handler, fed legal
// inputs, runs fault-free to VM entry — no traps, no assertion failures —
// across many seeds.  The whole detection story depends on fault-free
// executions being clean.
class FaultFreeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFreeSweep, EveryHandlerReachesVmEntry) {
  Machine m;
  const std::uint64_t seed = GetParam();
  for (const ExitReason& r : all_exit_reasons()) {
    Activation act = m.make_activation(r, seed);
    RunResult res = m.run(act);
    EXPECT_TRUE(res.reached_vm_entry)
        << handler_symbol(r) << " seed=" << seed << " trapped with "
        << sim::trap_name(res.trap.kind) << " at " << res.trap.fault_addr
        << " (assert id " << res.trap.aux << ")";
    EXPECT_GT(res.counters.inst_retired, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFreeSweep,
                         ::testing::Values(1, 7, 42, 99, 1234, 77777));

TEST(MachineTest, CountersVaryByExitReason) {
  Machine m;
  auto run_counters = [&](const ExitReason& r) {
    return m.run(m.make_activation(r, 5)).counters;
  };
  const auto spurious =
      run_counters(ExitReason::apic(ApicInterrupt::spurious));
  const auto timer = run_counters(ExitReason::apic(ApicInterrupt::timer));
  // The timer path (update_time + softirq + schedule) dwarfs the spurious
  // interrupt handler.
  EXPECT_GT(timer.inst_retired, 4 * spurious.inst_retired);
  EXPECT_GT(timer.branches, spurious.branches);
  EXPECT_GT(timer.stores, spurious.stores);
}

TEST(MachineTest, DeterministicGivenSeedAndState) {
  Machine a, b;
  const Activation act =
      a.make_activation(ExitReason::hypercall(Hypercall::mmu_update), 11);
  RunResult ra = a.run(act);
  RunResult rb = b.run(act);
  EXPECT_EQ(ra.counters, rb.counters);
  EXPECT_EQ(ra.steps, rb.steps);
  const auto diffs = Machine::diff_persistent_state(a, b);
  EXPECT_TRUE(diffs.empty());
}

TEST(MachineTest, SnapshotRestoreReproducesRunExactly) {
  Machine m;
  const Activation act =
      m.make_activation(ExitReason::hypercall(Hypercall::console_io), 3);
  const Machine::Snapshot snap = m.snapshot();
  RunResult r1 = m.run(act);
  const auto state1 = m.memory().snapshot();
  m.restore(snap);
  RunResult r2 = m.run(act);
  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_EQ(m.memory().snapshot(), state1);
}

TEST(MachineTest, CpuidEmulationWritesVendorString) {
  // The paper's Section II example: cpuid trapped via #GP, emulated by the
  // hypervisor, results placed in the VCPU structure.
  Machine m;
  Activation act;
  act.reason = ExitReason::exception(GuestException::general_protection);
  act.arg1 = 0x0f;  // cpuid opcode
  act.arg2 = 0;     // leaf 0
  act.vcpu = 1;
  act.seed = 9;
  RunResult res = m.run(act);
  ASSERT_TRUE(res.reached_vm_entry);
  const sim::Addr vc = L::vcpu_addr(1);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveGprs + 1), 0x756e6547u);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveGprs + 2), 0x6c65746eu);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveGprs + 3), 0x49656e69u);
}

TEST(MachineTest, PageFaultFixupAndInjection) {
  Machine m;
  // Mapped L1 slot (va >> 4 < 12): hypervisor fixes up.
  Activation mapped;
  mapped.reason = ExitReason::exception(GuestException::page_fault);
  mapped.arg1 = 0x23;  // l1 idx 2: mapped
  mapped.vcpu = 1;
  RunResult r1 = m.run(mapped);
  ASSERT_TRUE(r1.reached_vm_entry);
  const sim::Addr ram = L::guest_ram_addr(m.domain_of_vcpu(1));
  EXPECT_NE(m.memory().peek(ram + L::kGuestAppPtrs + 0x23), 0u);

  // Unmapped slot: injected into the guest (frame written, rip vectored).
  Activation unmapped = mapped;
  unmapped.arg1 = 0xf7;  // l1 idx 15: unmapped
  RunResult r2 = m.run(unmapped);
  ASSERT_TRUE(r2.reached_vm_entry);
  // inject_guest_event overwrites the error-code slot with the vector.
  EXPECT_EQ(m.memory().peek(ram + L::kGuestExcFrame + 3), 14u);
  const sim::Addr vc = L::vcpu_addr(1);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveRip),
            m.memory().peek(vc + L::kVcpuTrapTable + 14));
}

TEST(MachineTest, EventChannelSendSetsPendingAndWakes) {
  Machine m;
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::event_channel_op);
  act.arg1 = 1;  // send
  act.arg2 = 3;  // port 3 (bound at boot)
  act.vcpu = 1;
  RunResult res = m.run(act);
  ASSERT_TRUE(res.reached_vm_entry);
  const int dom = m.domain_of_vcpu(1);
  const sim::Word pending =
      m.memory().peek(L::shared_info_addr(dom) + L::kShEvtchnPending);
  EXPECT_TRUE(pending & (1u << 3));
}

TEST(MachineTest, MaskedEventChannelIsNotDelivered) {
  Machine m;
  const int dom = 1;
  const int vcpu = 1;  // vcpu 1 belongs to domain 1 with 1 vcpu/domain
  m.memory().poke(L::shared_info_addr(dom) + L::kShEvtchnMask, 1u << 3);
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::event_channel_op);
  act.arg1 = 1;
  act.arg2 = 3;
  act.vcpu = vcpu;
  ASSERT_TRUE(m.run(act).reached_vm_entry);
  EXPECT_EQ(m.memory().peek(L::shared_info_addr(dom) + L::kShEvtchnPending),
            0u);
}

TEST(MachineTest, IrqRoutesThroughEventChannel) {
  Machine m;
  Activation act = m.make_activation(ExitReason::irq(4), 2, 0);
  ASSERT_TRUE(m.run(act).reached_vm_entry);
  // Boot routing: irq 4 -> dom (4 % 3 = 1), port (4 % 8 = 4).
  const sim::Word pending =
      m.memory().peek(L::shared_info_addr(1) + L::kShEvtchnPending);
  EXPECT_TRUE(pending & (1u << 4));
}

TEST(MachineTest, SchedYieldSwitchesCurrentVcpu) {
  Machine m;
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::sched_op);
  act.arg1 = 0;  // yield
  act.vcpu = 0;
  ASSERT_TRUE(m.run(act).reached_vm_entry);
  const sim::Word current = m.memory().peek(L::kHvDataBase +
                                            L::kHvCurrentVcpu);
  EXPECT_NE(current, L::vcpu_addr(0));  // round-robin moved on
}

TEST(MachineTest, BlockThenWakeRoundTrip) {
  Machine m;
  Activation block;
  block.reason = ExitReason::hypercall(Hypercall::sched_op);
  block.arg1 = 1;
  block.vcpu = 1;
  ASSERT_TRUE(m.run(block).reached_vm_entry);
  EXPECT_EQ(m.memory().peek(L::vcpu_addr(1) + L::kVcpuState),
            static_cast<sim::Word>(L::kVcpuStateBlocked));
  // An event for domain 1 port 2 (bound to vcpu 1) wakes it.
  Activation wake;
  wake.reason = ExitReason::hypercall(Hypercall::event_channel_op_compat);
  wake.arg1 = 2;
  wake.vcpu = 1;
  // Note: run() itself marks the exiting vcpu running; use a different
  // vcpu to deliver so the wake path does the work.
  wake.vcpu = 0;
  // Route the event at domain 0... instead drive via do_irq to domain 1:
  Activation irq = m.make_activation(ExitReason::irq(1), 5, 0);  // dom 1
  ASSERT_TRUE(m.run(irq).reached_vm_entry);
  EXPECT_EQ(m.memory().peek(L::vcpu_addr(1) + L::kVcpuState),
            static_cast<sim::Word>(L::kVcpuStateRunning));
}

TEST(MachineTest, InjectionFlipIsAppliedAndTracked) {
  Machine m;
  const Activation act =
      m.make_activation(ExitReason::hypercall(Hypercall::mmu_update), 21, 1);

  Machine::Snapshot snap = m.snapshot();
  RunResult golden = m.run(act);
  ASSERT_TRUE(golden.reached_vm_entry);

  // Inject into a register the handler actually uses: rdi (the count).
  m.restore(snap);
  Injection inj{2, sim::Reg::rdi, 2};
  RunOptions opts;
  opts.injection = &inj;
  RunResult faulted = m.run(act, opts);
  EXPECT_TRUE(faulted.injected);
  EXPECT_TRUE(faulted.activated);
  EXPECT_GE(faulted.activation_step, inj.at_step);
}

TEST(MachineTest, NonActivatedFaultLeavesNoTrace) {
  Machine m;
  const Activation act = m.make_activation(
      ExitReason::apic(ApicInterrupt::spurious), 4, 0);
  Machine::Snapshot snap = m.snapshot();
  RunResult golden = m.run(act);
  const auto golden_state = m.memory().snapshot();
  ASSERT_TRUE(golden.reached_vm_entry);

  // The spurious handler never reads rdx: flip it and expect a masked run.
  m.restore(snap);
  Injection inj{1, sim::Reg::rdx, 40};
  RunOptions opts;
  opts.injection = &inj;
  RunResult faulted = m.run(act, opts);
  EXPECT_TRUE(faulted.injected);
  EXPECT_FALSE(faulted.activated);
  EXPECT_TRUE(faulted.reached_vm_entry);
  EXPECT_EQ(faulted.counters, golden.counters);
  EXPECT_EQ(m.memory().snapshot(), golden_state);
}

TEST(MachineTest, RipFlipUsuallyTrapsBeforeVmEntry) {
  Machine m;
  const Activation act =
      m.make_activation(ExitReason::hypercall(Hypercall::console_io), 8, 2);
  Machine::Snapshot snap = m.snapshot();
  ASSERT_TRUE(m.run(act).reached_vm_entry);

  int traps = 0;
  for (int bit : {20, 30, 40, 50, 60}) {
    m.restore(snap);
    Injection inj{5, sim::Reg::rip, bit};
    RunOptions opts;
    opts.injection = &inj;
    RunResult res = m.run(act, opts);
    if (!res.reached_vm_entry) {
      ++traps;
      EXPECT_EQ(res.trap.kind, sim::TrapKind::PageFault);
    }
  }
  EXPECT_EQ(traps, 5);  // high rip bits leave the code region entirely
}

TEST(MachineTest, TraceCapturesControlFlowDivergence) {
  Machine m;
  const Activation act = m.make_activation(
      ExitReason::hypercall(Hypercall::grant_table_op), 13, 1);
  Machine::Snapshot snap = m.snapshot();

  std::vector<sim::Addr> golden_trace;
  RunOptions gopts;
  gopts.trace = &golden_trace;
  ASSERT_TRUE(m.run(act, gopts).reached_vm_entry);

  m.restore(snap);
  std::vector<sim::Addr> fault_trace;
  Injection inj{3, sim::Reg::rsi, 1};  // corrupt the batch count
  RunOptions fopts;
  fopts.trace = &fault_trace;
  fopts.injection = &inj;
  RunResult res = m.run(act, fopts);
  if (res.reached_vm_entry) {
    EXPECT_NE(golden_trace, fault_trace);  // extra/dropped loop iterations
  }
}

/// Marks the idle vcpu non-idle and empties the runqueue, and returns a
/// blocking sched_op_compat that forces schedule onto the idle path, where
/// the idle-vcpu assertion fails.
Activation corrupt_idle_vcpu(Machine& m) {
  m.memory().poke(L::kHvDataBase + L::kHvRunqCount, 0);
  m.memory().poke(L::vcpu_addr(m.num_vcpus()) + L::kVcpuState,
                  L::kVcpuStateRunning);  // corrupted idle vcpu
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::sched_op_compat);
  act.arg1 = 1;  // block: forces schedule onto the idle path
  act.vcpu = 0;
  return act;
}

/// Assertions one activation executes, by single-stepping it: each
/// instruction is counted before it executes, so an assertion that fails
/// counts too; stepping stops at hlt, a trap, or the watchdog budget.
std::uint64_t stepped_assertion_count(Machine& m, const Activation& act) {
  m.begin_activation(act);
  const sim::Program& program = m.microvisor().program;
  std::uint64_t n = 0;
  for (std::uint64_t step = 0; step < RunOptions{}.max_steps; ++step) {
    const sim::Addr rip = m.cpu().reg(sim::Reg::rip);
    if (program.contains(rip) && sim::is_assertion(program.at(rip).op)) ++n;
    if (m.cpu().step().status != sim::StepInfo::Status::Ok) break;
  }
  return n;
}

/// Runs `act` with a recorded trace and checks the trace-derived count
/// against stepped_assertion_count from the same pre-state.
RunResult expect_trace_count_matches_stepping(Machine& m,
                                              const Activation& act,
                                              std::uint64_t* count) {
  const Machine::Snapshot pre = m.snapshot();
  const std::uint64_t want = stepped_assertion_count(m, act);
  m.restore(pre);
  std::vector<sim::Addr> trace;
  RunOptions opts;
  opts.trace = &trace;
  const RunResult res = m.run(act, opts);
  *count = m.executed_assertions(trace, res);
  EXPECT_EQ(*count, want) << "exit code " << act.reason.code();
  return res;
}

TEST(MachineTest, AssertionCountingCountsRetiredAsserts) {
  // One legal activation of every exit reason.
  Machine m;
  std::uint64_t total = 0;
  for (const ExitReason& reason : all_exit_reasons()) {
    std::uint64_t n = 0;
    const RunResult res = expect_trace_count_matches_stepping(
        m, m.make_activation(reason, 2, 0), &n);
    EXPECT_TRUE(res.reached_vm_entry) << "exit code " << reason.code();
    total += n;
  }
  EXPECT_GT(total, 0u);

  // The corrupted-idle-vcpu run ends in a failing assertion, which
  // executed but never retired.
  Machine bad;
  const Activation act = corrupt_idle_vcpu(bad);
  std::uint64_t n = 0;
  const RunResult res = expect_trace_count_matches_stepping(bad, act, &n);
  EXPECT_EQ(res.trap.kind, sim::TrapKind::AssertFailed);
  EXPECT_GE(n, 1u);
}

TEST(MachineTest, AssertionsDetectCorruptedIdleState) {
  // Corrupt a vcpu state so a wake/schedule path trips an assertion or
  // at least diverges; specifically force the idle-vcpu assert.
  Machine m;
  const Activation act = corrupt_idle_vcpu(m);
  RunResult res = m.run(act);
  ASSERT_FALSE(res.reached_vm_entry);
  EXPECT_EQ(res.trap.kind, sim::TrapKind::AssertFailed);
  EXPECT_EQ(res.trap.aux, static_cast<std::uint32_t>(kAssertIdleVcpu));
}

/// Single-step oracle for Machine::run: steps the activation one
/// instruction at a time, applies the flip before step `at_step`, and
/// resolves activation at the first instruction that reads (activated) or
/// writes (overwritten) the flipped register.  The watchdog fires when the
/// budget is spent; an injection run then reports steps = 0.
RunResult single_step_oracle(Machine& m, const Activation& act,
                             const Injection* inj, std::uint64_t budget,
                             std::vector<sim::Addr>& trace) {
  m.begin_activation(act);
  sim::Cpu& cpu = m.cpu();
  const sim::Program& program = m.microvisor().program;
  cpu.set_trace(&trace);
  cpu.counters().arm();
  RunResult r;
  bool watching = false;
  for (std::uint64_t n = 0;; ++n) {
    if (n == budget) {
      r.trap = sim::Trap{sim::TrapKind::Watchdog, cpu.reg(sim::Reg::rip), 0};
      r.trap_step = n;
      r.steps = inj != nullptr ? 0 : n;
      break;
    }
    if (inj != nullptr && n == inj->at_step) {
      cpu.flip_bit(inj->reg, inj->bit);
      r.injected = true;
      if (inj->reg == sim::Reg::rip) {
        r.activated = true;
        r.activation_step = n;
      } else {
        watching = true;
      }
    }
    const sim::Instruction* insn = program.fetch(cpu.reg(sim::Reg::rip));
    if (watching && insn != nullptr) {
      const std::uint32_t bit = sim::reg_bit(inj->reg);
      if (sim::regs_read(*insn) & bit) {
        r.activated = true;
        r.activation_step = n;
        watching = false;
      } else if (sim::regs_written(*insn) & bit) {
        watching = false;
      }
    }
    const sim::StepInfo info = cpu.step();
    if (info.status == sim::StepInfo::Status::Halted) {
      r.reached_vm_entry = true;
      r.steps = n;
      break;
    }
    if (info.status == sim::StepInfo::Status::Trapped) {
      r.trap = info.trap;
      r.trap_step = r.steps = n;
      break;
    }
  }
  r.counters = cpu.counters().disarm();
  cpu.set_trace(nullptr);
  return r;
}

TEST(MachineTest, InjectionRunMatchesSingleStepOracle) {
  // Every flip point of five activations and one that ends in a failed
  // assertion, three registers (one the handler reads, rip, one it never
  // touches) and the budget edges around the flip, on both engines.
  // Every RunResult field, the trace, the counters, the register file and
  // memory must equal the single-step oracle's.
  struct Case {
    Activation act;
    Machine::Snapshot pre;
  };
  Machine m, oracle;
  std::vector<Case> cases;
  for (const ExitReason& r :
       {ExitReason::apic(ApicInterrupt::spurious),
        ExitReason::apic(ApicInterrupt::timer),
        ExitReason::hypercall(Hypercall::mmu_update),
        ExitReason::exception(GuestException::page_fault),
        ExitReason::irq(1)}) {
    cases.push_back({m.make_activation(r, 21, 1), m.snapshot()});
  }
  {
    Machine bad;
    const Activation act = corrupt_idle_vcpu(bad);
    cases.push_back({act, bad.snapshot()});
  }

  const sim::Program& program = m.microvisor().program;
  std::vector<sim::Addr> trace, want_trace;
  std::vector<sim::WordDiff> words;
  std::uint64_t activated = 0, watchdogs = 0, traps = 0, runs = 0;
  std::uint64_t activated_at_trap = 0;
  for (const Case& c : cases) {
    // The golden run fixes the flip-point range and the registers.
    m.restore(c.pre);
    trace.clear();
    RunOptions gopts;
    gopts.trace = &trace;
    const RunResult golden = m.run(c.act, gopts);
    const std::uint64_t golden_len =
        golden.reached_vm_entry ? golden.steps : golden.trap_step;
    std::array<std::uint64_t, sim::kNumGprs> reads{};
    std::uint32_t touched = 0;
    for (const sim::Addr a : trace) {
      const std::uint32_t read = sim::regs_read(program.at(a));
      touched |= read | sim::regs_written(program.at(a));
      for (int g = 0; g < sim::kNumGprs; ++g) reads[g] += (read >> g) & 1;
    }
    const auto read_reg = static_cast<sim::Reg>(
        std::max_element(reads.begin(), reads.end()) - reads.begin());
    int untouched = 0;
    while (untouched < sim::kNumGprs && ((touched >> untouched) & 1)) {
      ++untouched;
    }
    ASSERT_LT(untouched, sim::kNumGprs) << "exit " << c.act.reason.code();

    for (std::uint64_t at = 0; at <= golden_len; ++at) {
      for (const sim::Reg reg :
           {read_reg, sim::Reg::rip, static_cast<sim::Reg>(untouched)}) {
        const Injection inj{at, reg, static_cast<int>((at * 7) % 64)};
        for (const std::uint64_t budget :
             {std::uint64_t{0}, at, at + 1, golden_len,
              RunOptions{}.max_steps}) {
          for (const sim::EngineKind engine :
               {sim::EngineKind::Fast, sim::EngineKind::Reference}) {
            const std::string what =
                "exit " + std::to_string(c.act.reason.code()) + " at " +
                std::to_string(at) + " reg " +
                std::string(sim::reg_name(reg)) + " budget " +
                std::to_string(budget) + " engine " +
                std::string(sim::engine_name(engine));
            oracle.restore(c.pre);
            want_trace.clear();
            const RunResult want =
                single_step_oracle(oracle, c.act, &inj, budget, want_trace);

            m.restore(c.pre);
            m.set_execution_engine(engine);
            trace.clear();
            RunOptions opts;
            opts.injection = &inj;
            opts.max_steps = budget;
            opts.trace = &trace;
            const RunResult got = m.run(c.act, opts);

            EXPECT_EQ(got.reached_vm_entry, want.reached_vm_entry) << what;
            EXPECT_EQ(got.trap.kind, want.trap.kind) << what;
            EXPECT_EQ(got.trap.fault_addr, want.trap.fault_addr) << what;
            EXPECT_EQ(got.trap.aux, want.trap.aux) << what;
            EXPECT_EQ(got.counters, want.counters) << what;
            EXPECT_EQ(got.steps, want.steps) << what;
            EXPECT_EQ(got.injected, want.injected) << what;
            EXPECT_EQ(got.activated, want.activated) << what;
            EXPECT_EQ(got.activation_step, want.activation_step) << what;
            EXPECT_EQ(got.trap_step, want.trap_step) << what;
            // No run here is a proven hang, so the full-state comparisons
            // below cover every run.
            EXPECT_FALSE(got.hang_proven) << what;
            EXPECT_EQ(trace, want_trace) << what;
            EXPECT_EQ(m.cpu().regs(), oracle.cpu().regs()) << what;
            EXPECT_EQ(m.cpu().tsc(), oracle.cpu().tsc()) << what;
            EXPECT_EQ(m.memory().diff_spans(oracle.memory(), words), 0u)
                << what;
            ASSERT_FALSE(::testing::Test::HasFailure()) << what;

            if (budget == RunOptions{}.max_steps) {
              // Untraced, run() walks a trace buffer of its own.
              m.restore(c.pre);
              opts.trace = nullptr;
              const RunResult untraced = m.run(c.act, opts);
              EXPECT_EQ(untraced.activated, want.activated) << what;
              EXPECT_EQ(untraced.activation_step, want.activation_step)
                  << what;
              EXPECT_EQ(untraced.trap_step, want.trap_step) << what;
            }

            ++runs;
            activated += got.activated;
            if (!got.reached_vm_entry) {
              ++(got.trap.kind == sim::TrapKind::Watchdog ? watchdogs : traps);
              // The register's first reader is the instruction that
              // trapped: it never retired, so no trace holds it.
              activated_at_trap += got.activated && reg != sim::Reg::rip &&
                                   got.trap.kind != sim::TrapKind::Watchdog &&
                                   got.activation_step == got.trap_step;
            }
          }
        }
      }
    }
  }
  m.set_execution_engine(sim::EngineKind::Fast);
  // Every outcome class must actually occur.
  EXPECT_GT(activated, runs / 10);
  EXPECT_GT(watchdogs, runs / 10);
  EXPECT_GT(traps, 0u);
  EXPECT_GT(activated_at_trap, 0u);
}

TEST(MachineTest, PersistentDiffClassifiesTimeValues) {
  Machine a, b;
  const sim::Addr sh = L::shared_info_addr(1);
  b.memory().poke(sh + L::kShSystemTime, 12345);
  const auto diffs = Machine::diff_persistent_state(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].cls, L::OutputClass::TimeValue);
  EXPECT_EQ(diffs[0].domain, 1);
}

TEST(MachineTest, PersistentDiffClassifiesGuestControl) {
  Machine a, b;
  b.memory().poke(L::vcpu_addr(2) + L::kVcpuSaveRip, 0xbad);
  const auto diffs = Machine::diff_persistent_state(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].cls, L::OutputClass::GuestControl);
  EXPECT_EQ(diffs[0].domain, 2);
}

TEST(MachineTest, PersistentDiffAfterSyncMatchesFullComparison) {
  // The campaign's pattern: the faulty machine is synced to a snapshot of
  // the golden pre-state, then both run.  Pages neither side wrote are
  // skipped unread; the result must equal a word-by-word comparison.
  Machine golden, faulty;
  Machine::Snapshot pre;
  std::size_t total = 0;
  std::uint64_t seed = 0;
  for (const ExitReason& r : all_exit_reasons()) {
    ++seed;
    golden.snapshot_into(pre);
    faulty.restore(pre);
    golden.run(golden.make_activation(r, seed));
    faulty.run(faulty.make_activation(r, seed + 1000));
    faulty.memory().poke(L::shared_info_addr(1) + L::kShSystemTime, seed);

    const auto diffs = Machine::diff_persistent_state(golden, faulty);
    std::vector<sim::WordDiff> words;
    golden.memory().diff_spans(faulty.memory(), words);
    std::vector<StateDiff> want;
    for (const sim::WordDiff& w : words) {
      if (golden.memory().region_at(w.addr)->name == "stack") continue;
      StateDiff d;
      d.addr = w.addr;
      if (!L::classify_address(d.addr, golden.num_domains(),
                               golden.num_vcpus() + 1, d.cls, d.domain)) {
        continue;
      }
      want.push_back(d);
    }
    ASSERT_EQ(diffs.size(), want.size()) << handler_symbol(r);
    for (std::size_t i = 0; i < diffs.size(); ++i) {
      EXPECT_EQ(diffs[i].addr, want[i].addr) << handler_symbol(r);
      EXPECT_EQ(diffs[i].golden, golden.memory().peek(diffs[i].addr));
      EXPECT_EQ(diffs[i].faulty, faulty.memory().peek(diffs[i].addr));
      EXPECT_EQ(diffs[i].cls, want[i].cls);
    }
    total += diffs.size();
  }
  EXPECT_GT(total, 0u);
}

TEST(MachineTest, StackIsExcludedFromPersistentDiff) {
  Machine a, b;
  b.memory().poke(L::kStackBase + 5, 77);
  EXPECT_TRUE(Machine::diff_persistent_state(a, b).empty());
}

TEST(MachineTest, BadVcpuIndexThrows) {
  Machine m;
  Activation act;
  act.reason = ExitReason::softirq();
  act.vcpu = 99;
  EXPECT_THROW(m.run(act), std::invalid_argument);
}

}  // namespace
}  // namespace xentry::hv
