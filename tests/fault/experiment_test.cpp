#include "fault/experiment.hpp"

#include <gtest/gtest.h>

namespace xentry::fault {
namespace {

struct Rig {
  hv::Machine golden;
  hv::Machine faulty;
  Xentry xentry;
  InjectionExperiment exp{golden, faulty, xentry};
};

/// One experiment from the golden machine's current state: the golden
/// probe run, then the faulted run (which reuses it).
InjectionExperiment::Result run_one(Rig& rig, const hv::Activation& act,
                                    const hv::Injection& inj) {
  InjectionExperiment::GoldenProbe probe;
  rig.exp.probe_golden_advance(act, probe);
  return rig.exp.run_one(act, inj, probe);
}

/// The golden probe run, then a rewind of the golden machine to its
/// pre-run state.
InjectionExperiment::GoldenProbe probe_and_rewind(Rig& rig,
                                                  const hv::Activation& act) {
  InjectionExperiment::GoldenProbe probe;
  rig.exp.probe_golden_advance(act, probe);
  rig.golden.restore(probe.pre);
  return probe;
}

TEST(ExperimentTest, GoldenProbeRestoresState) {
  Rig rig;
  const auto act = rig.golden.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::mmu_update), 5);
  const auto before = rig.golden.memory().snapshot();
  const auto probe = probe_and_rewind(rig, act);
  EXPECT_GT(probe.steps, 0u);
  EXPECT_EQ(probe.trace.size(), probe.steps);
  EXPECT_EQ(rig.golden.memory().snapshot(), before);
}

TEST(ExperimentTest, GoldenProbeAdvanceLeavesPostRunStateAndFillsProbe) {
  // Two identical rigs: one advances via a plain golden run, the other
  // via probe_golden_advance.  The golden machines must end bit-identical
  // (the probe run IS the golden run), and the probe must carry the same
  // trace/steps as a probe that rewinds.
  Rig plain, probed;
  const auto act = plain.golden.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::mmu_update), 5);
  const auto reference = probe_and_rewind(plain, act);
  plain.golden.run(act);

  InjectionExperiment::GoldenProbe probe;
  probed.exp.probe_golden_advance(act, probe);
  EXPECT_EQ(probe.steps, reference.steps);
  EXPECT_EQ(probe.trace, reference.trace);
  EXPECT_TRUE(probe.reached_vm_entry);
  EXPECT_EQ(probed.golden.memory().snapshot(),
            plain.golden.memory().snapshot());
}

TEST(ExperimentTest, ProbeReuseRunOneMatchesTwoRunPath) {
  // Golden-run reuse must produce bit-identical results to executing the
  // golden run twice: once by a probe that rewinds, once more as the
  // experiment's own golden run.
  Rig legacy, fast;
  std::vector<hv::Activation> acts;
  for (int i = 0; i < 20; ++i) {
    acts.push_back(legacy.golden.make_activation(
        hv::all_exit_reasons()[static_cast<std::size_t>(i) %
                               hv::all_exit_reasons().size()],
        40 + i));
  }
  std::mt19937_64 rng_a(77), rng_b(77);
  InjectionExperiment::GoldenProbe probe;
  for (const auto& act : acts) {
    const auto ref_probe = probe_and_rewind(legacy, act);
    const hv::Injection inj_a = InjectionExperiment::draw_activated_injection(
        rng_a, ref_probe.trace, legacy.golden.microvisor().program);
    legacy.golden.run(act);
    const auto a = legacy.exp.run_one(act, inj_a, ref_probe);

    fast.exp.probe_golden_advance(act, probe);
    const hv::Injection inj_b = InjectionExperiment::draw_activated_injection(
        rng_b, probe.trace, fast.golden.microvisor().program);
    const auto b = fast.exp.run_one(act, inj_b, probe);

    ASSERT_EQ(inj_a.at_step, inj_b.at_step);
    ASSERT_EQ(inj_a.reg, inj_b.reg);
    ASSERT_EQ(inj_a.bit, inj_b.bit);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.golden_ok, b.golden_ok);
    EXPECT_EQ(a.golden_features.as_array(), b.golden_features.as_array());
    EXPECT_EQ(a.record.activated, b.record.activated);
    EXPECT_EQ(a.record.consequence, b.record.consequence);
    EXPECT_EQ(a.record.detected, b.record.detected);
    EXPECT_EQ(a.record.technique, b.record.technique);
    EXPECT_EQ(a.record.latency, b.record.latency);
    EXPECT_EQ(a.record.trap, b.record.trap);
    EXPECT_EQ(a.record.trace_diverged, b.record.trace_diverged);
    EXPECT_EQ(a.record.undetected, b.record.undetected);
    EXPECT_EQ(a.record.features.as_array(), b.record.features.as_array());
  }
  // Both rigs must also end with machines in the same state.
  EXPECT_EQ(legacy.golden.memory().snapshot(),
            fast.golden.memory().snapshot());
  EXPECT_EQ(legacy.faulty.memory().snapshot(),
            fast.faulty.memory().snapshot());
}

TEST(ExperimentTest, ActivatedDrawWithEmptyTraceIsWellFormed) {
  std::mt19937_64 rng(3);
  sim::Program empty_prog;
  bool saw_non_default_reg = false;
  for (int i = 0; i < 100; ++i) {
    const hv::Injection inj = InjectionExperiment::draw_activated_injection(
        rng, {}, empty_prog);
    EXPECT_EQ(inj.at_step, 0u);
    EXPECT_GE(inj.bit, 0);
    EXPECT_LT(inj.bit, sim::kBitsPerReg);
    EXPECT_GE(static_cast<int>(inj.reg), 0);
    EXPECT_LT(static_cast<int>(inj.reg), sim::kNumArchRegs);
    saw_non_default_reg |= inj.reg != sim::Reg::rax;
  }
  // The fallback draws a uniform register, not the default-initialized rax.
  EXPECT_TRUE(saw_non_default_reg);
}

TEST(ExperimentTest, AdvanceKeepsMachinesInLockstep) {
  // advance() runs only the golden machine; the faulty machine is synced
  // on execution.  A stream with the lazy sync must yield the same records as
  // the same stream with an explicit eager sync after every advance.
  Rig lazy, eager;
  const auto& reasons = hv::all_exit_reasons();
  std::mt19937_64 rng_a(11), rng_b(11);
  InjectionExperiment::GoldenProbe pa, pb;
  for (int i = 0; i < 40; ++i) {
    const auto gap = lazy.golden.make_activation(
        reasons[static_cast<std::size_t>(3 * i + 1) % reasons.size()],
        200 + i);
    lazy.exp.advance(gap);
    eager.exp.advance(gap);
    eager.faulty.restore(eager.golden.snapshot());

    const auto act = lazy.golden.make_activation(
        reasons[static_cast<std::size_t>(i) % reasons.size()], 100 + i);
    lazy.exp.probe_golden_advance(act, pa);
    eager.exp.probe_golden_advance(act, pb);
    ASSERT_EQ(pa.steps, pb.steps);
    if (pa.steps == 0) {
      lazy.golden.restore(pa.pre);
      eager.golden.restore(pb.pre);
      continue;
    }
    const auto ia = InjectionExperiment::draw_activated_injection(
        rng_a, pa.trace, lazy.golden.microvisor().program);
    const auto ib = InjectionExperiment::draw_activated_injection(
        rng_b, pb.trace, eager.golden.microvisor().program);
    const auto a = lazy.exp.run_one(act, ia, pa);
    const auto b = eager.exp.run_one(act, ib, pb);
    EXPECT_EQ(a.golden_ok, b.golden_ok);
    EXPECT_EQ(a.golden_features.as_array(), b.golden_features.as_array());
    EXPECT_EQ(a.record.injection.at_step, b.record.injection.at_step);
    EXPECT_EQ(a.record.injection.reg, b.record.injection.reg);
    EXPECT_EQ(a.record.injection.bit, b.record.injection.bit);
    EXPECT_EQ(a.record.injected, b.record.injected);
    EXPECT_EQ(a.record.activated, b.record.activated);
    EXPECT_EQ(a.record.consequence, b.record.consequence);
    EXPECT_EQ(a.record.detected, b.record.detected);
    EXPECT_EQ(a.record.technique, b.record.technique);
    EXPECT_EQ(a.record.latency, b.record.latency);
    EXPECT_EQ(a.record.trap, b.record.trap);
    EXPECT_EQ(a.record.assert_id, b.record.assert_id);
    EXPECT_EQ(a.record.trace_diverged, b.record.trace_diverged);
    EXPECT_EQ(a.record.undetected, b.record.undetected);
    EXPECT_EQ(a.record.features.as_array(), b.record.features.as_array());
  }
  EXPECT_EQ(lazy.golden.memory().snapshot(), eager.golden.memory().snapshot());

  // A non-activated injection the golden trace resolves is never
  // executed, so the stale faulty machine is not synced and keeps the
  // state it had before the call.
  Rig rig;
  for (int i = 0; i < 5; ++i) {
    rig.exp.advance(rig.golden.make_activation(
        hv::ExitReason::apic(hv::ApicInterrupt::timer), 100 + i));
  }
  const auto act = rig.golden.make_activation(
      hv::ExitReason::apic(hv::ApicInterrupt::spurious), 9, 0);
  const auto faulty_before = rig.faulty.memory().snapshot();
  const auto r = run_one(rig, act, hv::Injection{1, sim::Reg::rdx, 30});
  ASSERT_FALSE(r.record.activated);
  EXPECT_FALSE(r.executed);
  EXPECT_EQ(rig.faulty.memory().snapshot(), faulty_before);
}

TEST(ExperimentTest, NonActivatedFaultIsMasked) {
  Rig rig;
  const auto act = rig.golden.make_activation(
      hv::ExitReason::apic(hv::ApicInterrupt::spurious), 9, 0);
  // The spurious handler never touches rdx.
  hv::Injection inj{1, sim::Reg::rdx, 30};
  auto r = run_one(rig, act, inj);
  EXPECT_TRUE(r.golden_ok);
  EXPECT_TRUE(r.record.injected);
  EXPECT_FALSE(r.record.activated);
  EXPECT_EQ(r.record.consequence, Consequence::Masked);
  EXPECT_FALSE(r.record.detected);
}

TEST(ExperimentTest, RipFlipIsHypervisorCrashDetectedByHardware) {
  Rig rig;
  const auto act = rig.golden.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::console_io), 8, 2);
  hv::Injection inj{3, sim::Reg::rip, 45};
  auto r = run_one(rig, act, inj);
  EXPECT_EQ(r.record.consequence, Consequence::HypervisorCrash);
  EXPECT_TRUE(r.record.detected);
  EXPECT_EQ(r.record.technique, Technique::HardwareException);
  EXPECT_EQ(r.record.trap, sim::TrapKind::PageFault);
  EXPECT_EQ(r.record.latency, 0u);  // activated at the fetch that faulted
}

TEST(ExperimentTest, GoldenFeaturesAreCorrectSample) {
  Rig rig;
  const auto act = rig.golden.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::xen_version), 4);
  hv::Injection inj{0, sim::Reg::rip, 50};
  auto r = run_one(rig, act, inj);
  EXPECT_TRUE(r.golden_ok);
  EXPECT_GT(r.golden_features.rt, 0);
  EXPECT_EQ(r.golden_features.vmer, act.reason.code());
}

TEST(ExperimentTest, DrawInjectionWithinBounds) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 200; ++i) {
    hv::Injection inj = InjectionExperiment::draw_injection(rng, 50);
    EXPECT_LT(inj.at_step, 50u);
    EXPECT_GE(inj.bit, 0);
    EXPECT_LT(inj.bit, 64);
    EXPECT_LT(static_cast<int>(inj.reg), sim::kNumArchRegs);
  }
}

TEST(ExperimentTest, ActivatedDrawPicksReadRegisters) {
  Rig rig;
  const auto act = rig.golden.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::grant_table_op), 6);
  const auto probe = probe_and_rewind(rig, act);
  std::mt19937_64 rng(5);
  int activated = 0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    hv::Injection inj = InjectionExperiment::draw_activated_injection(
        rng, probe.trace, rig.golden.microvisor().program);
    auto r = run_one(rig, act, inj);
    activated += r.record.activated ? 1 : 0;
  }
  // Activation is near-certain by construction (the register is read by
  // the very next instruction unless a trap preempts it).
  EXPECT_GT(activated, trials * 8 / 10);
}

TEST(ExperimentTest, MismatchedMachinesThrow) {
  hv::Machine a;
  hv::MicrovisorOptions opt;
  opt.num_domains = 2;
  hv::Machine b(opt);
  Xentry x;
  EXPECT_THROW(InjectionExperiment(a, b, x), std::invalid_argument);
}

TEST(OutcomeTest, TaxonomyPredicates) {
  EXPECT_TRUE(is_long_latency(Consequence::AppSdc));
  EXPECT_TRUE(is_long_latency(Consequence::AllVmFailure));
  EXPECT_FALSE(is_long_latency(Consequence::HypervisorCrash));
  EXPECT_FALSE(is_long_latency(Consequence::Masked));
  EXPECT_TRUE(is_manifested(Consequence::HypervisorCrash));
  EXPECT_FALSE(is_manifested(Consequence::Masked));
  EXPECT_EQ(consequence_name(Consequence::AppSdc), "app_sdc");
  EXPECT_EQ(undetected_class_name(UndetectedClass::TimeValues),
            "time_values");
}

}  // namespace
}  // namespace xentry::fault
