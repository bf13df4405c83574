#include "xentry/recovery_engine.hpp"

#include <gtest/gtest.h>

#include "fault/experiment.hpp"

namespace xentry {
namespace {

namespace L = hv::layout;

TEST(RecoveryEngineTest, CheckpointCoversCriticalData) {
  hv::Machine m;
  RecoveryEngine rec(m);
  EXPECT_FALSE(rec.has_checkpoint());
  rec.checkpoint(m.make_activation(hv::ExitReason::softirq(), 1));
  EXPECT_TRUE(rec.has_checkpoint());
  // HV globals + domain structs + vcpu structs (incl. idle).
  const std::size_t expected =
      L::kHvDataSize +
      static_cast<std::size_t>(m.num_domains()) * L::kDomainStride +
      static_cast<std::size_t>(m.num_vcpus() + 1) * L::kVcpuStride;
  EXPECT_EQ(rec.checkpoint_words(), expected);
  EXPECT_EQ(rec.stats().checkpoints, 1u);
}

TEST(RecoveryEngineTest, RecoverWithoutCheckpointThrows) {
  hv::Machine m;
  RecoveryEngine rec(m);
  EXPECT_THROW(rec.recover(), std::logic_error);
}

TEST(RecoveryEngineTest, RestoresCorruptedCriticalStateAndReruns) {
  hv::Machine m;
  RecoveryEngine rec(m);
  const auto act = m.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::set_debugreg), 5, 0);
  rec.checkpoint(act);
  const sim::Word runq_before =
      m.memory().peek(L::kHvDataBase + L::kHvRunqCount);

  // Corrupt critical hypervisor data as a detected fault would have.
  m.memory().poke(L::kHvDataBase + L::kHvRunqCount, 0xdeadbeef);
  m.memory().poke(L::vcpu_addr(0) + L::kVcpuState, 0x77);

  const hv::RunResult res = rec.recover();
  EXPECT_TRUE(res.reached_vm_entry);
  EXPECT_EQ(rec.stats().recoveries, 1u);
  EXPECT_EQ(rec.stats().clean_reruns, 1u);
  // run() marks the activation's vcpu running and enqueues it; the
  // corrupted garbage must be gone.
  EXPECT_EQ(m.memory().peek(L::kHvDataBase + L::kHvRunqCount), runq_before);
  EXPECT_EQ(m.memory().peek(L::vcpu_addr(0) + L::kVcpuState),
            static_cast<sim::Word>(L::kVcpuStateRunning));
}

TEST(RecoveryEngineTest, RecoveryAfterDetectedInjectionRestoresGoldenState) {
  // Full loop: golden run, faulted run detected by a hardware exception,
  // recovery re-executes and must land in the golden post-state (the
  // fault struck before any guest-visible writes happened to diverge).
  hv::Machine golden, faulty;
  Xentry xentry;
  fault::InjectionExperiment exp(golden, faulty, xentry);
  const auto act = golden.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::xen_version), 9, 1);

  RecoveryEngine rec(faulty);
  rec.checkpoint(act);  // VM-exit side

  const hv::Injection inj{1, sim::Reg::rip, 45};  // guaranteed #PF
  fault::InjectionExperiment::GoldenProbe probe;
  exp.probe_golden_advance(act, probe);
  const auto result = exp.run_one(act, inj, probe);
  ASSERT_TRUE(result.record.detected);

  const hv::RunResult rerun = rec.recover();
  EXPECT_TRUE(rerun.reached_vm_entry);
  EXPECT_TRUE(hv::Machine::diff_persistent_state(golden, faulty).empty());
}

TEST(RecoveryEngineTest, HonestAboutResidualGuestCorruption) {
  // The checkpoint deliberately excludes guest RAM (the paper's scheme
  // copies only "critical hypervisor data"); corruption already written
  // to guest memory before detection is NOT undone.
  hv::Machine m;
  RecoveryEngine rec(m);
  const auto act = m.make_activation(hv::ExitReason::tasklet(), 2, 0);
  rec.checkpoint(act);
  const sim::Addr guest = L::guest_ram_addr(1) + L::kGuestAppData;
  m.memory().poke(guest, 0xbad);
  rec.recover();
  EXPECT_EQ(m.memory().peek(guest), 0xbadu);
}

}  // namespace
}  // namespace xentry
