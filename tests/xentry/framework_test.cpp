#include "xentry/framework.hpp"

#include <gtest/gtest.h>

#include "hv/machine.hpp"
#include "ml/decision_tree.hpp"

namespace xentry {
namespace {

namespace L = hv::layout;

// A rule set that flags everything / nothing, for protocol tests.
ml::RuleSet constant_rules(ml::Label label) {
  ml::Dataset ds({"VMER", "RT", "BR", "RM", "WM"});
  std::array<std::int64_t, 5> row{0, 0, 0, 0, 0};
  ds.add(row, label);
  ds.add(row, label);
  ml::DecisionTree t;
  t.train(ds);
  return ml::RuleSet::compile(t);
}

TEST(XentryTest, CleanRunIsUndetectedWithAlwaysCorrectModel) {
  hv::Machine m;
  Xentry x;
  x.set_model(constant_rules(ml::Label::Correct));
  auto act =
      m.make_activation(hv::ExitReason::hypercall(hv::Hypercall::iret), 3);
  Observation obs = x.observe(m, act);
  EXPECT_TRUE(obs.run.reached_vm_entry);
  EXPECT_FALSE(obs.detected);
  EXPECT_EQ(obs.technique, Technique::None);
  EXPECT_GT(obs.features.rt, 0);
  EXPECT_EQ(x.detector().evaluations(), 1u);
}

TEST(XentryTest, TransitionDetectionFlagsAtVmEntry) {
  hv::Machine m;
  Xentry x;
  x.set_model(constant_rules(ml::Label::Incorrect));
  auto act =
      m.make_activation(hv::ExitReason::hypercall(hv::Hypercall::iret), 3);
  Observation obs = x.observe(m, act);
  ASSERT_TRUE(obs.run.reached_vm_entry);
  EXPECT_TRUE(obs.detected);
  EXPECT_EQ(obs.technique, Technique::VmTransition);
  EXPECT_EQ(obs.detection_step, obs.run.steps);
}

TEST(XentryTest, HardwareExceptionDetection) {
  hv::Machine m;
  Xentry x;
  auto act = m.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::console_io), 8, 2);
  // Flip a high rip bit early: guaranteed #PF.
  hv::Injection inj{2, sim::Reg::rip, 40};
  hv::RunOptions opts;
  opts.injection = &inj;
  Observation obs = x.observe(m, act, opts);
  EXPECT_FALSE(obs.run.reached_vm_entry);
  EXPECT_TRUE(obs.detected);
  EXPECT_EQ(obs.technique, Technique::HardwareException);
}

TEST(XentryTest, AssertionDetectionRecordsFire) {
  hv::Machine m;
  // Corrupt the idle vcpu so a forced idle path trips Listing 2's assert.
  m.memory().poke(L::kHvDataBase + L::kHvRunqCount, 0);
  m.memory().poke(L::vcpu_addr(m.num_vcpus()) + L::kVcpuState,
                  L::kVcpuStateRunning);
  Xentry x;
  hv::Activation act;
  act.reason = hv::ExitReason::hypercall(hv::Hypercall::sched_op_compat);
  act.arg1 = 1;
  act.vcpu = 0;
  Observation obs = x.observe(m, act);
  ASSERT_TRUE(obs.detected);
  EXPECT_EQ(obs.technique, Technique::SoftwareAssertion);
  EXPECT_EQ(x.assertions().fires(hv::kAssertIdleVcpu), 1u);
}

TEST(XentryTest, RuntimeDetectionOffIgnoresTraps) {
  hv::Machine m;
  XentryConfig cfg;
  cfg.runtime_detection = false;
  Xentry x(cfg);
  auto act = m.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::console_io), 8, 2);
  hv::Injection inj{2, sim::Reg::rip, 40};
  hv::RunOptions opts;
  opts.injection = &inj;
  Observation obs = x.observe(m, act, opts);
  EXPECT_FALSE(obs.run.reached_vm_entry);
  EXPECT_FALSE(obs.detected);  // the crash happens, but nothing claims it
}

TEST(XentryTest, TransitionDetectionOffSkipsCountersAndModel) {
  hv::Machine m;
  XentryConfig cfg;
  cfg.transition_detection = false;
  Xentry x(cfg);
  x.set_model(constant_rules(ml::Label::Incorrect));
  auto act =
      m.make_activation(hv::ExitReason::hypercall(hv::Hypercall::iret), 3);
  Observation obs = x.observe(m, act);
  EXPECT_TRUE(obs.run.reached_vm_entry);
  EXPECT_FALSE(obs.detected);
  EXPECT_EQ(x.detector().evaluations(), 0u);
  EXPECT_EQ(obs.features.rt, 0);  // counters never armed
}

TEST(XentryTest, AttachedRegistryAloneTurnsMetricsOn) {
  hv::Machine m;
  Xentry x;  // default config: no separate metrics switch to set
  auto act =
      m.make_activation(hv::ExitReason::hypercall(hv::Hypercall::iret), 3);
  obs::MetricsRegistry reg;
  x.set_metrics(&reg);
  x.observe(m, act);
  x.observe(m, act);
  const obs::Counter* observations = reg.find_counter("xentry.observations");
  ASSERT_NE(observations, nullptr);
  EXPECT_EQ(observations->value(), 2u);

  x.set_metrics(nullptr);
  x.observe(m, act);
  EXPECT_EQ(observations->value(), 2u);
}

TEST(XentryTest, TechniqueNames) {
  EXPECT_EQ(technique_name(Technique::None), "undetected");
  EXPECT_EQ(technique_name(Technique::HardwareException), "hw_exception");
  EXPECT_EQ(technique_name(Technique::SoftwareAssertion), "sw_assertion");
  EXPECT_EQ(technique_name(Technique::VmTransition), "vm_transition");
}

TEST(TransitionDetectorTest, StatisticsAccumulate) {
  TransitionDetector d(constant_rules(ml::Label::Incorrect));
  ASSERT_TRUE(d.has_model());
  FeatureVector f{1, 2, 3, 4, 5};
  EXPECT_TRUE(d.flag(f));
  EXPECT_TRUE(d.flag(f));
  EXPECT_EQ(d.evaluations(), 2u);
  EXPECT_EQ(d.flagged(), 2u);
  EXPECT_EQ(d.max_comparisons_per_entry(), 0);  // single-leaf model
  EXPECT_DOUBLE_EQ(d.mean_comparisons(), 0.0);
}

}  // namespace
}  // namespace xentry
