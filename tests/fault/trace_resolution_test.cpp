// Exhaustive differential check of the trace-resolved path of run_one.
//
// For a set of activations spanning every exit-reason family, every flip
// (at_step, reg, bit) with bit in {0, 31, 63} is both scanned and really
// executed:
//   - the golden-trace scan (unread_on_golden_path) must answer exactly
//     "not activated" of a Machine::run with the injection, on a machine
//     restored from the probe's pre-run state;
//   - run_one must execute exactly the flips the scan cannot resolve;
//   - for every resolved flip, run_one's record must equal what the
//     executed Xentry::observe yields (injected, activated, features,
//     trap, assert id, trace equality with the golden trace), and the
//     flight frame it appends must equal the executed run's.
// Three Xentry configurations cover armed and unarmed counters.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "analysis/artifacts.hpp"
#include "fault/experiment.hpp"
#include "hv/microvisor.hpp"

namespace xentry::fault {
namespace {

/// One reason per seventh entry of the code-ordered list: six hypercalls,
/// three exceptions, an APIC handler, two IRQ lines and the tasklet, plus
/// the softirq the stride skips.
std::vector<hv::ExitReason> spanning_reasons() {
  const auto& all = hv::all_exit_reasons();
  std::vector<hv::ExitReason> out;
  for (std::size_t i = 0; i < all.size(); i += 7) out.push_back(all[i]);
  out.push_back(hv::ExitReason::softirq());
  return out;
}

void check_every_flip(const XentryConfig& config,
                      const analysis::AnalysisArtifacts* artifacts) {
  hv::Machine golden, faulty, reference;
  Xentry xentry(config);
  if (artifacts != nullptr) xentry.set_analysis(artifacts);
  InjectionExperiment exp(golden, faulty, xentry);
  const sim::Program& program = golden.microvisor().program;

  // Both the skipped and the executed run feed a one-frame ring.
  obs::FlightRecorder resolved_ring(1), executed_ring(1);
  obs::MachineTelemetry faulty_hooks, reference_hooks;
  faulty_hooks.flight = &resolved_ring;
  reference_hooks.flight = &executed_ring;
  faulty_hooks.flight_source = reference_hooks.flight_source = 1;
  faulty.set_telemetry(&faulty_hooks);
  reference.set_telemetry(&reference_hooks);

  const std::vector<hv::ExitReason> reasons = spanning_reasons();
  ASSERT_GE(reasons.size(), 12u);
  std::size_t resolved = 0, executed = 0;
  std::vector<sim::Addr> trace;
  std::vector<obs::FlightFrame> resolved_frame, executed_frame;
  InjectionExperiment::GoldenProbe probe;
  for (std::size_t a = 0; a < reasons.size(); ++a) {
    const hv::Activation act = golden.make_activation(reasons[a], 31 + a);
    exp.probe_golden_advance(act, probe);
    ASSERT_TRUE(probe.reached_vm_entry) << a;
    ASSERT_EQ(probe.trace.size(), probe.steps) << a;
    for (std::uint64_t step = 0; step < probe.trace.size(); ++step) {
      for (int r = 0; r < sim::kNumArchRegs; ++r) {
        for (const int bit : {0, 31, 63}) {
          const hv::Injection inj{step, static_cast<sim::Reg>(r), bit};
          const bool verdict =
              InjectionExperiment::unread_on_golden_path(program, probe, inj);

          reference.restore(probe.pre);
          hv::RunOptions opts;
          opts.injection = &inj;
          const hv::RunResult run = reference.run(act, opts);
          ASSERT_EQ(verdict, !run.activated)
              << "reason " << a << " step " << step << " reg " << r
              << " bit " << bit;

          resolved_ring.clear();
          const InjectionExperiment::Result res = exp.run_one(act, inj, probe);
          ASSERT_EQ(res.executed, !verdict);
          if (res.executed) {
            ++executed;
            continue;
          }
          ++resolved;

          reference.restore(probe.pre);
          executed_ring.clear();
          trace.clear();
          opts.trace = &trace;
          const Observation obs = xentry.observe(reference, act, opts);
          const InjectionRecord& rec = res.record;
          EXPECT_EQ(rec.injected, obs.run.injected);
          EXPECT_EQ(rec.activated, obs.run.activated);
          EXPECT_EQ(rec.features.as_array(), obs.features.as_array());
          EXPECT_EQ(rec.trap, obs.run.trap.kind);
          EXPECT_EQ(rec.assert_id, obs.run.trap.aux);
          EXPECT_EQ(rec.trace_diverged, trace != probe.trace);
          EXPECT_EQ(rec.consequence, Consequence::Masked);
          EXPECT_FALSE(rec.detected);
          resolved_ring.dump_into(resolved_frame);
          executed_ring.dump_into(executed_frame);
          ASSERT_EQ(resolved_frame.size(), 1u);
          EXPECT_EQ(resolved_frame, executed_frame)
              << "reason " << a << " step " << step << " reg " << r;
        }
      }
    }
  }
  // Neither side of the split may be vacuous.
  EXPECT_GT(resolved, 0u);
  EXPECT_GT(executed, 0u);
}

TEST(TraceResolutionTest, TransitionDetectionArmsCounters) {
  check_every_flip(XentryConfig{}, nullptr);
}

TEST(TraceResolutionTest, CountersUnarmed) {
  XentryConfig config;
  config.transition_detection = false;
  config.timing_detection = false;
  check_every_flip(config, nullptr);
}

TEST(TraceResolutionTest, ControlFlowAndTimingWithArtifacts) {
  const hv::Microvisor mv = hv::build_microvisor(hv::MicrovisorOptions{});
  const auto artifacts = std::make_unique<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(mv.program, hv::analyze_options(mv)));
  XentryConfig config;
  config.transition_detection = false;
  config.control_flow_detection = true;
  config.timing_detection = true;
  check_every_flip(config, artifacts.get());
}

}  // namespace
}  // namespace xentry::fault
