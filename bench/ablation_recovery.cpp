// Ablation: checkpoint + re-execution recovery (Section VI's sketch,
// implemented).  For every detected fault in a campaign-style stream,
// restore the critical-data checkpoint and re-execute; report how often
// the re-run lands exactly in the golden post-state, broken down by the
// detecting technique.
#include <cstdio>
#include <map>

#include "bench/bench_util.hpp"
#include "fault/experiment.hpp"
#include "workloads/workload.hpp"
#include "xentry/recovery_engine.hpp"

int main() {
  using namespace xentry;
  bench::print_header("Ablation: checkpoint + re-execution recovery");

  fault::TrainedDetector det = bench::train_paper_model();

  hv::Machine golden, faulty;
  Xentry xentry;
  xentry.set_model(det.rules);
  fault::InjectionExperiment exp(golden, faulty, xentry);
  RecoveryEngine recovery(faulty);
  wl::WorkloadGenerator gen(golden, bench::pooled_benchmark_profile(), 42);
  std::mt19937_64 rng(7);

  struct Tally {
    std::size_t detections = 0;
    std::size_t clean = 0;     ///< re-run reached VM entry
    std::size_t exact = 0;     ///< post-state identical to golden
  };
  std::map<Technique, Tally> by_technique;

  fault::InjectionExperiment::GoldenProbe probe;
  const int trials = bench::scaled(12000);
  for (int i = 0; i < trials; ++i) {
    const hv::Activation act = gen.next();
    exp.probe_golden_advance(act, probe);
    if (probe.steps == 0) {
      golden.restore(probe.pre);
      continue;
    }
    const hv::Injection inj =
        fault::InjectionExperiment::draw_activated_injection(
            rng, probe.trace, golden.microvisor().program);
    // The checkpoint reads the faulty machine, which the experiment only
    // syncs inside run_one: align it with the golden pre-run state first.
    faulty.restore(probe.pre);
    recovery.checkpoint(act);  // the VM-exit-side copy
    const auto result = exp.run_one(act, inj, probe);
    if (result.record.detected) {
      Tally& t = by_technique[result.record.technique];
      ++t.detections;
      const hv::RunResult rerun = recovery.recover();
      t.clean += rerun.reached_vm_entry ? 1 : 0;
      t.exact +=
          hv::Machine::diff_persistent_state(golden, faulty).empty() ? 1 : 0;
    }
    exp.advance(gen.next());
  }

  std::printf("%-16s %10s %12s %13s\n", "technique", "detections",
              "clean rerun", "exact state");
  for (const auto& [tech, t] : by_technique) {
    std::printf("%-16s %10zu %11.1f%% %12.1f%%\n",
                std::string(technique_name(tech)).c_str(), t.detections,
                t.detections ? 100.0 * t.clean / t.detections : 0.0,
                t.detections ? 100.0 * t.exact / t.detections : 0.0);
  }
  std::printf("\ncheckpoint footprint: %zu words per VM exit "
              "(the paper's measured 1,900 ns copy)\n",
              recovery.checkpoint_words());
  std::printf(
      "expected shape: runtime detections (short latency, nothing written\n"
      "to guest memory yet) recover exactly; transition detections fire\n"
      "after guest-visible writes, so some residue survives re-execution.\n");
  return 0;
}
