// Microbenchmarks (google-benchmark): the hot paths whose cost the
// overhead model charges — rule evaluation at VM entry, counter
// arm/disarm, simulator step rate, full activation dispatch, and
// end-to-end injection-experiment throughput.
#include <benchmark/benchmark.h>

#include "fault/campaign.hpp"
#include "fault/experiment.hpp"
#include "fault/training.hpp"
#include "hv/machine.hpp"
#include "xentry/framework.hpp"

namespace {

using namespace xentry;

const fault::TrainedDetector& shared_model() {
  static const fault::TrainedDetector det = [] {
    fault::CampaignConfig cfg;
    cfg.injections = 4000;
    cfg.seed = 101;
    cfg.collect_dataset = true;
    auto res = fault::run_campaign(cfg);
    return fault::train_detector(res.dataset);
  }();
  return det;
}

void BM_RuleEvaluation(benchmark::State& state) {
  const ml::RuleSet& rules = shared_model().rules;
  const std::array<std::int64_t, 5> features{28, 120, 25, 30, 22};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rules.evaluate(features));
  }
  state.counters["worst_cmps"] =
      static_cast<double>(rules.max_comparisons());
}
BENCHMARK(BM_RuleEvaluation);

void BM_CounterArmDisarm(benchmark::State& state) {
  sim::PerfCounters pc;
  for (auto _ : state) {
    pc.arm();
    pc.on_retire(true, false, true);
    benchmark::DoNotOptimize(pc.disarm());
  }
}
BENCHMARK(BM_CounterArmDisarm);

void BM_SimulatorSteps(benchmark::State& state) {
  hv::Machine m;
  const auto act = m.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::mmu_update), 7);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const hv::RunResult res = m.run(act);
    steps += res.steps;
    benchmark::DoNotOptimize(res.steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimulatorSteps);

void BM_ActivationUnderXentry(benchmark::State& state) {
  hv::Machine m;
  Xentry x;
  x.set_model(shared_model().rules);
  const auto act = m.make_activation(
      hv::ExitReason::apic(hv::ApicInterrupt::timer), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.observe(m, act));
  }
}
BENCHMARK(BM_ActivationUnderXentry);

void BM_InjectionExperiment(benchmark::State& state) {
  hv::Machine golden, faulty;
  Xentry x;
  x.set_model(shared_model().rules);
  fault::InjectionExperiment exp(golden, faulty, x);
  const auto act = golden.make_activation(
      hv::ExitReason::hypercall(hv::Hypercall::grant_table_op), 3);
  std::mt19937_64 rng(5);
  fault::InjectionExperiment::GoldenProbe probe;
  for (auto _ : state) {
    exp.probe_golden_advance(act, probe);
    const hv::Injection inj = fault::InjectionExperiment::
        draw_activated_injection(rng, probe.trace,
                                 golden.microvisor().program);
    benchmark::DoNotOptimize(exp.run_one(act, inj, probe));
  }
}
BENCHMARK(BM_InjectionExperiment);

void BM_CampaignThroughput(benchmark::State& state) {
  for (auto _ : state) {
    fault::CampaignConfig cfg;
    cfg.injections = 500;
    cfg.seed = 7;
    benchmark::DoNotOptimize(fault::run_campaign(cfg));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_CampaignThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
