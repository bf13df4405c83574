// Microbenchmarks (google-benchmark): the detector hot paths whose cost
// the overhead model charges — rule evaluation at VM entry and counter
// arm/disarm.  Activation dispatch, injection and campaign throughput are
// measured end to end by perfbench/.
#include <benchmark/benchmark.h>

#include "fault/campaign.hpp"
#include "fault/training.hpp"
#include "sim/perf_counters.hpp"

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

}  // namespace

BENCHMARK_MAIN();
