// Fig. 7: normalized fault-free performance overhead of Xentry per
// benchmark — runtime detection alone (software assertions) vs runtime +
// VM transition detection (interception, counter programming/readout,
// rule evaluation) — averaged over 10 runs with per-run activation rates,
// exactly like the paper's methodology (Section V-C).
//
// Paper anchors: mcf/bzip2/freqmine/canneal < 1% average; bzip2 as low as
// 0.19%; postmark the highest (11.7% maximum), average ~2.5%.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "workloads/workload.hpp"
#include "xentry/cost_model.hpp"
#include "xentry/framework.hpp"

int main() {
  using namespace xentry;
  bench::print_header("Fig. 7: normalized performance overhead");

  // Deployable model: its rule evaluation cost is part of the overhead.
  fault::TrainedDetector det = bench::train_paper_model();
  TransitionDetector detector(det.rules);

  hv::Machine machine;
  const CostParams params;
  const int probe_activations = bench::scaled(2000);
  const int runs = 10;

  std::printf("%-10s | %-21s | %-21s\n", "", "runtime only",
              "runtime + transition");
  std::printf("%-10s | %9s %11s | %9s %11s\n", "benchmark", "avg %", "max %",
              "avg %", "max %");

  double sum_avg = 0;
  for (wl::Benchmark b : wl::all_benchmarks()) {
    const wl::WorkloadProfile prof = wl::profile(b, wl::VirtMode::Para);
    wl::WorkloadGenerator gen(machine, prof,
                              77 + static_cast<std::uint64_t>(b));

    // Measure Xentry's per-activation work over this workload's mix.
    double asserts_sum = 0, cmps_sum = 0;
    std::vector<sim::Addr> trace;
    for (int i = 0; i < probe_activations; ++i) {
      trace.clear();
      hv::RunOptions opts;
      opts.trace = &trace;
      const hv::RunResult res = machine.run(gen.next(), opts);
      asserts_sum +=
          static_cast<double>(machine.executed_assertions(trace, res));
      int cmps = 0;
      const auto arr =
          FeatureVector::from(hv::ExitReason::softirq(), res.counters)
              .as_array();
      detector.rules().evaluate(arr, &cmps);
      cmps_sum += cmps;
    }
    const ActivationCost cost = activation_cost(
        params, static_cast<std::uint64_t>(asserts_sum / probe_activations),
        static_cast<int>(cmps_sum / probe_activations));

    // Ten runs, each with its own sampled activation rate (the paper runs
    // each benchmark 10 times and reports average and maximum).
    std::vector<double> rt_only, rt_vmt;
    for (int r = 0; r < runs; ++r) {
      const double rate = gen.sample_rate();
      rt_only.push_back(overhead_fraction(
          params, rate, cost.runtime_only_cycles * prof.disturbance));
      rt_vmt.push_back(overhead_fraction(
          params, rate, cost.with_transition_cycles * prof.disturbance));
    }
    auto avg = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return s / static_cast<double>(v.size());
    };
    auto mx = [](const std::vector<double>& v) {
      return *std::max_element(v.begin(), v.end());
    };
    std::printf("%-10s | %8.3f%% %10.3f%% | %8.3f%% %10.3f%%\n",
                std::string(wl::benchmark_name(b)).c_str(),
                100 * avg(rt_only), 100 * mx(rt_only), 100 * avg(rt_vmt),
                100 * mx(rt_vmt));
    sum_avg += avg(rt_vmt);
  }
  std::printf("%-10s | %32s %8.3f%%\n", "AVG", "", 100 * sum_avg / 6);
  std::printf(
      "\npaper anchors: mcf/bzip2/freqmine/canneal < 1%% avg; bzip2 0.19%%;\n"
      "postmark highest (avg ~2.5%%, max 11.7%%); runtime-only is tiny.\n");
  return 0;
}
