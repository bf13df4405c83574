// Consolidated-server scenario from the paper's introduction: a physical
// host running guest VMs whose workloads hammer the hypervisor hundreds of
// thousands of times per second, with occasional soft errors striking
// during hypervisor execution.
//
//   $ ./datacenter_sim [benchmark] [seconds] [faults_per_million]
//
// Streams workload activations through a Xentry-protected machine,
// injecting faults at the requested rate, and prints a per-second ops log
// plus a final incident report.
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "bench/bench_util.hpp"
#include "fault/campaign.hpp"
#include "fault/training.hpp"
#include "workloads/workload.hpp"

using namespace xentry;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: datacenter_sim [benchmark] [seconds >= 0] "
      "[faults_per_million 0-1000000]\n";
  const char* bench_name = argc > 1 ? argv[1] : "postmark";
  const int seconds =
      argc > 2 ? bench::parse_number_or_exit(
                     "datacenter_sim", "seconds", argv[2], 0,
                     std::numeric_limits<int>::max(), kUsage)
               : 5;
  const int faults_per_million =
      argc > 3 ? bench::parse_number_or_exit("datacenter_sim",
                                             "faults_per_million", argv[3], 0,
                                             1000000, kUsage)
               : 3000;

  wl::Benchmark bench = wl::Benchmark::postmark;
  for (wl::Benchmark b : wl::all_benchmarks()) {
    if (wl::benchmark_name(b) == bench_name) bench = b;
  }

  // Train a detector on a quick campaign before "deploying" the host.
  std::printf("training transition detector...\n");
  fault::CampaignConfig tc;
  tc.injections = 12000;
  tc.seed = 77;
  tc.collect_dataset = true;
  fault::TrainedDetector det =
      fault::train_detector(fault::run_campaign(tc).dataset);

  hv::Machine golden, host;
  Xentry xentry;
  xentry.set_model(det.rules);
  fault::InjectionExperiment experiment(golden, host, xentry);
  wl::WorkloadGenerator gen(golden, wl::profile(bench, wl::VirtMode::Para),
                            1234);
  std::mt19937_64 rng(99);
  std::bernoulli_distribution strikes(faults_per_million / 1e6);

  std::printf("host up: 4 VMs running %s (PV), fault rate %d/M "
              "activations\n\n",
              std::string(wl::benchmark_name(bench)).c_str(),
              faults_per_million);

  std::size_t total = 0, faults = 0, detected = 0, escaped = 0, benign = 0;
  fault::InjectionExperiment::GoldenProbe probe;
  for (int s = 0; s < seconds; ++s) {
    // Scale the second down so the demo stays interactive: simulate
    // rate/100 activations per wall second.
    const auto per_second =
        static_cast<std::size_t>(gen.sample_rate() / 100.0);
    std::size_t sec_detected = 0;
    for (std::size_t i = 0; i < per_second; ++i) {
      const hv::Activation act = gen.next();
      ++total;
      if (!strikes(rng)) {
        experiment.advance(act);
        continue;
      }
      ++faults;
      experiment.probe_golden_advance(act, probe);
      if (probe.steps == 0) {
        golden.restore(probe.pre);
        continue;
      }
      const hv::Injection inj =
          fault::InjectionExperiment::draw_activated_injection(
              rng, probe.trace, golden.microvisor().program);
      const auto result = experiment.run_one(act, inj, probe);
      if (result.record.detected) {
        ++detected;
        ++sec_detected;
      } else if (fault::is_manifested(result.record.consequence)) {
        ++escaped;
      } else {
        ++benign;
      }
    }
    std::printf("t=%ds  %8zu activations  %2zu faults detected\n", s + 1,
                per_second, sec_detected);
  }

  std::printf("\nincident report\n");
  std::printf("  activations served:   %zu (scaled 1:100)\n", total);
  std::printf("  soft errors struck:   %zu\n", faults);
  std::printf("  detected & recovered: %zu\n", detected);
  std::printf("  benign (masked):      %zu\n", benign);
  std::printf("  escaped detection:    %zu\n", escaped);
  if (faults > benign) {
    std::printf("  detection coverage:   %.1f%%\n",
                100.0 * static_cast<double>(detected) /
                    static_cast<double>(faults - benign));
  }
  return 0;
}
