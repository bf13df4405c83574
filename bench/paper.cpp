// The paper's evaluation in one binary: every table, figure and ablation
// is a section named after the binary that used to print it.
//
// Usage: paper [section ...]  (no section: all of them, in the order of
// kSections; honours XENTRY_BENCH_SCALE)
//
// Sections share what the paper shares: one trained model (§III-B's
// ~23,400-run training campaign), one 30,000-injection evaluation campaign
// (§V), and the uniform training and test campaigns of the classifier
// studies.  Each is computed at most once per process, the first time a
// section asks for it.  Exits 2 on an unknown section or a bad scale
// before running anything, and 1 after printing when a section's check
// fails.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "fault/experiment.hpp"
#include "hv/machine.hpp"
#include "hv/microvisor.hpp"
#include "ml/decision_tree.hpp"
#include "ml/forest.hpp"
#include "ml/metrics.hpp"
#include "workloads/workload.hpp"
#include "xentry/cost_model.hpp"
#include "xentry/features.hpp"
#include "xentry/framework.hpp"
#include "xentry/recovery.hpp"
#include "xentry/recovery_engine.hpp"

namespace {

using namespace xentry;

// -- inputs several sections share ----------------------------------------

/// The deployable transition-detection model, trained the way the paper
/// does: a dedicated injection campaign (~23,400 runs at full scale) over
/// the benchmark workloads, feeding a RandomTree.
const fault::TrainedDetector& paper_model() {
  static const fault::TrainedDetector det = [] {
    fault::CampaignConfig cfg;
    cfg.injections = bench::scaled(23400);
    cfg.seed = 101;
    cfg.collect_dataset = true;
    cfg.workload = bench::pooled_benchmark_profile();
    fault::TrainingOptions opt;
    opt.incorrect_target_fraction = 0.20;
    return fault::train_detector(fault::run_campaign(cfg).dataset, opt);
  }();
  return det;
}

/// The paper's 30,000-injection evaluation campaign with the deployed
/// model installed.
const fault::CampaignResult& eval_campaign() {
  static const fault::CampaignResult res = [] {
    fault::CampaignConfig cfg;
    cfg.injections = bench::scaled(30000);
    cfg.seed = 202;
    cfg.model = paper_model().rules;
    cfg.workload = bench::pooled_benchmark_profile();
    return fault::run_campaign(cfg);
  }();
  return res;
}

/// A dataset-collecting campaign over the uniform exit-reason sweep.
fault::CampaignResult uniform_campaign(int injections, std::uint64_t seed) {
  fault::CampaignConfig cfg;
  cfg.injections = bench::scaled(injections);
  cfg.seed = seed;
  cfg.collect_dataset = true;
  return fault::run_campaign(cfg);
}

/// The classifier studies' training campaign (paper: ~23,400 runs).
const fault::CampaignResult& uniform_training_campaign() {
  static const fault::CampaignResult res = uniform_campaign(23400, 101);
  return res;
}

/// The feature and training-set ablations' held-out test campaign.
const fault::CampaignResult& uniform_test_campaign() {
  static const fault::CampaignResult res = uniform_campaign(12000, 606);
  return res;
}

// -- sections ---------------------------------------------------------------

// Table I: selected features for VM transition detection — verified
// against the running system (each feature is demonstrably collectable
// from the substrate's counters / Xentry software).
int table1_features() {
  bench::print_header("Table I: selected features for VM transition detection");

  std::printf("%-28s %-28s %s\n", "Feature", "H/W & S/W support", "Synonym");
  std::printf("%-28s %-28s %s\n", "VM exit reason", "Xentry", "VMER");
  std::printf("%-28s %-28s %s\n", "# committed instructions",
              "INST_RETIRED", "RT");
  std::printf("%-28s %-28s %s\n", "# branch instructions",
              "BR_INST_RETIRED", "BR");
  std::printf("%-28s %-28s %s\n", "# read memory access",
              "MEM_INST_RETIRED.LOADS", "RM");
  std::printf("%-28s %-28s %s\n", "# write memory access",
              "MEM_INST_RETIRED.STORES", "WM");

  // Demonstrate collection on a live activation of each category.
  hv::Machine m;
  std::printf("\nLive feature vectors (one activation per category):\n");
  std::printf("%-34s %6s %6s %6s %6s %6s\n", "handler", "VMER", "RT", "BR",
              "RM", "WM");
  const hv::ExitReason samples[] = {
      hv::ExitReason::hypercall(hv::Hypercall::mmu_update),
      hv::ExitReason::exception(hv::GuestException::page_fault),
      hv::ExitReason::apic(hv::ApicInterrupt::timer),
      hv::ExitReason::irq(2),
      hv::ExitReason::softirq(),
      hv::ExitReason::tasklet(),
  };
  for (const hv::ExitReason& r : samples) {
    const hv::RunResult res = m.run(m.make_activation(r, 7));
    const FeatureVector f = FeatureVector::from(r, res.counters);
    std::printf("%-34s %6ld %6ld %6ld %6ld %6ld\n",
                std::string(hv::handler_symbol(r)).c_str(),
                static_cast<long>(f.vmer), static_cast<long>(f.rt),
                static_cast<long>(f.br), static_cast<long>(f.rm),
                static_cast<long>(f.wm));
  }
  return 0;
}

struct BoxStats {
  double min, q25, median, q75, max;
};

BoxStats box(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    return v[static_cast<std::size_t>(q * (v.size() - 1))];
  };
  return {v.front(), at(0.25), at(0.5), at(0.75), v.back()};
}

// Fig. 3: hypervisor activation frequency per benchmark, para-virtualized
// vs hardware-assisted, as box statistics (min / 25th / median / 75th /
// max) over per-second observation windows.
//
// Paper anchors: PV generally 5K-100K/s, freqmine peaking ~650K/s; HVM
// mostly 2K-10K/s.
int fig3_activation_frequency() {
  bench::print_header("Fig. 3: hypervisor activation frequency (/s)");

  hv::Machine machine;
  const int windows = bench::scaled(400);
  std::printf("%-10s %-5s %10s %10s %10s %10s %10s\n", "benchmark", "mode",
              "min", "p25", "median", "p75", "max");
  for (wl::Benchmark b : wl::all_benchmarks()) {
    for (wl::VirtMode mode : {wl::VirtMode::Para, wl::VirtMode::Hvm}) {
      wl::WorkloadGenerator gen(machine, wl::profile(b, mode),
                                1000 + static_cast<std::uint64_t>(b) * 2 +
                                    static_cast<std::uint64_t>(mode));
      std::vector<double> rates;
      rates.reserve(static_cast<std::size_t>(windows));
      for (int i = 0; i < windows; ++i) rates.push_back(gen.sample_rate());
      const BoxStats s = box(std::move(rates));
      std::printf("%-10s %-5s %10.0f %10.0f %10.0f %10.0f %10.0f\n",
                  std::string(wl::benchmark_name(b)).c_str(),
                  std::string(wl::virt_mode_name(mode)).c_str(), s.min,
                  s.q25, s.median, s.q75, s.max);
    }
  }
  std::printf(
      "\npaper anchors: PV bands 5K-100K/s; freqmine PV peak ~650K/s;\n"
      "HVM mostly 2K-10K/s; PV > HVM for every benchmark.\n");
  return 0;
}

// Section III-B's classifier evaluation (with a Fig. 6-style tree dump).
//
// Paper anchors: training set 12,024 samples (10,280 correct / 1,744
// incorrect) from ~23,400 injection+fault-free runs; testing set 6,596
// (5,295 / 1,301) from ~17,700 runs; RandomTree 98.6% vs DecisionTree
// 96.1% accuracy; 0.7% false-positive rate.
int ml_accuracy() {
  bench::print_header("Section III-B: classifier accuracy");

  // Training campaign (paper: ~23,400 runs).
  const fault::CampaignResult& train_res = uniform_training_campaign();
  // Testing campaign (paper: ~17,700 runs).
  const fault::CampaignResult test_res = uniform_campaign(17700, 909);

  std::printf("training samples: %zu (%zu correct / %zu incorrect)\n",
              train_res.dataset.size(),
              train_res.dataset.count(ml::Label::Correct),
              train_res.dataset.count(ml::Label::Incorrect));
  std::printf("testing samples:  %zu (%zu correct / %zu incorrect)\n",
              test_res.dataset.size(),
              test_res.dataset.count(ml::Label::Correct),
              test_res.dataset.count(ml::Label::Incorrect));
  std::printf("paper: train 12,024 (10,280/1,744); test 6,596 (5,295/1,301)\n\n");

  const ml::Dataset balanced =
      fault::oversample_incorrect(train_res.dataset, 0.20);

  auto report = [&](const char* name, auto& model) {
    auto m = ml::evaluate(test_res.dataset,
                          [&](auto row) { return model.predict(row); });
    std::printf("%-14s accuracy=%.1f%%  fp_rate=%.2f%%  fn_rate=%.1f%%\n",
                name, 100 * m.accuracy(), 100 * m.false_positive_rate(),
                100 * m.false_negative_rate());
    return m;
  };

  ml::DecisionTree random_tree;
  random_tree.train(balanced,
                    ml::random_tree_params(kNumFeatures, 17));
  report("RandomTree", random_tree);

  ml::DecisionTree decision_tree;
  ml::TreeParams dt;
  dt.seed = 17;
  decision_tree.train(balanced, dt);
  report("DecisionTree", decision_tree);

  // J48-style post-pruned decision tree (reduced-error pruning on a
  // held-out slice) -- the likely source of the paper's RandomTree >
  // DecisionTree gap.
  ml::DecisionTree pruned_tree;
  pruned_tree.train(balanced, dt);
  auto [keep, holdout] = train_res.dataset.split(0.8, 31);
  pruned_tree.prune_reduced_error(holdout);
  report("DT+pruning", pruned_tree);

  // Extension beyond the paper: a small bagged forest.
  ml::RandomForest forest;
  ml::RandomForest::Params fp;
  fp.num_trees = 15;
  fp.seed = 23;
  forest.train(balanced, fp);
  report("Forest(15)", forest);

  std::printf("paper: RandomTree 98.6%%, DecisionTree 96.1%%, fp 0.7%%\n");

  // Fig. 6 analogue: the first levels of the learned tree.
  std::printf("\nFig. 6 analogue — top of the learned RandomTree:\n");
  const std::string dump = random_tree.to_string(feature_names());
  int lines = 0;
  for (std::size_t i = 0; i < dump.size() && lines < 16; ++i) {
    std::putchar(dump[i]);
    if (dump[i] == '\n') ++lines;
  }
  std::printf("... (%d nodes, depth %d, %zu leaves)\n",
              static_cast<int>(random_tree.nodes().size()),
              random_tree.depth(), random_tree.leaf_count());
  return 0;
}

// Fig. 7: normalized fault-free performance overhead of Xentry per
// benchmark — runtime detection alone (software assertions) vs runtime +
// VM transition detection (interception, counter programming/readout,
// rule evaluation) — averaged over 10 runs with per-run activation rates,
// exactly like the paper's methodology (Section V-C).
//
// Paper anchors: mcf/bzip2/freqmine/canneal < 1% average; bzip2 as low as
// 0.19%; postmark the highest (11.7% maximum), average ~2.5%.
int fig7_perf_overhead() {
  bench::print_header("Fig. 7: normalized performance overhead");

  // Deployable model: its rule evaluation cost is part of the overhead.
  TransitionDetector detector(paper_model().rules);

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

// Fig. 8: overall detection coverage per benchmark — shares of manifested
// errors detected by hardware exceptions, software assertions, and VM
// transition detection, plus the undetected residue.
//
// Paper anchors (30,000 injections, ~17,700 manifested): coverage up to
// 99.4%, average 97.6%; H/W exceptions ~85.1%, S/W assertions ~5.2%,
// VM transition detection ~6.9%, undetected ~2.4%.
int fig8_detection_coverage() {
  bench::print_header("Fig. 8: overall detection coverage");

  std::printf("%-10s %10s %8s %8s %8s %8s %9s\n", "benchmark", "manifested",
              "hw_exc", "sw_asrt", "vm_tran", "undet", "coverage");

  fault::CoverageBreakdown total;
  const int per_benchmark = bench::scaled(30000) / 6;
  for (wl::Benchmark b : wl::all_benchmarks()) {
    fault::CampaignConfig cfg;
    cfg.injections = per_benchmark;
    cfg.seed = 202 + static_cast<std::uint64_t>(b);
    cfg.model = paper_model().rules;
    cfg.workload = wl::profile(b, wl::VirtMode::Para);
    const auto res = fault::run_campaign(cfg);
    const auto cov = fault::coverage_breakdown(res.records);
    std::printf("%-10s %10zu %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.1f%%\n",
                std::string(wl::benchmark_name(b)).c_str(), cov.manifested,
                100 * cov.share(cov.hw_exception),
                100 * cov.share(cov.sw_assertion),
                100 * cov.share(cov.vm_transition),
                100 * cov.share(cov.undetected), 100 * cov.coverage());
    total.manifested += cov.manifested;
    total.hw_exception += cov.hw_exception;
    total.sw_assertion += cov.sw_assertion;
    total.vm_transition += cov.vm_transition;
    total.undetected += cov.undetected;
  }
  std::printf("%-10s %10zu %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.1f%%\n", "AVG",
              total.manifested, 100 * total.share(total.hw_exception),
              100 * total.share(total.sw_assertion),
              100 * total.share(total.vm_transition),
              100 * total.share(total.undetected), 100 * total.coverage());
  std::printf(
      "\npaper anchors: coverage up to 99.4%%, avg 97.6%%; hw 85.1%%, "
      "sw 5.2%%, vmt 6.9%%, undetected 2.4%%.\n");
  return 0;
}

// Fig. 9: detection coverage of long-latency errors, grouped by the
// consequence they would have caused if undetected: APP SDC, APP crash,
// all-VM failure, one-VM failure.
//
// Paper anchors: 92.6% of APP SDC and 96.8% of APP crash cases detected;
// these cases propagate across VM entry and are invisible to runtime
// detection — only VM transition detection catches them.
int fig9_long_latency() {
  bench::print_header("Fig. 9: detection of long-latency errors");

  const fault::CampaignResult& res = eval_campaign();

  std::printf("%-16s %8s %10s %12s\n", "consequence", "total", "detected",
              "detected %");
  for (const fault::LongLatencyRow& row :
       fault::long_latency_breakdown(res.records)) {
    std::printf("%-16s %8zu %10zu %11.1f%%\n",
                std::string(fault::consequence_name(row.consequence)).c_str(),
                row.total, row.detected, 100 * row.rate());
  }

  // Control-flow-visible subset: the population the paper's technique is
  // designed for (errors that altered the dynamic execution signature).
  std::size_t cf_total = 0, cf_detected = 0;
  for (const auto& r : res.records) {
    if (!fault::is_long_latency(r.consequence) || !r.trace_diverged) continue;
    ++cf_total;
    cf_detected += r.detected ? 1 : 0;
  }
  std::printf("\ncontrol-flow-visible long-latency errors: %zu, detected "
              "%.1f%%\n",
              cf_total,
              cf_total ? 100.0 * static_cast<double>(cf_detected) /
                             static_cast<double>(cf_total)
                       : 0.0);
  std::printf(
      "paper anchors: APP SDC 92.6%%, APP crash 96.8%% detected; all four\n"
      "classes are only reachable by VM transition detection.\n");
  return 0;
}

// Fig. 10: cumulative distribution of detection latency (instructions
// between error activation and detection), per technique.
//
// Paper anchors: ~95% of VM-transition detections within 700 instructions;
// hardware exceptions and software assertions generally shorter; every
// detection lands before the VM execution resumes.
int fig10_latency_cdf() {
  bench::print_header("Fig. 10: CDF of detection latency (instructions)");

  auto by_tech = fault::latency_by_technique(eval_campaign().records);

  const std::vector<std::uint64_t> points = {100, 200, 300, 400, 500,
                                             600, 700, 800, 900, 1000};
  std::printf("%-14s", "technique");
  for (std::uint64_t p : points) std::printf(" %6lu", (unsigned long)p);
  std::printf("   n      p95\n");

  for (Technique t : {Technique::HardwareException,
                      Technique::SoftwareAssertion,
                      Technique::VmTransition}) {
    const auto& lats = by_tech[t];
    const auto cdf = fault::latency_cdf(lats, points);
    std::printf("%-14s", std::string(technique_name(t)).c_str());
    for (double c : cdf) std::printf(" %5.1f%%", 100 * c);
    std::printf(" %5zu %7lu\n", lats.size(),
                (unsigned long)fault::latency_percentile(lats, 95));
  }
  std::printf(
      "\npaper anchors: vm_transition p95 < 700 instructions; runtime\n"
      "techniques shorter; all detections occur before VM entry resumes.\n");
  return 0;
}

// Table II: distribution of undetected faults by escape class.
//
// Paper anchors: mis-classify 10%, stack values 20%, time values 53%,
// other values 17%.
int table2_undetected() {
  bench::print_header("Table II: undetected faults");

  const fault::CampaignResult& res = eval_campaign();
  const auto cov = fault::coverage_breakdown(res.records);
  const auto und = fault::undetected_breakdown(res.records);

  std::printf("undetected: %zu of %zu manifested (%.1f%%)\n\n", und.total,
              cov.manifested,
              cov.manifested ? 100.0 * static_cast<double>(und.total) /
                                   static_cast<double>(cov.manifested)
                             : 0.0);
  std::printf("%-14s %-13s %-12s %-13s\n", "Mis-Classify", "Stack Values",
              "Time Values", "Other Values");
  std::printf("%-14.0f%% %-13.0f%% %-12.0f%% %-13.0f%%\n",
              100 * und.share(und.mis_classified),
              100 * und.share(und.stack_values),
              100 * und.share(und.time_values),
              100 * und.share(und.other_values));
  std::printf("\npaper: 10%% / 20%% / 53%% / 17%% "
              "(undetected = 2.4%% of manifested)\n");
  return 0;
}

// Fig. 11: fault-free overhead of the assumed light-weight recovery with
// false-positive cases (Section VI).
//
// Methodology mirrors the paper: collect a trace of hypervisor execution
// durations per application, copy critical data at every VM exit
// (~1,900 ns measured on the Xeon E5506), draw false positives at the
// classifier's measured rate (0.7%) which restore + re-execute the
// activation, repeat the draw 100 times per application.
//
// Paper anchors: avg 2.7%; mcf and bzip2 ~1.6%; postmark highest at 6.3%;
// max-min spread per application below 0.03%.
int fig11_recovery_overhead() {
  bench::print_header("Fig. 11: recovery overhead with false positives");

  hv::Machine machine;
  RecoveryParams params;  // 1,900 ns copy, 0.7% FP, 2.13 GHz
  const int trials = 100;
  const double window_s = 1.0;
  const double ns_per_cycle = 1e9 / (params.cpu_ghz * 1e9) * 1.0;

  std::printf("%-10s %10s %12s %9s %9s %9s\n", "benchmark", "rate(/s)",
              "mean_ns/act", "mean %", "min %", "max %");
  double sum = 0;
  for (wl::Benchmark b : wl::all_benchmarks()) {
    const wl::WorkloadProfile prof = wl::profile(b, wl::VirtMode::Para);
    wl::WorkloadGenerator gen(machine, prof,
                              55 + static_cast<std::uint64_t>(b));
    // Mean activation duration (cycles == instructions) over the mix.
    const int probes = bench::scaled(1500);
    double cycles = 0;
    for (int i = 0; i < probes; ++i) {
      cycles += static_cast<double>(machine.run(gen.next()).steps);
    }
    const double mean_ns =
        cycles / probes * ns_per_cycle * prof.disturbance;
    // Fig. 3's activation rates are machine-wide across the four guest
    // VMs; recovery overhead is experienced per VM, so each VM sees a
    // quarter of the stream.
    const double rate = prof.rate_median / 4.0;
    // One second of hypervisor executions at the benchmark's median rate.
    const auto n = static_cast<std::size_t>(rate * window_s);
    std::vector<double> activations(n, mean_ns);
    const RecoveryOverhead o = estimate_recovery_overhead(
        params, activations, window_s * 1e9, trials,
        911 + static_cast<std::uint64_t>(b));
    std::printf("%-10s %10.0f %12.0f %8.2f%% %8.2f%% %8.2f%%\n",
                std::string(wl::benchmark_name(b)).c_str(), rate, mean_ns,
                100 * o.mean, 100 * o.min, 100 * o.max);
    sum += o.mean;
  }
  std::printf("%-10s %41.2f%%\n", "AVG", 100 * sum / 6);
  std::printf(
      "\npaper anchors: avg 2.7%%; mcf/bzip2 ~1.6%%; postmark 6.3%%;\n"
      "per-app max-min spread < 0.03%%.\n");
  return 0;
}

/// Projects a dataset onto a subset of feature columns.
ml::Dataset project(const ml::Dataset& src, const std::vector<int>& cols) {
  std::vector<std::string> names;
  for (int c : cols) {
    names.push_back(src.feature_names()[static_cast<std::size_t>(c)]);
  }
  ml::Dataset out(names);
  std::vector<std::int64_t> row(cols.size());
  for (std::size_t r = 0; r < src.size(); ++r) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      row[i] = src.value(r, static_cast<std::size_t>(cols[i]));
    }
    out.add(row, src.label(r));
  }
  return out;
}

// Ablation: which of Table I's five features carry the detection signal?
//
// The paper omits its feature ablation for space ("we omit the evaluation
// results and discussions on various features, tree depth, and training
// set size"); this bench fills that gap.  Each row trains the RandomTree
// on a feature subset and evaluates on a held-out campaign.
int ablation_features() {
  bench::print_header("Ablation: feature subsets (VMER, RT, BR, RM, WM)");

  const ml::Dataset balanced =
      fault::oversample_incorrect(uniform_training_campaign().dataset, 0.20);

  struct Row {
    const char* name;
    std::vector<int> cols;
  };
  const Row rows[] = {
      {"all five", {0, 1, 2, 3, 4}},
      {"no VMER", {1, 2, 3, 4}},
      {"VMER+RT", {0, 1}},
      {"VMER only", {0}},
      {"RT only", {1}},
      {"BR only", {2}},
      {"RM+WM", {3, 4}},
      {"counters only (RT,BR,RM,WM)", {1, 2, 3, 4}},
  };
  std::printf("%-30s %9s %9s %9s\n", "features", "accuracy", "fp_rate",
              "fn_rate");
  for (const Row& r : rows) {
    const ml::Dataset tr = project(balanced, r.cols);
    const ml::Dataset te = project(uniform_test_campaign().dataset, r.cols);
    ml::DecisionTree tree;
    tree.train(tr, ml::random_tree_params(r.cols.size(), 17));
    auto m =
        ml::evaluate(te, [&](auto row) { return tree.predict(row); });
    std::printf("%-30s %8.2f%% %8.2f%% %8.1f%%\n", r.name,
                100 * m.accuracy(), 100 * m.false_positive_rate(),
                100 * m.false_negative_rate());
  }
  std::printf(
      "\nobserved shape: no single feature suffices -- VMER alone cannot\n"
      "separate anything (it is pure context), and each counter alone\n"
      "misses most errors; accuracy needs the counters interpreted\n"
      "together (and VMER mostly conditions them, Section III-B).\n");
  return 0;
}

// Ablation: training-set size and tree depth (the study the paper omits
// for space in Section III-B).
int ablation_training() {
  bench::print_header("Ablation: training-set size and tree depth");

  // 2x the paper's training runs.
  const fault::CampaignResult full = uniform_campaign(46800, 101);
  const ml::Dataset& test = uniform_test_campaign().dataset;

  std::printf("-- training-set size sweep (RandomTree, depth 24) --\n");
  std::printf("%10s %10s %9s %9s %9s\n", "samples", "incorrect", "accuracy",
              "fp_rate", "fn_rate");
  for (double frac : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    auto [sub, rest] = full.dataset.split(frac, 31);
    if (sub.count(ml::Label::Incorrect) == 0 ||
        sub.count(ml::Label::Correct) == 0) {
      continue;
    }
    const ml::Dataset bal = fault::oversample_incorrect(sub, 0.20);
    ml::DecisionTree tree;
    tree.train(bal, ml::random_tree_params(5, 17));
    auto m = ml::evaluate(test, [&](auto row) { return tree.predict(row); });
    std::printf("%10zu %10zu %8.2f%% %8.2f%% %8.1f%%\n", sub.size(),
                sub.count(ml::Label::Incorrect), 100 * m.accuracy(),
                100 * m.false_positive_rate(),
                100 * m.false_negative_rate());
  }

  std::printf("\n-- tree-depth sweep (full training set) --\n");
  std::printf("%6s %9s %9s %9s %8s %8s\n", "depth", "accuracy", "fp_rate",
              "fn_rate", "leaves", "worstcmp");
  const ml::Dataset bal = fault::oversample_incorrect(full.dataset, 0.20);
  for (int depth : {2, 4, 8, 16, 24, 32}) {
    ml::TreeParams p = ml::random_tree_params(5, 17);
    p.max_depth = depth;
    ml::DecisionTree tree;
    tree.train(bal, p);
    auto m = ml::evaluate(test, [&](auto row) { return tree.predict(row); });
    const ml::RuleSet rules = ml::RuleSet::compile(tree);
    std::printf("%6d %8.2f%% %8.2f%% %8.1f%% %8zu %8d\n", depth,
                100 * m.accuracy(), 100 * m.false_positive_rate(),
                100 * m.false_negative_rate(), tree.leaf_count(),
                rules.max_comparisons());
  }
  std::printf("\nexpected shape: accuracy saturates with data and depth;\n"
              "deeper trees trade hot-path comparisons for recall.\n");
  return 0;
}

// Ablation: the Section VI countermeasures the paper proposes for its
// undetected residue, implemented and measured.
//
//   baseline        — the paper's Xentry configuration
//   +time checks    — duplicated time reads in update_time
//   +shadow stack   — selective redundancy for pushed values
//   +both           — the hardened configuration
//
// Reported: Table II's escape classes and the coverage delta per
// configuration, plus the extra per-activation cost.
int ablation_countermeasures() {
  bench::print_header("Ablation: Section VI countermeasures");

  struct Config {
    const char* name;
    bool time_checks;
    bool shadow_stack;
  };
  const Config configs[] = {
      {"baseline", false, false},
      {"+time checks", true, false},
      {"+shadow stack", false, true},
      {"+both", true, true},
  };

  std::printf("%-15s %9s %7s | %6s %6s %6s %6s | %8s\n", "config",
              "coverage", "undet", "mis", "stack", "time", "other",
              "stk_red");
  for (const Config& c : configs) {
    fault::CampaignConfig cfg;
    cfg.injections = bench::scaled(30000);
    cfg.seed = 202;
    cfg.model = paper_model().rules;
    cfg.workload = bench::pooled_benchmark_profile();
    cfg.machine.time_checks = c.time_checks;
    cfg.machine.shadow_stack = c.shadow_stack;
    const auto res = fault::run_campaign(cfg);
    const auto cov = fault::coverage_breakdown(res.records);
    const auto und = fault::undetected_breakdown(res.records);
    std::printf("%-15s %8.1f%% %6.1f%% | %5.0f%% %5.0f%% %5.0f%% %5.0f%% | %8zu\n",
                c.name, 100 * cov.coverage(),
                100 * cov.share(cov.undetected),
                100 * und.share(und.mis_classified),
                100 * und.share(und.stack_values),
                100 * und.share(und.time_values),
                100 * und.share(und.other_values), cov.stack_redundancy);
  }
  std::printf(
      "\nexpected shape: time checks shrink the time-value escapes, shadow\n"
      "stack shrinks the stack-value escapes (paper Section VI's proposed\n"
      "but unimplemented countermeasures), at a small per-push/pop cost.\n");
  return 0;
}

double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct EnsembleConfig {
  const char* name;
  bool tree;
  bool cfi;
  bool timing;
};

struct EnsembleResult {
  fault::CoverageBreakdown cov;
  std::size_t fp_masked = 0;
  double rate = 0;
  std::vector<fault::InjectionRecord> records;
};

// Ablation: the detection ensemble — VM transition tree, control-flow
// integrity, and timing envelopes — alone and in every combination.
//
// Eight configurations toggle the three techniques on top of the always-on
// runtime baseline (hardware exceptions + software assertions).  Every
// configuration runs the SAME injection plan (same injections/shards/seed/
// workload), so records align index-by-index across configurations and the
// unique contribution of each technique can be counted exactly, not
// estimated.  Reported per configuration:
//
//   coverage      — share of manifested errors detected (Fig. 8 quantity)
//   per-technique — how the detections split across the ensemble
//   fp_masked     — detections on records whose consequence is Masked
//                   (the learned tree may flag benign runs; CFI and the
//                   timing envelope only fire on real evidence)
//
// The overhead vs `none` goes to stderr: its rate is injections per
// process CPU-second, which moves from run to run, and stdout stays
// reproducible.
//
// Two unique-contribution measurements close the bench:
//
//   timing_unique — records the tree+cfi configuration left undetected
//     but the all-three configuration caught via the timing envelope,
//     counted index-by-index over the aligned campaign streams.  Scale-
//     dependent: the responsible fault class is rare under uniform
//     random injection, so small-scale runs may legitimately report 0.
//
//   probe_unique  — a deterministic targeted probe of that fault class:
//     mid-range single-bit flips in loop-carried registers swept across
//     every handler's dynamic steps, several activation seeds and seven
//     candidate registers.  A +2^5..2^7 flip in a counted loop adds that
//     many iterations over perfectly legal back edges: CFI replays
//     nothing illegal, the gate registers end in range, and the run
//     still reaches VM entry.  The learned tree catches the gross
//     overshoots, but batch-style handlers (mmuext_op and friends)
//     legally run long, so the tree's outer feature regions are labeled
//     correct there — and a faulted run just past the static WCET lands
//     inside them.  Only the counter envelope, whose bound is exact
//     rather than learned, flags those.  Machines are reset before every
//     probe so each injection is a controlled A/B from boot state.
//     The section fails when the probe finds no fault that tree+cfi miss
//     and the envelope catches.
int ablation_ensemble() {
  bench::print_header("Ablation: detection ensemble (tree / CFI / timing)");

  const fault::TrainedDetector& det = paper_model();
  const int injections = bench::scaled(30000);
  const std::uint64_t seed = 202;

  fault::CampaignConfig base;
  base.injections = injections;
  base.seed = seed;
  base.workload = bench::pooled_benchmark_profile();
  const hv::Microvisor probe = hv::build_microvisor(base.machine);
  const auto artifacts = std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(probe.program, hv::analyze_options(probe)));

  const EnsembleConfig configs[] = {
      {"none", false, false, false},
      {"tree", true, false, false},
      {"cfi", false, true, false},
      {"timing", false, false, true},
      {"tree+cfi", true, true, false},
      {"tree+timing", true, false, true},
      {"cfi+timing", false, true, true},
      {"all", true, true, true},
  };
  constexpr int kNumConfigs = 8;

  EnsembleResult results[kNumConfigs];
  for (int ci = 0; ci < kNumConfigs; ++ci) {
    const EnsembleConfig& c = configs[ci];
    fault::CampaignConfig cfg = base;
    cfg.xentry.transition_detection = c.tree;
    cfg.xentry.control_flow_detection = c.cfi;
    cfg.xentry.timing_detection = c.timing;
    if (c.tree) cfg.model = det.rules;
    if (c.cfi || c.timing) cfg.analysis = artifacts;
    const double t0 = cpu_seconds();
    fault::CampaignResult res = fault::run_campaign(cfg);
    const double elapsed = cpu_seconds() - t0;
    EnsembleResult& out = results[ci];
    out.cov = fault::coverage_breakdown(res.records);
    for (const fault::InjectionRecord& r : res.records) {
      if (r.detected && r.consequence == fault::Consequence::Masked) {
        ++out.fp_masked;
      }
    }
    out.rate = static_cast<double>(res.records.size()) / elapsed;
    out.records = std::move(res.records);
  }

  std::printf("%-12s %9s | %6s %6s %6s %6s %6s | %9s\n", "config",
              "coverage", "hw+sw", "tree", "cfi", "timing", "undet",
              "fp_masked");
  std::fprintf(stderr, "ablation_ensemble overhead (injections per "
                       "CPU-second vs none):\n");
  for (int ci = 0; ci < kNumConfigs; ++ci) {
    const EnsembleResult& r = results[ci];
    std::printf(
        "%-12s %8.1f%% | %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% | %9zu\n",
        configs[ci].name, 100 * r.cov.coverage(),
        100 * r.cov.share(r.cov.hw_exception + r.cov.sw_assertion),
        100 * r.cov.share(r.cov.vm_transition),
        100 * r.cov.share(r.cov.control_flow), 100 * r.cov.share(r.cov.timing),
        100 * r.cov.share(r.cov.undetected), r.fp_masked);
    std::fprintf(stderr, "  %-12s %8.1f%%\n", configs[ci].name,
                 100 * (1.0 - r.rate / results[0].rate));
  }

  // Unique contribution: faults the tree+cfi pair missed that the timing
  // envelope catches.  Records align by index (identical injection plan),
  // so this is an exact per-fault comparison, not a rate difference.
  const std::vector<fault::InjectionRecord>& pair = results[4].records;
  const std::vector<fault::InjectionRecord>& all = results[7].records;
  std::size_t timing_unique = 0;
  std::map<fault::Consequence, std::size_t> unique_by_consequence;
  if (pair.size() == all.size()) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].technique != Technique::Timing) continue;
      if (pair[i].detected || !fault::is_manifested(pair[i].consequence)) {
        continue;
      }
      ++timing_unique;
      ++unique_by_consequence[all[i].consequence];
    }
  } else {
    std::fprintf(stderr,
                 "FAIL: record streams diverged in length (%zu vs %zu) — "
                 "configs no longer share one injection plan\n",
                 pair.size(), all.size());
    return 1;
  }

  std::printf("\ntiming_unique: %zu manifested campaign faults undetected "
              "by tree+cfi, caught by the timing envelope\n",
              timing_unique);
  for (const auto& [c, n] : unique_by_consequence) {
    std::printf("  %-18s %zu\n",
                std::string(fault::consequence_name(c)).c_str(), n);
  }

  // Targeted probe: the iteration-shape class, deterministically.  Two
  // Xentry stacks (tree+cfi vs all three) observe the SAME injection on
  // machines that evolve in lockstep, so every probe is a controlled
  // A/B on one fault.
  XentryConfig pair_cfg;
  pair_cfg.control_flow_detection = true;
  XentryConfig all_cfg = pair_cfg;
  all_cfg.timing_detection = true;
  Xentry pair_x(pair_cfg), all_x(all_cfg);
  pair_x.set_model(det.rules);
  all_x.set_model(det.rules);
  pair_x.set_analysis(artifacts.get());
  all_x.set_analysis(artifacts.get());
  hv::Machine pair_m(base.machine), all_m(base.machine);

  hv::Machine dry_m(base.machine);
  const sim::Reg probe_regs[] = {sim::Reg::rcx, sim::Reg::rsi, sim::Reg::rdx,
                                 sim::Reg::r10, sim::Reg::r11, sim::Reg::r12,
                                 sim::Reg::r14};
  std::size_t probes = 0, probe_unique = 0, probe_pair_hits = 0,
              probe_timing_hits = 0;
  for (const std::uint64_t pseed : {0x5eedULL, 0xbeefULL, 0x1234ULL}) {
    for (const hv::ExitReason& r : hv::all_exit_reasons()) {
      dry_m.reset();
      const hv::Activation dry_act = dry_m.make_activation(r, pseed);
      const hv::RunResult dry = dry_m.run(dry_act);
      if (!dry.reached_vm_entry) continue;
      for (const sim::Reg reg : probe_regs) {
        for (std::uint64_t step = 0; step < dry.steps; step += 5) {
          // Mid-range bits: +32..+128 loop trips — enough extra work to
          // exit the static envelope, small enough to stay inside the
          // learned tree's plausible feature range (higher bits hand the
          // fault to the tree or the watchdog, lower bits stay inside
          // the envelope).
          for (const int bit : {5, 6, 7}) {
            const hv::Injection inj{step, reg, bit};
            hv::RunOptions ro;
            ro.injection = &inj;
            pair_m.reset();
            all_m.reset();
            const hv::Activation pa_act = pair_m.make_activation(r, pseed);
            const hv::Activation aa_act = all_m.make_activation(r, pseed);
            const Observation pa = pair_x.observe(pair_m, pa_act, ro);
            const Observation aa = all_x.observe(all_m, aa_act, ro);
            ++probes;
            if (pa.detected) ++probe_pair_hits;
            if (aa.detected && aa.technique == Technique::Timing) {
              ++probe_timing_hits;
            }
            if (!pa.detected && aa.detected &&
                aa.technique == Technique::Timing) {
              ++probe_unique;
            }
          }
        }
      }
    }
  }
  std::printf("\nprobe: %zu loop-register flips; tree+cfi caught %zu, "
              "timing envelope caught %zu, uniquely %zu\n",
              probes, probe_pair_hits, probe_timing_hits, probe_unique);
  std::printf(
      "\nexpected shape: CFI owns wild-edge faults, the tree owns feature\n"
      "anomalies, and the timing envelope owns iteration-shape corruption\n"
      "that rides legal edges — the class the other two structurally miss.\n");

  if (probe_unique == 0) {
    std::fprintf(stderr,
                 "FAIL: timing envelope contributed no unique detections "
                 "over tree+cfi on the loop-counter probe\n");
    return 1;
  }
  return 0;
}

// Ablation: checkpoint + re-execution recovery (Section VI's sketch,
// implemented).  For every detected fault in a campaign-style stream,
// restore the critical-data checkpoint and re-execute; report how often
// the re-run lands exactly in the golden post-state, broken down by the
// detecting technique.
int ablation_recovery() {
  bench::print_header("Ablation: checkpoint + re-execution recovery");

  hv::Machine golden, faulty;
  Xentry xentry;
  xentry.set_model(paper_model().rules);
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

struct Section {
  const char* name;
  int (*run)();
};

const Section kSections[] = {
    {"table1_features", table1_features},
    {"fig3_activation_frequency", fig3_activation_frequency},
    {"ml_accuracy", ml_accuracy},
    {"fig7_perf_overhead", fig7_perf_overhead},
    {"fig8_detection_coverage", fig8_detection_coverage},
    {"fig9_long_latency", fig9_long_latency},
    {"fig10_latency_cdf", fig10_latency_cdf},
    {"table2_undetected", table2_undetected},
    {"fig11_recovery_overhead", fig11_recovery_overhead},
    {"ablation_features", ablation_features},
    {"ablation_training", ablation_training},
    {"ablation_countermeasures", ablation_countermeasures},
    {"ablation_ensemble", ablation_ensemble},
    {"ablation_recovery", ablation_recovery},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Section*> chosen;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        std::begin(kSections), std::end(kSections),
        [&](const Section& s) { return std::strcmp(s.name, argv[i]) == 0; });
    if (it == std::end(kSections)) {
      std::fprintf(stderr, "paper: unknown section '%s'\n"
                           "usage: paper [section ...]\nsections:", argv[i]);
      for (const Section& s : kSections) std::fprintf(stderr, " %s", s.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen.push_back(&*it);
  }
  if (chosen.empty()) {
    for (const Section& s : kSections) chosen.push_back(&s);
  }
  bench::scale();  // a bad XENTRY_BENCH_SCALE exits 2 here

  int status = 0;
  for (const Section* s : chosen) {
    if (s->run() != 0) status = 1;
  }
  return status;
}
