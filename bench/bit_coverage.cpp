// Validation bench for the bit-liveness vulnerability map: every
// (step, reg, bit) point the analysis predicts benign must empirically
// mask when injected.
//
// The importance sampler (src/fault/sampler.hpp) skips predicted-masked
// draws and attributes their probability mass to Masked without running
// them — so a single unsound live mask silently biases every campaign
// statistic.  This bench is the empirical check: for every microvisor
// configuration in the analysis matrix it probes real activations,
// densely samples predicted-masked points along each golden trace with a
// deterministic SplitMix stream, injects each one for real, and asserts
// the run is indistinguishable from golden (consequence Masked, no
// detection, no trap, no control-flow divergence).
//
// run_one resolves provably unactivated flips from the golden trace
// without executing them, so the record alone would check the map
// against that scan.  Every tested flip therefore also executes on the
// faulty machine, and any disagreement between that run and the record
// (activation, trap, trace) counts as a violation.
//
// Output is one JSON object with a per-config breakdown; the process
// exits non-zero when any configuration's empirical masked fraction
// falls below 99.9% (the map is *proof*-based, so the expected violation
// count is exactly zero — the slack only absorbs a future soundness bug
// into a loud CI signal instead of a silent one).
// Usage: bit_coverage [samples_per_activation] [activations_per_config]
//                     [seed]
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analysis/artifacts.hpp"
#include "bench/bench_util.hpp"
#include "fault/campaign.hpp"
#include "fault/experiment.hpp"
#include "hv/machine.hpp"
#include "hv/microvisor.hpp"
#include "sim/splitmix.hpp"
#include "workloads/workload.hpp"
#include "xentry/framework.hpp"

namespace {

using namespace xentry;

constexpr const char* kUsage =
    "usage: bit_coverage [samples_per_activation] [activations_per_config] "
    "[seed]\n";

std::string config_name(const hv::MicrovisorOptions& o) {
  std::string s = "domains=" + std::to_string(o.num_domains) +
                  " vcpus=" + std::to_string(o.vcpus_per_domain);
  s += o.assertions ? " assertions" : " no-assertions";
  if (o.time_checks) s += " time-checks";
  if (o.shadow_stack) s += " shadow-stack";
  return s;
}

struct ConfigScore {
  std::string name;
  double masked_fraction = 0;  ///< static prediction from the map
  std::uint64_t tested = 0;
  std::uint64_t masked = 0;
  std::uint64_t violations = 0;
  std::uint64_t trace_resolved = 0;  ///< records built without a run
  std::uint64_t disagreements = 0;   ///< executed run vs record
};

ConfigScore run_config(const hv::MicrovisorOptions& opt, int samples,
                       int activations, std::uint64_t seed) {
  ConfigScore score;
  score.name = config_name(opt);

  const hv::Microvisor mv = hv::build_microvisor(opt);
  const analysis::AnalysisArtifacts art =
      analysis::analyze_program(mv.program, hv::analyze_options(mv));
  const analysis::VulnerabilityMap& map = art.vuln;
  score.masked_fraction = map.masked_fraction();

  hv::Machine golden(opt);
  hv::Machine faulty(opt);
  Xentry xentry(XentryConfig{});
  fault::InjectionExperiment experiment(golden, faulty, xentry,
                                        fault::OutcomeModel{});
  wl::WorkloadGenerator gen(golden, fault::uniform_sweep_profile(), seed);
  for (int i = 0; i < 8; ++i) experiment.advance(gen.next());

  sim::SplitMix64 sm(seed ^ 0xbf58476d1ce4e5b9ull);
  fault::InjectionExperiment::GoldenProbe probe;
  std::vector<sim::Addr> trace;
  for (int a = 0; a < activations; ++a) {
    const hv::Activation act = gen.next();
    experiment.probe_golden_advance(act, probe);
    if (probe.steps == 0) continue;  // golden already at pre == post state
    for (int n = 0; n < samples; ++n) {
      // Deterministic dense sampling of the predicted-masked set: draw
      // (step, reg, bit) until the map proves it benign (the masked set
      // covers ~half the space, so a few draws suffice).
      hv::Injection inj;
      bool found = false;
      for (int attempt = 0; attempt < 64; ++attempt) {
        inj.at_step = sm.below(probe.steps);
        inj.reg = static_cast<sim::Reg>(sm.below(sim::kNumArchRegs));
        inj.bit = static_cast<int>(sm.below(sim::kBitsPerReg));
        if (!map.is_live(probe.trace[inj.at_step],
                         static_cast<std::uint8_t>(inj.reg),
                         static_cast<std::uint8_t>(inj.bit))) {
          found = true;
          break;
        }
      }
      if (!found) continue;  // fully-live window (should not happen)

      const fault::InjectionExperiment::Result r =
          experiment.run_one(act, inj, probe);
      ++score.tested;
      score.trace_resolved += r.executed ? 0 : 1;
      const fault::InjectionRecord& rec = r.record;

      faulty.restore(probe.pre);
      trace.clear();
      hv::RunOptions opts;
      opts.injection = &inj;
      opts.trace = &trace;
      const hv::RunResult run = faulty.run(act, opts);
      const bool agrees = run.activated == rec.activated &&
                          run.trap.kind == rec.trap &&
                          (trace != probe.trace) == rec.trace_diverged;
      if (!agrees && ++score.disagreements <= 8) {
        std::fprintf(stderr,
                     "[bit_coverage] DISAGREEMENT %s: step=%llu reg=%d "
                     "bit=%d executed activated=%d trap=%d, record "
                     "activated=%d trap=%d\n",
                     score.name.c_str(),
                     static_cast<unsigned long long>(inj.at_step),
                     static_cast<int>(inj.reg), inj.bit,
                     run.activated ? 1 : 0, static_cast<int>(run.trap.kind),
                     rec.activated ? 1 : 0, static_cast<int>(rec.trap));
      }
      const bool benign = agrees &&
                          rec.consequence == fault::Consequence::Masked &&
                          !rec.detected && !rec.trace_diverged &&
                          rec.trap == sim::TrapKind::None;
      if (benign) {
        ++score.masked;
      } else {
        ++score.violations;
        if (score.violations <= 8) {
          std::fprintf(
              stderr,
              "[bit_coverage] VIOLATION %s: step=%llu reg=%d bit=%d -> "
              "consequence=%s detected=%d diverged=%d trap=%d\n",
              score.name.c_str(),
              static_cast<unsigned long long>(inj.at_step),
              static_cast<int>(inj.reg), inj.bit,
              std::string(fault::consequence_name(rec.consequence)).c_str(),
              rec.detected ? 1 : 0, rec.trace_diverged ? 1 : 0,
              static_cast<int>(rec.trap));
        }
      }
    }
  }
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  const char* const prog = "bit_coverage";
  constexpr int kIntMax = std::numeric_limits<int>::max();
  if (argc > 4) {
    std::fprintf(stderr, "bit_coverage: unexpected argument '%s'\n%s",
                 argv[4], kUsage);
    return 2;
  }
  const int samples =
      argc > 1 ? bench::parse_number_or_exit(prog, "samples_per_activation",
                                             argv[1], 0, kIntMax, kUsage)
               : 25;
  const int activations =
      argc > 2 ? bench::parse_number_or_exit(prog, "activations_per_config",
                                             argv[2], 0, kIntMax, kUsage)
               : 40;
  const std::uint64_t seed =
      argc > 3 ? bench::parse_number_or_exit(
                     prog, "seed", argv[3], std::uint64_t{0},
                     std::numeric_limits<std::uint64_t>::max(), kUsage)
               : 7;

  // The analyze_program --all-configs matrix.
  const std::vector<hv::MicrovisorOptions> configs = {
      {3, 1, true, false}, {3, 1, true, true},  {3, 1, false, false},
      {2, 1, true, false}, {4, 2, true, true},  {8, 1, true, false},
      {1, 1, true, false},
  };

  std::vector<ConfigScore> scores;
  std::uint64_t total_tested = 0, total_masked = 0, total_resolved = 0,
                total_disagreements = 0;
  bool pass = true;
  for (const hv::MicrovisorOptions& o : configs) {
    ConfigScore s = run_config(o, samples, activations, seed);
    total_tested += s.tested;
    total_masked += s.masked;
    total_resolved += s.trace_resolved;
    total_disagreements += s.disagreements;
    const double frac =
        s.tested > 0 ? static_cast<double>(s.masked) /
                           static_cast<double>(s.tested)
                     : 1.0;
    if (frac < 0.999 || s.tested == 0 || s.disagreements > 0) pass = false;
    scores.push_back(std::move(s));
  }

  std::printf("{\n  \"bench\": \"bit_coverage\",\n  \"configs\": [\n");
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const ConfigScore& s = scores[i];
    std::printf(
        "    {\"config\": \"%s\", \"predicted_masked_fraction\": %.4f, "
        "\"tested\": %llu, \"empirically_masked\": %llu, "
        "\"violations\": %llu, \"trace_resolved\": %llu, "
        "\"executed_disagreements\": %llu}%s\n",
        s.name.c_str(), s.masked_fraction,
        static_cast<unsigned long long>(s.tested),
        static_cast<unsigned long long>(s.masked),
        static_cast<unsigned long long>(s.violations),
        static_cast<unsigned long long>(s.trace_resolved),
        static_cast<unsigned long long>(s.disagreements),
        i + 1 < scores.size() ? "," : "");
  }
  std::printf(
      "  ],\n  \"total_tested\": %llu,\n  \"total_masked\": %llu,\n"
      "  \"total_trace_resolved\": %llu,\n"
      "  \"total_executed_disagreements\": %llu,\n  \"pass\": %s\n}\n",
      static_cast<unsigned long long>(total_tested),
      static_cast<unsigned long long>(total_masked),
      static_cast<unsigned long long>(total_resolved),
      static_cast<unsigned long long>(total_disagreements),
      pass ? "true" : "false");
  if (!pass) {
    std::fprintf(stderr,
                 "[bit_coverage] FAIL: empirical masked fraction below "
                 "99.9%% (or no samples, or an executed run disagreeing "
                 "with its record) in at least one config\n");
    return 1;
  }
  std::fprintf(stderr, "[bit_coverage] OK: %llu/%llu predicted-benign "
                       "injections masked across %zu configs\n",
               static_cast<unsigned long long>(total_masked),
               static_cast<unsigned long long>(total_tested), scores.size());
  return 0;
}
