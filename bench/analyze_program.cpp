// Static-analysis driver: build a microvisor, analyze it, report.
//
// Runs analyze_program over an assembled microvisor configuration (or,
// with --all-configs, every configuration the test matrix exercises),
// prints the artifact summary, and exits non-zero when the analyzer has
// findings (verifier issues or stack warnings) — so CI can gate merges
// on the shipped programs analyzing clean.
//
// Usage: analyze_program [options]
//   --domains N        num_domains, 1-8 (default 3)
//   --vcpus N          vcpus_per_domain, 1-15 (default 1)
//   --no-assertions    build without software assertions
//   --time-checks      enable the duplicated-time-read extension
//   --shadow-stack     enable the shadow-stack extension
//   --all-configs      analyze the full configuration matrix instead
//   --json FILE        write the artifact(s) as JSON (an array with
//                      --all-configs, a single object otherwise)
//   --quiet            suppress the per-config text summary
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/artifacts.hpp"
#include "bench/bench_util.hpp"
#include "hv/layout.hpp"
#include "hv/microvisor.hpp"

namespace {

using namespace xentry;

constexpr const char* kProg = "analyze_program";
constexpr const char* kUsage =
    "usage: analyze_program [--domains 1-8] [--vcpus 1-15] "
    "[--no-assertions]\n"
    "  [--time-checks] [--shadow-stack] [--all-configs] [--json FILE] "
    "[--quiet]\n";

struct Job {
  hv::MicrovisorOptions opt;
  analysis::AnalysisArtifacts art;
};

std::string config_name(const hv::MicrovisorOptions& o) {
  std::string s = "domains=" + std::to_string(o.num_domains) +
                  " vcpus=" + std::to_string(o.vcpus_per_domain);
  s += o.assertions ? " assertions" : " no-assertions";
  if (o.time_checks) s += " time-checks";
  if (o.shadow_stack) s += " shadow-stack";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  hv::MicrovisorOptions opt;
  bool all_configs = false, quiet = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--domains") == 0 && i + 1 < argc) {
      opt.num_domains = bench::parse_number_or_exit(
          kProg, "--domains", argv[++i], 1, hv::layout::kMaxDomains, kUsage);
    } else if (std::strcmp(a, "--vcpus") == 0 && i + 1 < argc) {
      // One vCPU slot stays reserved, as build_microvisor requires.
      opt.vcpus_per_domain = bench::parse_number_or_exit(
          kProg, "--vcpus", argv[++i], 1, hv::layout::kMaxVcpus - 1, kUsage);
    } else if (std::strcmp(a, "--no-assertions") == 0) {
      opt.assertions = false;
    } else if (std::strcmp(a, "--time-checks") == 0) {
      opt.time_checks = true;
    } else if (std::strcmp(a, "--shadow-stack") == 0) {
      opt.shadow_stack = true;
    } else if (std::strcmp(a, "--all-configs") == 0) {
      all_configs = true;
    } else if (std::strcmp(a, "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n%s", kProg, a, kUsage);
      return 2;
    }
  }

  std::vector<hv::MicrovisorOptions> configs;
  if (all_configs) {
    configs = {
        {3, 1, true, false}, {3, 1, true, true},  {3, 1, false, false},
        {2, 1, true, false}, {4, 2, true, true},  {8, 1, true, false},
        {1, 1, true, false},
    };
  } else {
    configs.push_back(opt);
  }

  std::vector<Job> jobs;
  std::size_t findings = 0;
  for (const hv::MicrovisorOptions& o : configs) {
    Job j;
    j.opt = o;
    const hv::Microvisor mv = hv::build_microvisor(o);
    j.art = analysis::analyze_program(mv.program, hv::analyze_options(mv));
    findings += j.art.finding_count();
    if (!quiet) {
      std::printf("== %s ==\n%s\n\n", config_name(o).c_str(),
                  j.art.to_string().c_str());
    }
    jobs.push_back(std::move(j));
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", json_out.c_str());
      return 2;
    }
    if (all_configs) os << "[\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (all_configs) {
        os << (i ? ",\n" : "") << "{\"config\": \""
           << config_name(jobs[i].opt) << "\", \"artifact\": ";
      }
      jobs[i].art.write_json(os);
      if (all_configs) os << "}";
    }
    if (all_configs) os << "\n]\n";
    std::fprintf(stderr, "[analyze_program] wrote %zu artifact%s to %s\n",
                 jobs.size(), jobs.size() == 1 ? "" : "s", json_out.c_str());
  }

  if (findings > 0) {
    std::fprintf(stderr, "[analyze_program] FAIL: %zu finding%s\n", findings,
                 findings == 1 ? "" : "s");
    return 1;
  }
  std::fprintf(stderr, "[analyze_program] OK: %zu config%s clean\n",
               jobs.size(), jobs.size() == 1 ? "" : "s");
  return 0;
}
