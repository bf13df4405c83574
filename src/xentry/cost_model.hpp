// Per-activation cost model for Xentry's fault-free overhead (Fig. 7).
//
// Xentry adds three kinds of work to every hypervisor activation:
//   1. interception (the shim redirecting every entry point),
//   2. performance-counter programming at VM exit and readout at VM entry
//      (only when transition detection is enabled),
//   3. the rule evaluation at VM entry (a handful of integer compares),
// plus the software assertions executed inside the handler (runtime
// detection).  All constants are in CPU cycles on the paper's Xeon E5506
// (2.13 GHz); they are model parameters, not measurements of this host.
#pragma once

#include <cstdint>

namespace xentry {

struct CostParams {
  double cpu_ghz = 2.13;              ///< Xeon E5506
  double interception_cycles = 14;    ///< shim entry redirect
  double counter_program_cycles = 96; ///< 4x WRMSR-class ops at VM exit
  double counter_read_cycles = 72;    ///< 4x RDPMC + disable at VM entry
  double cycles_per_comparison = 2;   ///< one rule node: load+cmp+branch
  double cycles_per_assertion = 2;    ///< in-handler assertion: cmp+branch
};

struct ActivationCost {
  double runtime_only_cycles = 0;      ///< assertions only
  double with_transition_cycles = 0;   ///< + interception/counters/rules
};

/// Cycles added to one activation.  `assertions` is the number of
/// assertion instructions the run executed
/// (Machine::executed_assertions); `rule_comparisons` is the detector's
/// per-entry comparison count.
ActivationCost activation_cost(const CostParams& p, std::uint64_t assertions,
                               int rule_comparisons);

/// Fraction of application time lost to detection, given the workload's
/// activation rate: overhead = rate * added_cycles / (cpu_ghz * 1e9).
double overhead_fraction(const CostParams& p, double activations_per_sec,
                         double added_cycles_per_activation);

}  // namespace xentry
