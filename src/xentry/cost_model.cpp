#include "xentry/cost_model.hpp"

namespace xentry {

ActivationCost activation_cost(const CostParams& p, std::uint64_t assertions,
                               int rule_comparisons) {
  ActivationCost c;
  c.runtime_only_cycles =
      static_cast<double>(assertions) * p.cycles_per_assertion;
  c.with_transition_cycles =
      c.runtime_only_cycles + p.interception_cycles +
      p.counter_program_cycles + p.counter_read_cycles +
      static_cast<double>(rule_comparisons) * p.cycles_per_comparison;
  return c;
}

double overhead_fraction(const CostParams& p, double activations_per_sec,
                         double added_cycles_per_activation) {
  return activations_per_sec * added_cycles_per_activation /
         (p.cpu_ghz * 1e9);
}

}  // namespace xentry
