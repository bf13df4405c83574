#include "fault/sampler.hpp"

#include "fault/experiment.hpp"

namespace xentry::fault {

namespace {

/// Rejection-redraw attempts before giving up and going analytic.  With
/// the default floor of 1/64 the expected attempt count is at most 64;
/// 512 failures at that mass has probability under 1e-3, and the analytic
/// fallback is still conservative (bias bounded by the slot's live mass,
/// itself near the floor when rejection struggles).
constexpr int kMaxRedraws = 512;

}  // namespace

ImportanceSampler::ImportanceSampler(const analysis::VulnerabilityMap& map,
                                     const sim::Program& program,
                                     double weight_floor,
                                     std::uint64_t aux_seed)
    : map_(map), program_(program), weight_floor_(weight_floor),
      aux_(aux_seed) {}

bool ImportanceSampler::is_live(const std::vector<sim::Addr>& trace,
                                const hv::Injection& inj) const {
  // A step at or past the trace end has no slot for the map to price;
  // treat it as live (never skip what the map can't price).
  if (inj.at_step >= trace.size()) return true;
  return map_.is_live(trace[inj.at_step],
                      static_cast<std::uint8_t>(inj.reg),
                      static_cast<std::uint8_t>(inj.bit));
}

ImportanceSampler::Proposal ImportanceSampler::propose_uniform(
    std::mt19937_64& main_rng, std::uint64_t golden_steps,
    const std::vector<sim::Addr>& trace) {
  Proposal p;
  p.injection = InjectionExperiment::draw_injection(main_rng, golden_steps);
  if (trace.empty()) return p;  // nothing to price; execute as drawn

  // m = (1/T) * sum over the trace of the slot's live (reg, bit) count,
  // computed as an integer sum for exactness and determinism.
  constexpr std::uint64_t kPoints =
      static_cast<std::uint64_t>(sim::kNumArchRegs) * sim::kBitsPerReg;
  std::uint64_t live_sum = 0;
  for (const sim::Addr a : trace) {
    const sim::Addr off = a - map_.base;
    live_sum += off < map_.code_size ? map_.live_bits[off] : kPoints;
  }
  p.live_mass = static_cast<double>(live_sum) /
                (static_cast<double>(trace.size()) *
                 static_cast<double>(kPoints));

  if (p.live_mass < weight_floor_) {
    p.analytic = true;
    return p;
  }
  if (is_live(trace, p.injection)) return p;
  for (int i = 0; i < kMaxRedraws; ++i) {
    const hv::Injection cand =
        InjectionExperiment::draw_injection(aux_, golden_steps);
    if (is_live(trace, cand)) {
      p.injection = cand;
      return p;
    }
  }
  p.analytic = true;
  return p;
}

ImportanceSampler::Proposal ImportanceSampler::propose_activated(
    std::mt19937_64& main_rng, const std::vector<sim::Addr>& trace) {
  Proposal p;
  p.injection =
      InjectionExperiment::draw_activated_injection(main_rng, trace, program_);
  if (trace.empty()) return p;

  double frac_sum = 0.0;
  for (const sim::Addr a : trace) {
    const sim::Addr off = a - map_.base;
    frac_sum += off < map_.code_size ? map_.activated_live_frac[off] : 1.0;
  }
  p.live_mass = frac_sum / static_cast<double>(trace.size());

  if (p.live_mass < weight_floor_) {
    p.analytic = true;
    return p;
  }
  if (is_live(trace, p.injection)) return p;
  for (int i = 0; i < kMaxRedraws; ++i) {
    const hv::Injection cand =
        InjectionExperiment::draw_activated_injection(aux_, trace, program_);
    if (is_live(trace, cand)) {
      p.injection = cand;
      return p;
    }
  }
  p.analytic = true;
  return p;
}

}  // namespace xentry::fault
