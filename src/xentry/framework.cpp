#include "xentry/framework.hpp"

#include "analysis/cfi.hpp"
#include "analysis/timing.hpp"

namespace xentry {

std::string_view technique_name(Technique t) {
  switch (t) {
    case Technique::None: return "undetected";
    case Technique::HardwareException: return "hw_exception";
    case Technique::SoftwareAssertion: return "sw_assertion";
    case Technique::VmTransition: return "vm_transition";
    case Technique::StackRedundancy: return "stack_redundancy";
    case Technique::ControlFlow: return "control_flow";
    case Technique::Timing: return "timing";
  }
  return "?";
}

void Xentry::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.observations = &registry->counter("xentry.observations");
  for (int t = 1; t < kNumTechniques; ++t) {
    std::string name = "xentry.detections.";
    name += technique_name(static_cast<Technique>(t));
    metrics_.detections[t] = &registry->counter(name);
  }
  metrics_.handler_length = &registry->histogram("xentry.handler_length");
  metrics_.detection_latency =
      &registry->histogram("xentry.detection_latency");
  metrics_.cfi_checks = &registry->counter("xentry.cfi.checks");
  metrics_.cfi_edge_misses = &registry->counter("xentry.cfi.edge_misses");
  metrics_.cfi_derived_fires = &registry->counter("xentry.cfi.derived_fires");
  metrics_.timing_checks = &registry->counter("xentry.timing.checks");
  metrics_.timing_cycle_misses =
      &registry->counter("xentry.timing.cycle_misses");
  metrics_.timing_counter_misses =
      &registry->counter("xentry.timing.counter_misses");
}

void Xentry::set_analysis(const analysis::AnalysisArtifacts* artifacts) {
  analysis_ = artifacts;
  if (artifacts == nullptr) return;
  for (const analysis::DerivedAssertion& d : artifacts->derived) {
    registry_.register_derived(d);
  }
}

Observation Xentry::observe(hv::Machine& machine,
                            const hv::Activation& activation,
                            hv::RunOptions opts) {
  const bool timing = timing_active();
  opts.arm_counters = arms_counters();
  const bool cfi = cfi_active();
  if (cfi && opts.trace == nullptr) {
    // CFI replays the retired-instruction trace; attach a sink when the
    // caller (unlike the campaign) did not request one.
    scratch_trace_.clear();
    opts.trace = &scratch_trace_;
  }
  Observation obs;
  obs.run = machine.run(activation, opts);
  obs.features = FeatureVector::from(activation.reason, obs.run.counters);

  if (metrics_.observations != nullptr) {
    metrics_.observations->inc();
    // A watchdog-ended injection run reports steps = 0; its length is
    // the step the trap fired at.
    metrics_.handler_length->observe(obs.run.reached_vm_entry
                                         ? obs.run.steps
                                         : obs.run.trap_step);
  }

  if (!obs.run.reached_vm_entry) {
    // Host-mode trap: runtime detection territory.
    const sim::Trap& trap = obs.run.trap;
    if (cfg_.runtime_detection) {
      if (trap.kind == sim::TrapKind::StackCheck) {
        obs.detected = true;
        obs.technique = Technique::StackRedundancy;
        obs.detection_step = obs.run.trap_step;
      } else if (trap.kind == sim::TrapKind::AssertFailed) {
        registry_.record_fire(trap.aux);
        obs.detected = true;
        obs.technique = Technique::SoftwareAssertion;
        obs.detection_step = obs.run.trap_step;
      } else if (parser_.parse(trap) == ExceptionVerdict::Fatal) {
        obs.detected = true;
        obs.technique = Technique::HardwareException;
        obs.detection_step = obs.run.trap_step;
      }
    }
    // A trap the parser let pass may still have taken a wild edge on the
    // way: replay the partial trace (no gate, so no range checks).
    if (!obs.detected && cfi) {
      check_control_flow(machine, activation, *opts.trace,
                         /*reached_vm_entry=*/false, obs);
    }
    record_detection_metrics(obs);
    return obs;
  }

  // VM entry: CFI first (deterministic evidence), then the timing
  // envelope (deterministic bounds on the retired counters), then the
  // learned transition detector on what neither can prove wrong.
  if (cfi) {
    check_control_flow(machine, activation, *opts.trace,
                       /*reached_vm_entry=*/true, obs);
  }
  if (timing) {
    check_timing_envelope(machine, activation, obs);
  }
  if (!obs.detected && cfg_.transition_detection && detector_.has_model() &&
      detector_.flag(obs.features)) {
    obs.detected = true;
    obs.technique = Technique::VmTransition;
    obs.detection_step = obs.run.steps;
  }
  record_detection_metrics(obs);
  return obs;
}

void Xentry::check_control_flow(hv::Machine& machine,
                                const hv::Activation& activation,
                                const std::vector<sim::Addr>& trace,
                                bool reached_vm_entry, Observation& obs) {
  const sim::Addr hlt_addr =
      reached_vm_entry ? machine.cpu().reg(sim::Reg::rip) : analysis::kNoAddr;
  const analysis::CfiResult r = analysis::check_trace(
      *analysis_, trace, machine.handler_entry(activation.reason), hlt_addr,
      reached_vm_entry ? &machine.cpu().regs() : nullptr);
  if (metrics_.cfi_checks != nullptr) {
    metrics_.cfi_checks->inc();
    if (r.kind == analysis::CfiResult::Kind::DerivedRange) {
      metrics_.cfi_derived_fires->inc();
    } else if (!r.ok()) {
      metrics_.cfi_edge_misses->inc();
    }
  }
  if (r.ok()) return;
  if (r.kind == analysis::CfiResult::Kind::DerivedRange) {
    registry_.record_fire(r.derived_id);
  }
  obs.detected = true;
  obs.technique = Technique::ControlFlow;
  obs.detection_step = r.kind == analysis::CfiResult::Kind::DerivedRange
                           ? obs.run.steps
                           : r.step;
}

void Xentry::check_timing_envelope(hv::Machine& machine,
                                   const hv::Activation& activation,
                                   Observation& obs) {
  // Only meaningful on runs that reached VM entry: the counters then
  // cover exactly one handler activation, the quantity the static
  // envelope bounds.  Entries without a finite envelope (statically
  // unbounded handlers) are skipped, never flagged.
  const analysis::TimingCheckResult r = analysis::check_timing(
      analysis_->timing, machine.handler_entry(activation.reason),
      obs.run.counters);
  if (!r.checked) return;
  if (metrics_.timing_checks != nullptr) {
    metrics_.timing_checks->inc();
    if (r.cycle_miss) metrics_.timing_cycle_misses->inc();
    if (r.counter_miss) metrics_.timing_counter_misses->inc();
  }
  if (r.ok() || obs.detected) return;
  obs.detected = true;
  obs.technique = Technique::Timing;
  obs.detection_step = obs.run.steps;
}

void Xentry::record_detection_metrics(const Observation& obs) {
  if (metrics_.observations == nullptr || !obs.detected) return;
  obs::Counter* c = metrics_.detections[static_cast<int>(obs.technique)];
  if (c != nullptr) c->inc();
  // Activation-to-detection latency, the paper's Fig. 9/10 quantity.
  // Only meaningful when the fault bookkeeping saw an activation.
  if (obs.run.activated && obs.detection_step >= obs.run.activation_step) {
    metrics_.detection_latency->observe(obs.detection_step -
                                        obs.run.activation_step);
  }
}

}  // namespace xentry
