#include "fault/experiment.hpp"

#include <array>
#include <stdexcept>

#include "sim/splitmix.hpp"

namespace xentry::fault {

namespace L = hv::layout;

InjectionExperiment::InjectionExperiment(hv::Machine& golden,
                                         hv::Machine& faulty, Xentry& xentry,
                                         const OutcomeModel& model)
    : golden_(golden), faulty_(faulty), xentry_(xentry), model_(model) {
  if (golden.num_domains() != faulty.num_domains() ||
      golden.num_vcpus() != faulty.num_vcpus()) {
    throw std::invalid_argument(
        "InjectionExperiment: machines differ in configuration");
  }
}

hv::Injection InjectionExperiment::draw_injection(
    std::mt19937_64& rng, std::uint64_t golden_steps) {
  hv::Injection inj;
  std::uniform_int_distribution<std::uint64_t> step(
      0, golden_steps > 0 ? golden_steps - 1 : 0);
  std::uniform_int_distribution<int> reg(0, sim::kNumArchRegs - 1);
  std::uniform_int_distribution<int> bit(0, sim::kBitsPerReg - 1);
  inj.at_step = step(rng);
  inj.reg = static_cast<sim::Reg>(reg(rng));
  inj.bit = bit(rng);
  return inj;
}

void InjectionExperiment::advance(const hv::Activation& activation) {
  golden_.run(activation);
}

void InjectionExperiment::probe_golden_advance(
    const hv::Activation& activation, GoldenProbe& probe) {
  golden_.snapshot_into(probe.pre);
  probe.trace.clear();
  hv::RunOptions opts;
  opts.trace = &probe.trace;
  const hv::RunResult res = golden_.run(activation, opts);
  probe.steps = res.steps;
  probe.counters = res.counters;
  probe.reached_vm_entry = res.reached_vm_entry;
}

hv::Injection InjectionExperiment::draw_activated_injection(
    std::mt19937_64& rng, const std::vector<sim::Addr>& golden_trace,
    const sim::Program& program) {
  hv::Injection inj;
  std::uniform_int_distribution<int> bit(0, sim::kBitsPerReg - 1);
  inj.bit = bit(rng);
  if (golden_trace.empty()) {
    // No trace to bias towards: fall back to a uniform register draw so
    // the injection is still well-formed (not default-initialized).
    std::uniform_int_distribution<int> reg(0, sim::kNumArchRegs - 1);
    inj.reg = static_cast<sim::Reg>(reg(rng));
    return inj;
  }
  std::uniform_int_distribution<std::uint64_t> step(
      0, golden_trace.size() - 1);
  inj.at_step = step(rng);
  const sim::Instruction& insn = program.at(golden_trace[inj.at_step]);
  // Candidate registers: whatever the instruction reads, plus rip (whose
  // flip the next fetch consumes unconditionally).
  std::uint32_t mask = sim::regs_read(insn) | sim::reg_bit(sim::Reg::rip);
  std::array<sim::Reg, sim::kNumArchRegs> candidates{};
  std::size_t count = 0;
  for (int r = 0; r < sim::kNumArchRegs; ++r) {
    if (mask & (1u << r)) candidates[count++] = static_cast<sim::Reg>(r);
  }
  std::uniform_int_distribution<std::size_t> pick(0, count - 1);
  inj.reg = candidates[pick(rng)];
  return inj;
}

bool InjectionExperiment::unread_on_golden_path(
    const sim::Program& program, const GoldenProbe& probe,
    const hv::Injection& injection) {
  if (injection.reg == sim::Reg::rip || !probe.reached_vm_entry ||
      injection.at_step >= probe.trace.size()) {
    return false;
  }
  return sim::first_touch(
             program, std::span(probe.trace).subspan(injection.at_step),
             injection.reg)
             .kind != sim::Touch::Kind::Read;
}

InjectionExperiment::Result InjectionExperiment::run_one(
    const hv::Activation& activation, const hv::Injection& injection,
    const GoldenProbe& probe) {
  Result out;
  InjectionRecord& rec = out.record;
  rec.reason = activation.reason;
  rec.activation_seed = activation.seed;
  rec.vcpu = activation.vcpu;
  rec.injection = injection;
  out.golden_ok = probe.reached_vm_entry;
  out.golden_features =
      FeatureVector::from(activation.reason, probe.counters);

  if (unread_on_golden_path(golden_.microvisor().program, probe,
                            injection)) {
    // Non-activated faults never affect correctness (Section V-B), and
    // the faulted run would retire exactly the golden instructions: take
    // its observables from the probe instead of executing it.
    hv::RunResult run;
    run.reached_vm_entry = true;
    run.steps = probe.steps;
    run.injected = true;
    if (xentry_.arms_counters()) run.counters = probe.counters;
    faulty_.record_flight_frame(activation, run);
    rec.injected = true;
    rec.features = FeatureVector::from(activation.reason, run.counters);
    rec.consequence = Consequence::Masked;
    return out;
  }

  // The golden run already happened (probe); the golden machine sits at
  // its post-run state.  Align the faulted machine with the pre-run state.
  faulty_.restore(probe.pre);
  out.executed = true;

  // Faulted run under Xentry interception.
  fault_trace_.clear();
  hv::RunOptions fopts;
  fopts.trace = &fault_trace_;
  fopts.injection = &injection;
  const Observation obs = xentry_.observe(faulty_, activation, fopts);

  rec.injected = obs.run.injected;
  rec.activated = obs.run.activated;
  rec.features = obs.features;
  rec.trap = obs.run.trap.kind;
  rec.assert_id = obs.run.trap.aux;
  out.hang_proven = obs.run.hang_proven;
  // A proven hang's trace stops at its proof point, but the run retired
  // the whole budget: more steps than a golden run that reached VM entry.
  rec.trace_diverged = (obs.run.hang_proven && probe.reached_vm_entry) ||
                       fault_trace_ != probe.trace;

  if (!rec.activated) {
    // Non-activated faults never affect correctness (Section V-B).
    rec.consequence = Consequence::Masked;
    return out;
  }

  if (!obs.run.reached_vm_entry) {
    rec.consequence = obs.run.trap.kind == sim::TrapKind::Watchdog
                          ? Consequence::HypervisorHang
                          : Consequence::HypervisorCrash;
  } else {
    const auto diffs = consumed_diffs(
        hv::Machine::diff_persistent_state(golden_, faulty_), activation,
        injection);
    rec.consequence = classify_consequence(diffs);
    rec.undetected = UndetectedClass::NotApplicable;
    if (rec.consequence != Consequence::Masked) {
      // Fill in the would-be escape class now; cleared below if detected.
      rec.undetected = classify_undetected(rec, diffs, fault_trace_);
    }
  }

  rec.detected = obs.detected;
  rec.technique = obs.technique;
  if (rec.detected) {
    rec.undetected = UndetectedClass::NotApplicable;
    rec.latency = obs.detection_step >= obs.run.activation_step
                      ? obs.detection_step - obs.run.activation_step
                      : 0;
  }

  // SDC / crash postmortem: ship the recent VM-exit anatomy with the
  // record so Table 2-style analysis needs no re-run.  The faulted run
  // that produced this outcome is the ring's newest frame.
  if (flight_ != nullptr && is_blackbox_worthy(rec.consequence)) {
    flight_->dump_into(rec.postmortem.fill().blackbox);
  }

  if (forensics_.enabled && needs_forensics(rec.consequence, rec.detected)) {
    // SDC / app-crash outcomes always replay; the (cheaper to explain)
    // undetected-escape residue can be thinned with sample_every.
    const bool always = rec.consequence == Consequence::AppSdc ||
                        rec.consequence == Consequence::AppCrash;
    const bool sampled =
        always || forensics_.sample_every <= 1 ||
        (forensics_counter_++ % static_cast<std::uint64_t>(
                                    forensics_.sample_every)) == 0;
    if (sampled) run_forensics(rec, activation, injection, probe);
  }
  return out;
}

void InjectionExperiment::run_forensics(InjectionRecord& rec,
                                        const hv::Activation& activation,
                                        const hv::Injection& injection,
                                        const GoldenProbe& probe) {
  // The replay dirties both machines.  The faulty machine is re-synced
  // before every campaign use, but the golden machine's post-run state is
  // load-bearing (the stream advances from it) — save and re-instate it.
  golden_.snapshot_into(forensics_post_);
  obs::ForensicsRecord fx = run_lockstep_forensics(
      golden_, faulty_, activation, injection, probe.pre);
  golden_.restore(forensics_post_);

  fx.heuristic = static_cast<std::uint8_t>(rec.undetected);
  const UndetectedClass attributed =
      rec.detected ? UndetectedClass::NotApplicable
                   : attribute_from_evidence(fx, rec);
  fx.attributed = static_cast<std::uint8_t>(attributed);
  fx.heuristic_agrees = attributed == rec.undetected;
  rec.postmortem.fill().forensics = std::move(fx);
}

UndetectedClass InjectionExperiment::attribute_from_evidence(
    const obs::ForensicsRecord& fx, const InjectionRecord& rec) const {
  // No replay evidence (window exhausted before propagation, or the clean
  // replay disagreed with the faulted run): fall back to the heuristic
  // rather than invent a class.
  if (!fx.diverged || fx.taint.empty()) return rec.undetected;

  // Mirrors the heuristic's precedence (time > stack > classifier-miss >
  // other) so disagreements mean contradicting *evidence*, not ordering.
  const obs::TaintSample& last = fx.taint.back();
  if (last.persistent_words > 0 && last.time_words == last.persistent_words) {
    return UndetectedClass::TimeValues;
  }

  bool stack_evidence =
      rec.injection.reg == sim::Reg::rsp ||
      (fx.divergence.in_register &&
       fx.divergence.location ==
           static_cast<std::uint64_t>(sim::Reg::rsp));
  if (!fx.divergence.in_register) {
    const sim::Addr a = static_cast<sim::Addr>(fx.divergence.location);
    stack_evidence |=
        (a >= L::kStackBase && a < L::kStackTop) ||
        (a >= L::kStackBase + static_cast<sim::Addr>(L::kShadowStackOffset) &&
         a < L::kStackTop + static_cast<sim::Addr>(L::kShadowStackOffset));
  }
  for (const obs::TaintSample& s : fx.taint) {
    stack_evidence |= s.stack_words > 0;
  }
  if (stack_evidence) return UndetectedClass::StackValues;

  if (rec.trace_diverged && xentry_.config().transition_detection) {
    return UndetectedClass::MisClassified;
  }
  return UndetectedClass::OtherValues;
}

std::vector<hv::StateDiff> InjectionExperiment::consumed_diffs(
    const std::vector<hv::StateDiff>& diffs, const hv::Activation& act,
    const hv::Injection& inj) const {
  sim::SplitMix64 sm(act.seed ^ (inj.at_step << 24) ^
                     (static_cast<std::uint64_t>(inj.reg) << 16) ^
                     static_cast<std::uint64_t>(inj.bit));
  auto keep = [&](double p) {
    return static_cast<double>(sm.next()) <
           p * 18446744073709551616.0;  // p * 2^64
  };
  std::vector<hv::StateDiff> out;
  out.reserve(diffs.size());
  for (hv::StateDiff d : diffs) {
    double p = 1.0;
    switch (d.cls) {
      case L::OutputClass::AppData:
        p = model_.app_consume_probability;
        break;
      case L::OutputClass::AppPointer:
        p = model_.app_consume_probability;
        // Wrong translations only sometimes fault; the rest silently read
        // or write the wrong frame (data corruption).
        if (!keep(model_.pointer_crash_fraction)) {
          d.cls = L::OutputClass::AppData;
        }
        break;
      case L::OutputClass::TimeValue:
        p = model_.time_consume_probability;
        break;
      case L::OutputClass::GuestKernelData:
        p = model_.kernel_consume_probability;
        break;
      case L::OutputClass::HvGlobal:
        p = model_.hv_consume_probability;
        break;
      case L::OutputClass::GuestControl:
        break;  // always consumed: the VM resumes into this state
    }
    if (keep(p)) out.push_back(d);
  }
  return out;
}

Consequence InjectionExperiment::classify_consequence(
    const std::vector<hv::StateDiff>& diffs) const {
  if (diffs.empty()) return Consequence::Masked;
  // Corruption confined to time values is transient clock skew for the
  // affected domain: a VM-level disturbance (timeouts, scheduling drift),
  // not an application output corruption.
  bool only_time = true;
  for (const hv::StateDiff& d : diffs) {
    if (d.cls != L::OutputClass::TimeValue) {
      only_time = false;
      break;
    }
  }
  if (only_time) return Consequence::OneVmFailure;

  // Corrupted guest control state (rip/rsp/rflags) crashes the VM the
  // moment it resumes — it dominates everything else.  Otherwise classify
  // by where the bulk of the consumed corruption sits: kernel-level
  // corruption fails the VM (the control VM takes the whole system down,
  // Section II), application-level corruption crashes or silently
  // corrupts the app.
  bool control = false, control_dom0 = false;
  std::size_t kernel = 0, kernel_dom0 = 0, app = 0, app_crash = 0;
  for (const hv::StateDiff& d : diffs) {
    switch (d.cls) {
      case L::OutputClass::GuestControl:
        control = true;
        control_dom0 |= d.domain == 0;
        break;
      case L::OutputClass::HvGlobal:
        ++kernel;
        ++kernel_dom0;
        break;
      case L::OutputClass::GuestKernelData:
        ++kernel;
        kernel_dom0 += d.domain == 0 ? 1 : 0;
        break;
      case L::OutputClass::AppPointer:
        ++app;
        ++app_crash;
        break;
      case L::OutputClass::AppData:
      case L::OutputClass::TimeValue:
        ++app;
        break;
    }
  }
  if (control) {
    return control_dom0 ? Consequence::AllVmFailure
                        : Consequence::OneVmFailure;
  }
  if (kernel >= app) {
    if (kernel == 0) return Consequence::Masked;  // unreachable guard
    return kernel_dom0 > 0 ? Consequence::AllVmFailure
                           : Consequence::OneVmFailure;
  }
  return app_crash > 0 ? Consequence::AppCrash : Consequence::AppSdc;
}

UndetectedClass InjectionExperiment::classify_undetected(
    const InjectionRecord& rec, const std::vector<hv::StateDiff>& diffs,
    const std::vector<sim::Addr>& fault_trace) const {
  // All corruption confined to time-related values?
  bool all_time = !diffs.empty();
  for (const hv::StateDiff& d : diffs) {
    if (d.cls != L::OutputClass::TimeValue) {
      all_time = false;
      break;
    }
  }
  if (all_time) return UndetectedClass::TimeValues;

  // Corruption that travelled through the stack: the flipped register was
  // the stack pointer, or the fault activated at a stack operation.
  if (rec.injection.reg == sim::Reg::rsp) return UndetectedClass::StackValues;
  const std::uint64_t astep = rec.injection.at_step <= fault_trace.size()
                                  ? rec.injection.at_step
                                  : 0;
  for (std::uint64_t i = astep;
       i < fault_trace.size() && i < astep + 4; ++i) {
    const sim::Opcode op =
        golden_.microvisor().program.contains(fault_trace[i])
            ? golden_.microvisor().program.at(fault_trace[i]).op
            : sim::Opcode::Nop;
    if (op == sim::Opcode::Push || op == sim::Opcode::Pop ||
        op == sim::Opcode::Call || op == sim::Opcode::Ret) {
      return UndetectedClass::StackValues;
    }
  }

  // A diverged control flow the transition detector judged correct is a
  // classifier miss; pure data corruption gives it nothing to see.
  return rec.trace_diverged ? UndetectedClass::MisClassified
                            : UndetectedClass::OtherValues;
}

}  // namespace xentry::fault
