// Anatomy of a soft error: reproduces the paper's Fig. 5 scenarios on the
// live system and shows exactly what each detection technique sees.
//
//   $ ./fault_anatomy
//
// (a) a fault in a loop counter adds extra dynamic instructions;
// (b) a fault in a compared register takes a valid-but-wrong branch;
// (c) a fault in a pointer register raises a fatal hardware exception.
// For each: the golden vs faulted control-flow traces, the perf-counter
// signatures, and the persistent-state diff with semantic classes.
#include <cstdio>

#include "fault/campaign.hpp"
#include "fault/training.hpp"
#include "hv/machine.hpp"
#include "xentry/framework.hpp"

using namespace xentry;

namespace {

void show_case(const char* title, hv::Machine& golden, hv::Machine& faulty,
               Xentry& xentry, const hv::Activation& act,
               const hv::Injection& inj) {
  std::printf("--- %s ---\n", title);
  std::printf("handler: %s, flip %s bit %d at dynamic instruction %lu\n",
              std::string(hv::handler_symbol(act.reason)).c_str(),
              std::string(sim::reg_name(inj.reg)).c_str(), inj.bit,
              (unsigned long)inj.at_step);

  fault::InjectionExperiment exp(golden, faulty, xentry);
  fault::InjectionExperiment::GoldenProbe probe;
  exp.probe_golden_advance(act, probe);
  const auto result = exp.run_one(act, inj, probe);
  const auto& rec = result.record;

  std::printf("golden:  %lu instructions\n", (unsigned long)probe.steps);
  if (rec.trap != sim::TrapKind::None) {
    std::printf("faulted: trapped with %s\n",
                std::string(sim::trap_name(rec.trap)).c_str());
  } else {
    std::printf("faulted: %s, trace %s\n",
                rec.activated ? "reached VM entry" : "fault never activated",
                rec.trace_diverged ? "DIVERGED" : "identical");
  }
  std::printf("features (golden):  VMER=%ld RT=%ld BR=%ld RM=%ld WM=%ld\n",
              (long)result.golden_features.vmer,
              (long)result.golden_features.rt,
              (long)result.golden_features.br,
              (long)result.golden_features.rm,
              (long)result.golden_features.wm);
  std::printf("features (faulted): VMER=%ld RT=%ld BR=%ld RM=%ld WM=%ld\n",
              (long)rec.features.vmer, (long)rec.features.rt,
              (long)rec.features.br, (long)rec.features.rm,
              (long)rec.features.wm);
  std::printf("consequence: %s; %s",
              std::string(fault::consequence_name(rec.consequence)).c_str(),
              rec.detected ? "DETECTED by " : "undetected");
  if (rec.detected) {
    std::printf("%s after %lu instructions",
                std::string(technique_name(rec.technique)).c_str(),
                (unsigned long)rec.latency);
  }
  std::printf("\n\n");
  // Re-align for the next case.
  faulty.restore(golden.snapshot());
}

}  // namespace

int main() {
  hv::Machine golden, faulty;
  Xentry xentry;
  {
    // A quick training campaign so VM transition detection is live.
    std::printf("training a transition model (quick campaign)...\n\n");
    fault::CampaignConfig cfg;
    cfg.injections = 12000;
    cfg.seed = 77;
    cfg.collect_dataset = true;
    xentry.set_model(
        fault::train_detector(fault::run_campaign(cfg).dataset).rules);
  }

  // (a) Fig. 5a — corrupt the batch count consumed by mmu_update's copy
  // loop: extra iterations, more retired instructions and stores.
  {
    hv::Activation act = golden.make_activation(
        hv::ExitReason::hypercall(hv::Hypercall::mmu_update), 21, 1);
    act.arg1 = 4;  // four-entry batch
    // rdi (the count) is read by the loop-bound compare each iteration.
    show_case("(a) extra code: corrupted loop counter", golden, faulty,
              xentry, act, hv::Injection{6, sim::Reg::rdi, 5});
  }

  // (b) Fig. 5b — corrupt the register a dispatch compare tests: the
  // branch goes to a valid but incorrect target (yield instead of poll).
  {
    hv::Activation act;
    act.reason = hv::ExitReason::hypercall(hv::Hypercall::sched_op);
    act.arg1 = 0;  // yield
    act.arg2 = 2;  // port
    act.vcpu = 1;
    act.seed = 5;
    // rdi selects the sub-operation; a single-bit flip turns a yield
    // into a block: a perfectly valid path the guest never asked for.
    show_case("(b) incorrect branch target: corrupted compare operand",
              golden, faulty, xentry, act, hv::Injection{1, sim::Reg::rdi, 0});
  }

  // (c) a pointer flip: the classic fatal page fault.
  {
    hv::Activation act = golden.make_activation(
        hv::ExitReason::hypercall(hv::Hypercall::console_io), 8, 2);
    // rbp is the hypervisor-data base pointer, dereferenced constantly;
    // a high-bit flip sends the next load into unmapped space.
    show_case("(c) fatal corruption: flipped pointer register", golden,
              faulty, xentry, act, hv::Injection{5, sim::Reg::rbp, 44});
  }
  return 0;
}
