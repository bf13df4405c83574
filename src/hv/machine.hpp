// The virtual platform: one simulated core + memory + the microvisor.
//
// Machine is the substrate equivalent of the paper's Simics setup (Section
// V-A): it boots the microvisor structures, dispatches VM exits to handler
// entry points, and exposes everything the fault-injection framework and
// Xentry need — performance counters armed per activation, single-bit
// register fault injection at a chosen dynamic instruction, control-flow
// traces, and semantic diffs of persistent state for consequence analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hv/exit_reason.hpp"
#include "hv/layout.hpp"
#include "hv/microvisor.hpp"
#include "obs/telemetry.hpp"
#include "sim/cpu.hpp"
#include "sim/memory.hpp"
#include "sim/perf_counters.hpp"

namespace xentry::hv {

/// One hypervisor activation: a VM exit with its reason and arguments.
/// `seed` deterministically synthesizes everything else the handler reads
/// (request-buffer contents, stale register values, device state).
struct Activation {
  ExitReason reason;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
  std::uint64_t arg3 = 0;
  int vcpu = 0;
  std::uint64_t seed = 0;
};

/// The paper's fault model: one single-bit flip in one architectural
/// register, applied immediately before the dynamic instruction `at_step`.
struct Injection {
  std::uint64_t at_step = 0;
  sim::Reg reg = sim::Reg::rax;
  int bit = 0;
};

struct RunOptions {
  std::uint64_t max_steps = 100000;   ///< watchdog budget
  const Injection* injection = nullptr;
  /// Control-flow trace sink: one rip per retired instruction, except
  /// after a proven hang (RunResult::hang_proven), where it stops at the
  /// proof point.  It then already holds two whole laps of the loop, so
  /// every edge the rest of the run would add is in it.
  std::vector<sim::Addr>* trace = nullptr;
  bool arm_counters = true;
};

/// How one activation ended.  Every field, and so the flight frame, is
/// exact also for a proven hang: a faulted run whose remainder the Fast
/// engine proved to loop until the watchdog (sim::Cpu::prove_hang) and
/// retired in closed form.  The machine's TSC is exact too; the trace
/// (see RunOptions::trace), memory and the registers other than rip stop
/// at the proof point.  Nothing reads them
/// after a watchdog: campaigns restore the faulty machine before its next
/// use and diff persistent state only after VM entry.
struct RunResult {
  /// True when the handler reached the VM-entry gate (hlt); false when a
  /// trap ended the execution in host mode.
  bool reached_vm_entry = false;
  sim::Trap trap;               ///< valid when !reached_vm_entry
  sim::PerfSnapshot counters;   ///< the Table I feature counters
  std::uint64_t steps = 0;

  // Fault bookkeeping (meaningful when an injection was requested).
  bool injected = false;   ///< the flip actually happened (at_step reached)
  /// The corrupted register was read before being overwritten, by the
  /// instruction at `activation_step`: found by one walk over the trace
  /// the faulted run executed (sim::first_touch), rip at the flip itself.
  bool activated = false;
  std::uint64_t activation_step = 0;
  std::uint64_t trap_step = 0;  ///< dynamic index at which the trap fired
  /// The watchdog ended the run by proof rather than by running out the
  /// budget.  Never set on the Reference engine.
  bool hang_proven = false;
};

/// One word of persistent state that differs between two runs, with its
/// semantic classification.
struct StateDiff {
  sim::Addr addr = 0;
  sim::Word golden = 0;
  sim::Word faulty = 0;
  layout::OutputClass cls = layout::OutputClass::HvGlobal;
  int domain = -1;  ///< owning domain, or -1 for system-wide state
};

class Machine {
 public:
  explicit Machine(const MicrovisorOptions& options = {});

  /// Re-initializes all memory to boot state (domains, VCPUs, shared
  /// pages, tables).  The TSC keeps advancing monotonically.
  void reset();

  /// Runs one hypervisor activation to VM entry (or to a trap).
  RunResult run(const Activation& activation, const RunOptions& opts = {});

  /// Prepares the machine for `activation` WITHOUT executing anything:
  /// performs the VM-exit side effects (current-VCPU and runqueue
  /// bookkeeping), synthesizes the handler's inputs, and resets the CPU
  /// register file to the handler entry state.  run() performs exactly
  /// this preparation before its execution loop; lockstep forensics
  /// callers use it to re-enter the faulted window and then single-step
  /// cpu() with the reference engine.  Deterministic per activation.
  void begin_activation(const Activation& activation);

  /// Synthesizes a *legal* activation of the given reason: arguments and
  /// derived inputs that a fault-free handler accepts without traps or
  /// assertion failures.  Workload generators build on this.
  Activation make_activation(const ExitReason& reason, std::uint64_t seed,
                             int vcpu = -1) const;

  // -- state management --------------------------------------------------------

  struct Snapshot {
    sim::Memory::Snapshot memory;
    sim::Word tsc = 0;
  };
  Snapshot snapshot() const;
  /// Like snapshot(), but reuses `out`'s buffers; pages unchanged since
  /// the last capture into `out` are skipped (see Memory::snapshot_into).
  /// The campaign hot path re-captures one Snapshot per injection.
  void snapshot_into(Snapshot& out) const;
  void restore(const Snapshot& snap);

  /// Compares the persistent (guest-visible or hypervisor-retained) state
  /// of two machines built with identical options.
  static std::vector<StateDiff> diff_persistent_state(const Machine& golden,
                                                      const Machine& faulty);

  // -- accessors ------------------------------------------------------------------

  const Microvisor& microvisor() const { return mv_; }
  sim::Memory& memory() { return mem_; }
  const sim::Memory& memory() const { return mem_; }
  sim::Cpu& cpu() { return cpu_; }
  int num_domains() const { return mv_.options.num_domains; }
  int num_vcpus() const { return mv_.num_vcpus(); }
  int domain_of_vcpu(int vcpu) const {
    return vcpu / mv_.options.vcpus_per_domain;
  }

  /// Handler entry address for an exit reason (O(1), cached).  The CFI
  /// detector checks each run's first retired instruction against this.
  sim::Addr handler_entry(const ExitReason& reason) const;

  /// Selects the CPU execution engine for this machine's run() path.
  /// Every step of a run, clean or faulted, executes on it.  Snapshot and
  /// restore are engine-agnostic.
  void set_execution_engine(sim::EngineKind kind) { cpu_.set_engine(kind); }

  /// Assertion instructions the last run() executed, derived from its
  /// control-flow trace (`trace` is what RunOptions::trace recorded):
  /// every traced instruction that is an assertion, plus the trapping one
  /// (trapping_instruction) — an assertion that fails executed too.
  /// Reads the CPU's rip, so call it before anything else runs on this
  /// machine.
  std::uint64_t executed_assertions(const std::vector<sim::Addr>& trace,
                                    const RunResult& result) const;

  /// Feature names of Table I, in the order the detector consumes them.
  static const std::vector<std::string>& feature_names();

  /// Attaches observability sinks (per-VM-exit trace spans, the flight
  /// recorder ring, snapshot/restore timing histograms).  The bundle is
  /// borrowed, not owned, and must outlive the machine's use; nullptr
  /// (the default) disables all collection at the cost of one predicted
  /// branch per VM exit / snapshot / restore.
  void set_telemetry(const obs::MachineTelemetry* telemetry) {
    telemetry_ = telemetry;
  }

  /// Appends `result`'s VM-exit frame to the attached flight recorder (a
  /// no-op without one).  run() calls it at the end of every activation;
  /// a caller that resolves a run without executing it appends the frame
  /// that run would have left, so the ring's contents and sequence
  /// numbers do not depend on which runs were skipped.
  void record_flight_frame(const Activation& activation,
                           const RunResult& result) const;

 private:
  void map_regions();
  void init_boot_state();
  void prepare_inputs(const Activation& activation);
  /// The instruction the last run trapped at: it did not retire, so the
  /// trace lacks it, but it is the run's last.  nullptr after VM entry, a
  /// watchdog, or a fetch outside the code image.
  const sim::Instruction* trapping_instruction(const RunResult& result) const;

  Microvisor mv_;
  sim::Memory mem_;
  sim::Cpu cpu_;
  /// Handler entry addresses indexed by ExitReason::code(): avoids the
  /// per-activation string symbol lookup on the dispatch path.
  std::vector<sim::Addr> entry_cache_;
  /// The faulted remainder's trace when the caller records none.
  std::vector<sim::Addr> walk_trace_;
  const obs::MachineTelemetry* telemetry_ = nullptr;
  /// Snapshot/restore calls are timed 1-in-kTimingSampleEvery (a
  /// deterministic call-count sample): the campaign snapshots/restores
  /// several times per injection, and timing every call would cost more
  /// clock reads than the rest of the metrics layer combined.
  static constexpr std::uint32_t kTimingSampleEvery = 8;
  mutable std::uint32_t snapshot_calls_ = 0;
  std::uint32_t restore_calls_ = 0;
};

}  // namespace xentry::hv
