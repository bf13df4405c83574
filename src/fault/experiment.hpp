// Single-injection experiment: golden run vs faulted run.
//
// Mirrors the paper's Simics methodology (Section V-A/B): the same
// activation is executed twice from an identical machine state — once
// clean (the golden run), once with a single-bit architectural-register
// flip at a uniformly chosen dynamic instruction — and the outcomes are
// compared: control-flow trace, final persistent state, and detection
// verdicts from the Xentry framework.
#pragma once

#include <random>

#include "fault/lockstep.hpp"
#include "fault/outcome.hpp"
#include "hv/machine.hpp"
#include "ml/dataset.hpp"
#include "xentry/framework.hpp"

namespace xentry::fault {

/// Models whether corrupted state is ever *consumed* downstream.
///
/// The paper determines consequences by letting applications run to
/// completion on Simics; a single corrupted guest-visible word frequently
/// masks at the application level (never read, or overwritten).  We do not
/// run real guests, so consumption is drawn per corrupted word,
/// deterministically per experiment: application-facing words matter with
/// `app_consume_probability` each, guest-kernel words with
/// `kernel_consume_probability`; control state and hypervisor-internal
/// state always matter.  See DESIGN.md (substitution table).
struct OutcomeModel {
  double app_consume_probability = 0.10;
  double kernel_consume_probability = 0.15;
  /// Guests read the published clock constantly (gettimeofday, scheduler
  /// ticks), so corrupted time values are consumed far more often than
  /// ordinary data — which is why they dominate the paper's Table II.
  double time_consume_probability = 0.85;
  /// Much hypervisor-internal state is self-healing (scheduler cursors and
  /// runqueues are rewritten every pass, pending masks are re-derived), so
  /// a corrupted word only manifests if something reads it first.
  double hv_consume_probability = 0.30;
  /// A consumed corrupted pointer/translation either faults when the app
  /// dereferences it (crash) or silently resolves to the wrong frame and
  /// feeds wrong data into the computation (SDC).
  double pointer_crash_fraction = 0.35;
};

class InjectionExperiment {
 public:
  /// Both machines must be built with identical options.  `xentry` owns
  /// the detection configuration (and the trained model, if any).
  InjectionExperiment(hv::Machine& golden, hv::Machine& faulty,
                      Xentry& xentry, const OutcomeModel& model = {});

  /// Draws a uniform single-bit register flip at a dynamic instruction
  /// within `golden_steps` — the raw architectural fault model.
  static hv::Injection draw_injection(std::mt19937_64& rng,
                                      std::uint64_t golden_steps);

  /// Draws a flip biased toward *activated* faults (paper Section V-B:
  /// "only soft errors occurring before reading registers can be
  /// activated"): the injection point is uniform over the golden trace and
  /// the register is chosen among those the upcoming instruction reads
  /// (rip is always a candidate — a flipped rip is consumed by the next
  /// fetch).
  static hv::Injection draw_activated_injection(
      std::mt19937_64& rng, const std::vector<sim::Addr>& golden_trace,
      const sim::Program& program);

  struct Result {
    InjectionRecord record;
    FeatureVector golden_features;  ///< a labelled-correct training sample
    bool golden_ok = false;  ///< golden run reached VM entry (sanity)
    /// The faulted run executed on the faulty machine.  False when the
    /// golden trace proved the flip unactivated (unread_on_golden_path)
    /// and the record was built without a run; the faulty machine's state
    /// after run_one is defined only when this is true.
    bool executed = false;
    /// The faulted run was a hang the engine proved instead of running
    /// out its watchdog budget (hv::RunResult::hang_proven).
    bool hang_proven = false;
  };

  /// Everything one clean execution of an activation yields: dynamic
  /// length, control-flow trace, the Table I counters, whether VM entry
  /// was reached — and the pre-run machine state, so the faulted machine
  /// can be aligned without re-executing the golden run.
  struct GoldenProbe {
    std::uint64_t steps = 0;
    std::vector<sim::Addr> trace;
    sim::PerfSnapshot counters;
    bool reached_vm_entry = false;
    /// Golden machine state immediately before the run (buffers are
    /// reused across probes of the same machine).
    hv::Machine::Snapshot pre;
  };

  /// Runs one experiment.  `probe` must come from probe_golden_advance
  /// with the same activation: its run IS this experiment's golden run,
  /// and the golden machine already sits at its post-run state.  When
  /// the golden trace proves the flip unactivated (unread_on_golden_path)
  /// the record is built from `probe` alone: Masked, features from the
  /// golden counters (when Xentry arms them), the flight frame the run
  /// would have appended.  Otherwise the faulty machine is synced on
  /// execution (restored to `probe.pre`) and runs the activation under
  /// Xentry interception.  Either way the record is bit-identical to the
  /// executed one.
  Result run_one(const hv::Activation& activation,
                 const hv::Injection& injection, const GoldenProbe& probe);

  /// Whether `probe`'s golden trace alone proves `injection` unactivated
  /// (paper Section V-B: a flip is activated only if the register is read
  /// before it is overwritten): sim::first_touch on the trace from
  /// `at_step`, as Machine::run walks a faulted run's own trace, finds no
  /// read first.  Never true for rip, for a golden run that did not reach
  /// VM entry, or for a flip past the end of the trace.  Until the flip is
  /// read the faulted run retires exactly the golden instructions, so the
  /// verdict equals the executed run's `activated`.
  static bool unread_on_golden_path(const sim::Program& program,
                                    const GoldenProbe& probe,
                                    const hv::Injection& injection);

  /// Runs the activation fault-free on the golden machine only (a stream
  /// gap between experiments).  The faulty machine is left stale: every
  /// executed run_one re-syncs it from the golden pre-run state first, so
  /// syncing it here would be dead work.
  void advance(const hv::Activation& activation);

  /// Attaches the shard's VM-exit ring: when an injection's outcome is
  /// SDC / crash class (`is_blackbox_worthy`), the ring is dumped into
  /// the record's `blackbox` for re-run-free postmortems.  Borrowed;
  /// nullptr (default) disables the dump.
  void set_flight_recorder(const obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

  /// Lockstep-forensics policy for qualifying outcomes (needs_forensics):
  /// SDC and app crashes always replay; undetected escapes replay 1-in-
  /// `sample_every` (1 = all).  Off by default — replays re-execute the
  /// faulted window on the reference engine and are not free.
  struct ForensicsConfig {
    bool enabled = false;
    int sample_every = 1;
  };

  void set_forensics(const ForensicsConfig& cfg) { forensics_ = cfg; }

  /// Checkpoint support: the escape counter driving `sample_every` is the
  /// experiment's only state that survives across injections (the scratch
  /// buffers are realigned from the golden probe every run).
  std::uint64_t forensics_counter() const { return forensics_counter_; }
  void set_forensics_counter(std::uint64_t n) { forensics_counter_ = n; }

  /// Runs the activation clean once on the golden machine to measure its
  /// dynamic length and capture its control-flow trace (for
  /// activated-biased injection draws), reusing `probe`'s buffers.  The
  /// golden machine is LEFT AT ITS POST-RUN STATE (the probe run is the
  /// golden run).  Pair with run_one(act, inj, probe); to abandon the
  /// probe instead (e.g. a degenerate zero-step activation), rewind with
  /// `machine.restore(probe.pre)`.
  void probe_golden_advance(const hv::Activation& activation,
                            GoldenProbe& probe);

 private:
  std::vector<hv::StateDiff> consumed_diffs(
      const std::vector<hv::StateDiff>& diffs, const hv::Activation& act,
      const hv::Injection& inj) const;
  Consequence classify_consequence(
      const std::vector<hv::StateDiff>& diffs) const;
  UndetectedClass classify_undetected(
      const InjectionRecord& rec, const std::vector<hv::StateDiff>& diffs,
      const std::vector<sim::Addr>& fault_trace) const;
  void run_forensics(InjectionRecord& rec, const hv::Activation& activation,
                     const hv::Injection& injection, const GoldenProbe& probe);
  UndetectedClass attribute_from_evidence(const obs::ForensicsRecord& fx,
                                          const InjectionRecord& rec) const;

  hv::Machine& golden_;
  hv::Machine& faulty_;
  Xentry& xentry_;
  OutcomeModel model_;
  const obs::FlightRecorder* flight_ = nullptr;
  ForensicsConfig forensics_;
  std::uint64_t forensics_counter_ = 0;  ///< escapes seen, for sample_every

  // Scratch buffers reused across injections (allocation hygiene: the
  // campaign loop must not reallocate traces/snapshots per run).
  hv::Machine::Snapshot forensics_post_;  ///< golden post-state across replay
  std::vector<sim::Addr> fault_trace_; ///< faulted run's control-flow trace
};

}  // namespace xentry::fault
