// Execution engine for one logical core.
//
// The CPU interprets a pre-decoded Program against a Memory, maintaining
// the 18 architectural registers that form the paper's fault-injection
// surface.  Hardware faults are reported as values (Trap), never as C++
// exceptions: the run loops are the simulator's hot path.
//
// Two engines share the architectural semantics:
//   - step() / run_reference(): the reference engine.  One instruction per
//     call, a fresh StepInfo per step — used by single-step callers
//     (lockstep comparison, the hang prover's laps) and as the oracle the
//     differential tests check the fast engine against.
//   - run(): the mode-specialized engine.  Dispatches once, per run, to a
//     loop templated over the two per-run feature flags (trace recording,
//     shadow-stack redundancy), so the common golden-run configuration
//     compiles to a tight loop with zero disabled-feature branches.
//     Activation is decided after a run, from its trace (sim::first_touch),
//     so neither engine checks registers per step.  Retire bookkeeping
//     (steps, TSC, counters) accumulates in locals and is flushed once at
//     loop exit, and fusable Cmp*/Test* + Jcc pairs (see Program::fused)
//     execute in one dispatch while still retiring as two instructions.
//     The code image's base, size and slot array are hoisted out of the
//     loop, and each Load, Store, Push, Pop, Call and Ret passes a region
//     hint of its own to Memory: one byte per program slot, owned by the
//     Cpu, which a static instruction almost always hits (Memory::read
//     with a Hint).  Every architectural observable is bit-identical to
//     the reference engine.
//
// prove_hang() (src/sim/hang_proof.cpp) is the Fast engine's shortcut for
// a run that loops until the watchdog: it steps a few laps of the loop,
// proves that the rest of the budget repeats the same lap, and retires
// the rest in closed form.  Every value a watchdog-ended run reports
// (step count, TSC, counters, trap address) stays exact; the trace,
// memory and the registers other than rip stop at the proof point.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/isa.hpp"
#include "sim/memory.hpp"
#include "sim/perf_counters.hpp"
#include "sim/program.hpp"
#include "sim/types.hpp"

namespace xentry::sim {

/// Which engine Cpu::run drives.  Both are bit-identical in every
/// architectural observable (the differential tests assert it); they
/// differ only in throughput.
enum class EngineKind : std::uint8_t {
  /// Mode-specialized interpreter (run_loop templates).  The default.
  Fast,
  /// step()-driven reference engine: the oracle.
  Reference,
};

constexpr std::string_view engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::Fast: return "fast";
    case EngineKind::Reference: return "reference";
  }
  return "?";
}

/// Timestamp-counter advance per retired instruction.  Two back-to-back
/// rdtsc reads therefore differ by a small constant — the property the
/// paper's discussion of time-value checking relies on (Section VI).
inline constexpr Word kTscPerStep = 3;

/// One architectural register that differs between two CPUs: the
/// register-file element of a (location, xor-mask) corruption set.
struct RegDiff {
  Reg reg = Reg::rax;
  Word xor_mask = 0;  ///< a ^ b; never zero
};

/// Result of one step.
struct StepInfo {
  enum class Status : std::uint8_t { Ok, Halted, Trapped };
  Status status = Status::Ok;
  Trap trap;
  Addr rip_before = 0;
};

class Cpu {
 public:
  Cpu(const Program* program, Memory* memory)
      : prog_(program), mem_(memory) {
    regs_.fill(0);
  }

  // -- architectural state ---------------------------------------------------

  Word reg(Reg r) const { return regs_[static_cast<std::size_t>(r)]; }
  void set_reg(Reg r, Word v) { regs_[static_cast<std::size_t>(r)] = v; }

  /// Flips one bit of one architectural register: the paper's fault model.
  void flip_bit(Reg r, int bit) {
    regs_[static_cast<std::size_t>(r)] ^= Word{1} << bit;
  }

  const std::array<Word, kNumArchRegs>& regs() const { return regs_; }

  /// Bulk register-file overwrite, for lockstep checkpoint restore.  The
  /// TSC and step counter are untouched (set_tsc restores the former; the
  /// latter is bookkeeping the replay engine tracks itself).
  void set_regs(const std::array<Word, kNumArchRegs>& regs) { regs_ = regs; }

  /// Resets registers to a clean state with the given entry point and
  /// stack pointer.  Flags and GPRs are zeroed; the TSC is preserved
  /// (monotonic across activations).
  void reset(Addr rip, Addr rsp);

  // -- execution ---------------------------------------------------------------

  /// Executes one instruction (reference engine).  On a trap, the
  /// architectural state is left as of the faulting instruction (rip
  /// points at it).
  StepInfo step();

  /// Runs until Hlt, a trap, or `max_steps` instructions (which raises the
  /// Watchdog trap, modelling Xen's NMI watchdog catching a hung
  /// hypervisor).  Returns the last StepInfo.  The Reference engine runs
  /// run_reference; the Fast engine picks the run-loop specialization for
  /// the current trace/shadow configuration once, then executes with no
  /// per-step feature tests; the feature setters must not be called while
  /// a run is in flight.  A run may stop at any budget and resume with
  /// another run() call: the split run retires exactly what one run would.
  /// run(0) returns the Watchdog trap at rip without executing anything.
  StepInfo run(std::uint64_t max_steps);

  /// Reference-engine equivalent of run(): drives step() one instruction
  /// at a time.  Semantically identical to run() (the differential tests
  /// assert it); kept for lockstep callers and as the oracle.
  StepInfo run_reference(std::uint64_t max_steps);

  std::uint64_t steps_executed() const { return steps_; }

  /// Tries to prove that the next `max_steps` steps repeat one lap of at
  /// most 64 instructions, so the run can only end at the watchdog.  It
  /// executes up to three laps with step() (counted and traced like any
  /// other steps), then checks the lap abstractly for every lap up to
  /// the budget: each branch goes the way it went, no access traps and
  /// every register the lap depends on is invariant or advances by a
  /// constant.  On success it sets `proven` and retires the rest of the
  /// budget in closed form: steps, TSC and counters advance exactly, rip
  /// lands where the budget ends, and the Watchdog trap is returned; the
  /// trace, memory and the other registers keep their proof-point
  /// values.  Otherwise it returns how the run ended while stepping
  /// (halt, trap or the budget), or Status::Ok when the run goes on.
  /// Never proves on the Reference engine.
  StepInfo prove_hang(std::uint64_t max_steps, bool& proven);

  // -- attachments ------------------------------------------------------------

  PerfCounters& counters() { return counters_; }
  const PerfCounters& counters() const { return counters_; }

  /// When non-null, every executed rip is appended: the control-flow trace
  /// used for golden-run comparison and ML labelling.
  void set_trace(std::vector<Addr>* trace) { trace_ = trace; }

  Word tsc() const { return tsc_; }
  void set_tsc(Word v) { tsc_ = v; }

  /// Enables shadow-stack redundancy (the paper's Section VI "selective
  /// redundancy" countermeasure for stack-value corruption): every pushed
  /// word is mirrored at `addr + offset`, and every pop verifies the
  /// mirror, raising TrapKind::StackCheck on mismatch.  The mirror range
  /// must be mapped by the caller.
  void enable_shadow_stack(std::int64_t offset) {
    shadow_offset_ = offset;
    shadow_enabled_ = true;
  }
  bool shadow_stack_enabled() const { return shadow_enabled_; }

  /// Selects the engine run() drives.
  void set_engine(EngineKind kind) { engine_ = kind; }
  EngineKind engine() const { return engine_; }

  Memory& memory() { return *mem_; }
  const Program& program() const { return *prog_; }

 private:
  void set_flags_cmp(Word a, Word b);
  void set_flags_result(Word res);
  bool flag(Word bit) const { return (reg(Reg::rflags) & bit) != 0; }
  /// The Watchdog trap at the current rip: how a run ends at its budget.
  StepInfo watchdog() const;

  /// The mode-specialized hot loop behind run().  One instantiation per
  /// trace/shadow combination.
  template <bool Trace, bool Shadow>
  StepInfo run_loop(std::uint64_t max_steps);

  const Program* prog_;
  Memory* mem_;
  std::array<Word, kNumArchRegs> regs_{};
  PerfCounters counters_;
  std::vector<Addr>* trace_ = nullptr;
  /// The run loops' region hints, one per program slot (Memory::Hint).
  /// run() sizes them from the program; a stale hint only costs a miss.
  std::vector<Memory::Hint> hints_;
  Word tsc_ = 0;
  std::uint64_t steps_ = 0;
  std::int64_t shadow_offset_ = 0;
  EngineKind engine_ = EngineKind::Fast;
  bool shadow_enabled_ = false;
};

/// Fills `out` with one RegDiff per architectural register (including rip
/// and rflags) whose value differs between `a` and `b`, in register-index
/// order, and returns the diff count.  `out` is cleared first and reused.
std::size_t diff_regs(const Cpu& a, const Cpu& b, std::vector<RegDiff>& out);

}  // namespace xentry::sim
