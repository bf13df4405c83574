// Golden/faulty lockstep replay: the forensics engine behind
// obs::ForensicsRecord.
//
// A qualifying injection (SDC, app crash, undetected escape) is re-run
// from the golden probe's pre-run snapshot with both machines advancing
// in bounded-step lockstep on the reference engine.  State is compared
// every 64 instructions; the first dirty chunk is bisected by
// restoring the chunk-entry checkpoint and replaying prefixes, so the
// first architectural divergence — the instruction whose execution
// propagated the corruption beyond the seeded (register, bit) flip — is
// located to single-instruction resolution.  From there the corruption
// set is sampled at exponentially spaced checkpoints into the taint map.
//
// The replay consumes no campaign randomness and the caller restores
// machine state afterwards, so campaign record digests are bit-identical
// with forensics on or off.
#pragma once

#include <cstdint>

#include "hv/machine.hpp"
#include "obs/forensics.hpp"
#include "sim/cpu.hpp"

namespace xentry::fault {

/// Outcome of the divergence scan alone (unit-testable at the CPU level).
struct DivergenceScan {
  bool diverged = false;
  /// States fully converged (the flip was overwritten before propagating).
  bool masked = false;
  obs::FirstDivergence divergence;  ///< valid when `diverged`
  /// Boundary (dynamic step index, at_step scale) where the scan ended:
  /// divergence.step + 1 when diverged, else the end of the window.
  std::uint64_t boundary = 0;
  std::uint64_t steps_replayed = 0;  ///< reference steps, both sides
  // Side states at the final boundary, for taint-sampling continuation.
  bool golden_done = false, golden_halted = false;
  bool faulty_done = false, faulty_halted = false;
};

/// Scans for the first architectural divergence beyond the seeded flip.
/// Both CPUs must be at the same dynamic step `start_step` with the seed
/// flip (`seed_reg` xor `seed_mask`) already applied to `faulty`, and
/// their memories must have identical mappings.  On return the CPUs sit
/// at `boundary`; when diverged that is the first post-propagation state,
/// ready for taint sampling.
DivergenceScan find_first_divergence(sim::Cpu& golden, sim::Cpu& faulty,
                                     sim::Reg seed_reg, sim::Word seed_mask,
                                     std::uint64_t start_step);

/// Full machine-level replay: restores both machines from `pre`, re-enters
/// the activation, advances to the injection point, applies the flip, runs
/// the divergence scan, and samples the taint map.  Fills everything in
/// the returned record except the attribution fields (the experiment owns
/// those).  Both machines are left at an arbitrary replay state — the
/// caller restores them (the campaign re-syncs the faulty machine before
/// every use; the golden machine's post-run state must be re-instated).
obs::ForensicsRecord run_lockstep_forensics(hv::Machine& golden,
                                            hv::Machine& faulty,
                                            const hv::Activation& activation,
                                            const hv::Injection& injection,
                                            const hv::Machine::Snapshot& pre);

}  // namespace xentry::fault
