// The AnalysisArtifacts bundle: everything the static analyzer proves
// about a program, packaged for runtime consumption.
//
// analyze_program() builds the CFG, runs the dataflow pack, derives
// range assertions at every VM-entry gate (Hlt) from the interval facts,
// and embeds a CFG-based verifier report — one analysis pass, one bundle
// that the CFI detector (runtime), the verifier (build time), and the
// analyze_program CLI (reports) all read.
//
// Derived assertions carry ids in the reserved partition starting at
// kDerivedAssertBase so they can be auto-registered into an
// AssertionRegistry without ever colliding with hand-written ids.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/bitlive.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/timing.hpp"
#include "sim/verifier.hpp"

namespace xentry::analysis {

/// First assertion id reserved for analyzer-derived assertions.  The
/// AssertionRegistry rejects hand-registered ids at or above this.
inline constexpr std::uint32_t kDerivedAssertBase = 1u << 16;

/// A range invariant proven at a VM-entry gate: whenever fault-free
/// execution halts at `addr`, the signed value of `reg` is in [lo, hi].
struct DerivedAssertion {
  std::uint32_t id = 0;  ///< kDerivedAssertBase + index
  sim::Addr addr = 0;    ///< the Hlt instruction the invariant holds at
  std::uint8_t reg = 0;  ///< GPR index
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::string description;
};

struct AnalyzeOptions {
  CfgOptions cfg;
  sim::VerifierOptions verifier;
  /// Cap on derived assertions (first by address, then register).
  std::size_t max_derived = 64;
};

struct AnalysisArtifacts {
  /// The analyzed program, owned: block and derived-assertion addresses
  /// index into it, and ownership keeps them valid for the detector's
  /// lifetime regardless of what produced the program.
  sim::Program program;
  std::uint64_t signature = 0;  ///< program_signature(program)
  ControlFlowGraph cfg;
  std::vector<BlockFacts> facts;   ///< parallel to cfg.blocks
  std::vector<RegState> block_in;  ///< interval state at block entry
  std::vector<StackWarning> stack_warnings;
  std::vector<DerivedAssertion> derived;  ///< sorted by (addr, reg)
  /// Per-bit liveness map (the importance sampler's input).  Computed
  /// after assertion derivation so gate-time consumers are part of the
  /// liveness roots.
  VulnerabilityMap vuln;
  /// Per-entry-point static [BCET, WCET] timing envelopes under
  /// TimingCostModel{} (Technique::Timing input; empty when nothing was
  /// provable).
  TimingEnvelopes timing;
  sim::VerifierReport verifier;

  std::size_t reachable_blocks() const;
  /// Derived assertions attached to the Hlt at `addr` as a subrange of
  /// `derived` ([first, last) indices); empty when none.
  std::pair<std::size_t, std::size_t> derived_at(sim::Addr addr) const;

  /// Issues that should fail a build: verifier issues + stack warnings.
  std::size_t finding_count() const {
    return verifier.issues.size() + stack_warnings.size();
  }

  std::string to_string() const;
  void write_json(std::ostream& os) const;
};

AnalysisArtifacts analyze_program(const sim::Program& program,
                                  const AnalyzeOptions& options = {});

/// The CFG-based verifier core shared by sim::verify_program and
/// analyze_program (one legality implementation, two entry points).
sim::VerifierReport verify_with_cfg(const sim::Program& program,
                                    const ControlFlowGraph& cfg,
                                    const std::vector<BlockFacts>& facts,
                                    const sim::VerifierOptions& options);

}  // namespace xentry::analysis
