// Dataflow analyses over the basic-block CFG: reachability, dominators,
// per-block signed-interval register analysis, and per-function stack
// depth balance.
//
// The interval domain is the classic signed-int64 lattice.  Values are
// seeded from MovRI immediates, narrowed by ALU transfer functions and
// by Cmp/Test-guarded branch edges, and widened to the respective
// infinity after a bounded number of lattice ascents so loops terminate.
// Soundness contract: every interval fact must hold on ANY fault-free
// execution — the runtime detector treats a violated derived range as
// evidence of corruption, so a transfer function that cannot prove a
// bound must return top, never guess.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"

namespace xentry::analysis {

struct Interval {
  static constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  std::int64_t lo = kMin;
  std::int64_t hi = kMax;

  static Interval top() { return {kMin, kMax}; }
  static Interval exact(std::int64_t v) { return {v, v}; }
  bool is_top() const { return lo == kMin && hi == kMax; }
  bool is_empty() const { return lo > hi; }
  bool contains(std::int64_t v) const { return v >= lo && v <= hi; }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

Interval interval_join(const Interval& a, const Interval& b);
Interval interval_meet(const Interval& a, const Interval& b);
/// Saturating-to-top interval addition (top on potential i64 overflow,
/// matching the wrapping machine arithmetic conservatively).
Interval interval_add(const Interval& a, const Interval& b);
Interval interval_sub(const Interval& a, const Interval& b);

/// Register state at a program point: one interval per GPR (rip/rflags
/// are not tracked).
using RegState = std::array<Interval, sim::kNumGprs>;

/// Applies one instruction's effect to `state`.  Never traps: assertion
/// opcodes refine along their non-trapping path (the only path that
/// reaches the next instruction).
void apply_instruction(const sim::Instruction& insn, RegState& state);

/// Branch-edge refinement: when block `b` ends with a guard and a
/// conditional branch, narrows the guarded registers in `st` along the
/// edge to the successor block starting at `succ_first`.  Guards:
/// `cmp r, imm` (signed and unsigned Jcc), `cmp r1, r2` (both operands),
/// `test r, r` (Je/Jne against zero) and single-bit `test r, imm` (the
/// bit-set edge proves r nonzero).  An empty interval marks the edge
/// infeasible.
void refine_edge(const sim::Program& program, const BasicBlock& b,
                 sim::Addr succ_first, RegState& st);

/// Sentinel for "stack depth not statically known at this block".
inline constexpr std::int32_t kDepthUnknown =
    std::numeric_limits<std::int32_t>::min();

struct StackWarning {
  sim::Addr addr = 0;
  std::int32_t depth = 0;  ///< local frame depth where the conflict hit
  std::string what;
};

struct BlockFacts {
  bool reachable = false;
  /// Immediate dominator block index; kNoBlock for roots (dominated only
  /// by the virtual entry) and unreachable blocks.
  std::uint32_t idom = kNoBlock;
  /// Local frame depth (words pushed minus popped since function entry)
  /// on entry to the block; kDepthUnknown when not statically known.
  std::int32_t stack_in = kDepthUnknown;
  /// Interval analysis reached this block (in_state below is meaningful).
  bool in_valid = false;
};

struct DataflowResult {
  std::vector<BlockFacts> facts;      ///< parallel to cfg.blocks
  std::vector<RegState> in_state;     ///< register intervals at block entry
  std::vector<StackWarning> stack_warnings;
};

DataflowResult run_dataflow(const sim::Program& program,
                            const ControlFlowGraph& cfg);

}  // namespace xentry::analysis
