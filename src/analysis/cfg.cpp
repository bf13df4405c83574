#include "analysis/cfg.hpp"

#include <algorithm>

namespace xentry::analysis {

namespace {

using sim::Addr;
using sim::Instruction;
using sim::Opcode;
using sim::Program;

bool is_direct_branch(Opcode op) {
  return op == Opcode::Jmp || op == Opcode::Call || sim::is_cond_branch(op);
}

/// Block terminators: the instruction transfers control somewhere other
/// than (only) the next slot, or stops execution.
bool ends_block(Opcode op) {
  return sim::is_branch(op) || op == Opcode::Hlt;
}

}  // namespace

TargetStatus classify_branch_target(const Program& program, Addr target) {
  if (!program.contains(target)) return TargetStatus::OutOfRange;
  if (program.at(target).op == Opcode::Ud) return TargetStatus::Padding;
  return TargetStatus::Ok;
}

std::uint64_t program_signature(const Program& program) {
  // One signature for every layer: the analysis artifacts and the
  // campaign staleness guards both key off the same sim-level hash.
  return sim::program_text_signature(program);
}

ControlFlowGraph build_cfg(const Program& program, const CfgOptions& options) {
  ControlFlowGraph cfg;
  cfg.base = program.base();
  cfg.code_size = program.size();
  cfg.landing = sim::compute_landing_sites(program);
  cfg.block_of.assign(program.size(), kNoBlock);
  if (program.empty()) return cfg;

  const Addr base = program.base();
  const std::size_t n = program.size();
  auto op_at = [&](std::size_t off) { return program.at(base + off).op; };

  std::vector<bool> is_symbol(n, false);
  for (const auto& [name, addr] : program.symbols()) {
    if (program.contains(addr)) is_symbol[addr - base] = true;
  }

  // Leaders: start of a non-padding run, any landing site, and the slot
  // after any branch or Hlt.
  std::vector<bool> leader(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (op_at(i) == Opcode::Ud) continue;
    leader[i] = i == 0 || op_at(i - 1) == Opcode::Ud || cfg.landing[i] ||
                ends_block(op_at(i - 1));
  }

  // Carve blocks and fill the per-slot index.
  for (std::size_t i = 0; i < n; ++i) {
    if (op_at(i) == Opcode::Ud) continue;
    std::size_t end = i;  // inclusive
    while (end + 1 < n && !ends_block(op_at(end)) &&
           op_at(end + 1) != Opcode::Ud && !leader[end + 1]) {
      ++end;
    }
    const auto idx = static_cast<std::uint32_t>(cfg.blocks.size());
    BasicBlock b;
    b.first = base + i;
    b.last = base + end;
    b.is_function_entry = is_symbol[i];
    std::uint64_t h = sim::kFnvOffsetBasis;
    for (std::size_t k = i; k <= end; ++k) {
      h = sim::instruction_fnv(h, program.at(base + k));
      cfg.block_of[k] = idx;
    }
    b.signature = h;
    cfg.blocks.push_back(std::move(b));
    i = end;
  }

  // Per-function return-target sets: return sites of direct calls to the
  // function's entry, plus every MovRI code immediate (manually pushed
  // return addresses are always materialized through MovRI in this ISA).
  // Function = greatest symbol at or before the Ret; Rets outside any
  // symbol see the return sites of every call.
  std::vector<Addr> symbol_addrs;
  for (const auto& [name, addr] : program.symbols()) {
    if (program.contains(addr)) symbol_addrs.push_back(addr);
  }
  std::sort(symbol_addrs.begin(), symbol_addrs.end());
  auto function_entry = [&](Addr a) -> Addr {
    auto it = std::upper_bound(symbol_addrs.begin(), symbol_addrs.end(), a);
    return it == symbol_addrs.begin() ? ~Addr{0} : *(it - 1);
  };
  std::map<Addr, std::vector<Addr>> return_sites;  // callee entry -> sites
  std::vector<Addr> all_return_sites;
  std::vector<Addr> movi_landings;
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& insn = program.at(base + i);
    if (insn.op == Opcode::Call &&
        classify_branch_target(program, static_cast<Addr>(insn.imm)) ==
            TargetStatus::Ok) {
      const Addr site = base + i + 1;
      if (program.contains(site) && program.at(site).op != Opcode::Ud) {
        return_sites[static_cast<Addr>(insn.imm)].push_back(site);
        all_return_sites.push_back(site);
      }
    }
    if (insn.op == Opcode::MovRI) {
      const auto imm = static_cast<Addr>(insn.imm);
      if (program.contains(imm) && program.at(imm).op != Opcode::Ud) {
        movi_landings.push_back(imm);
      }
    }
  }

  // Edges.
  auto add_edge = [&](std::uint32_t from, Addr target) {
    const std::uint32_t to = cfg.block_at(target);
    if (to == kNoBlock) return;
    BasicBlock& f = cfg.blocks[from];
    if (std::find(f.succs.begin(), f.succs.end(), to) == f.succs.end()) {
      f.succs.push_back(to);
      cfg.blocks[to].preds.push_back(from);
    }
  };
  for (std::uint32_t bi = 0; bi < cfg.blocks.size(); ++bi) {
    BasicBlock& b = cfg.blocks[bi];
    const Instruction& insn = program.at(b.last);
    const Addr next = b.last + 1;
    const bool next_is_padding =
        program.contains(next) && program.at(next).op == Opcode::Ud;
    if (is_direct_branch(insn.op)) {
      const auto target = static_cast<Addr>(insn.imm);
      if (classify_branch_target(program, target) == TargetStatus::Ok) {
        add_edge(bi, target);
      } else {
        b.has_illegal_target = true;
      }
      if (sim::is_cond_branch(insn.op)) {
        if (next_is_padding) {
          b.falls_into_padding = true;
        } else {
          add_edge(bi, next);
        }
      } else if (insn.op == Opcode::Call && next_is_padding) {
        // The call's return site is padding: the callee's Ret would fault.
        b.falls_into_padding = true;
      }
    } else if (insn.op == Opcode::JmpR) {
      auto it = options.indirect_targets.find(b.last);
      if (it == options.indirect_targets.end() || it->second.empty()) {
        b.accept_any_succ = true;
      } else {
        for (Addr t : it->second) add_edge(bi, t);
      }
    } else if (insn.op == Opcode::Ret) {
      const Addr fn = function_entry(b.last);
      const std::vector<Addr>* sites = &all_return_sites;
      if (auto it = return_sites.find(fn); it != return_sites.end()) {
        sites = &it->second;
      }
      for (Addr t : *sites) add_edge(bi, t);
      for (Addr t : movi_landings) add_edge(bi, t);
    } else if (insn.op != Opcode::Hlt) {
      // Plain block split by a leader, or last instruction of a run.
      if (next_is_padding || !program.contains(next)) {
        b.falls_into_padding = next_is_padding;
      } else {
        add_edge(bi, next);
      }
    }
  }

  // Roots: where control enters from outside the graph.
  std::vector<bool> is_root(cfg.blocks.size(), false);
  auto mark_root = [&](Addr a) {
    const std::uint32_t bi = cfg.block_at(a);
    if (bi != kNoBlock && cfg.blocks[bi].first == a) is_root[bi] = true;
  };
  for (Addr a : symbol_addrs) mark_root(a);
  for (Addr a : all_return_sites) mark_root(a);
  for (Addr a : movi_landings) mark_root(a);
  if (symbol_addrs.empty() && !cfg.blocks.empty()) is_root[0] = true;
  for (std::uint32_t bi = 0; bi < cfg.blocks.size(); ++bi) {
    if (is_root[bi]) cfg.roots.push_back(bi);
  }
  return cfg;
}

}  // namespace xentry::analysis
