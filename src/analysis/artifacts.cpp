#include "analysis/artifacts.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace xentry::analysis {

namespace {

using sim::Addr;
using sim::Opcode;
using sim::Program;

std::string location(const Program& program, Addr addr) {
  std::ostringstream os;
  const std::string sym = program.symbol_at(addr);
  if (sym.empty()) {
    os << "@" << addr;
  } else {
    os << sym << "+" << (addr - program.symbol(sym));
  }
  return os.str();
}

void derive_assertions(const Program& program, AnalysisArtifacts& art,
                       std::size_t max_derived) {
  for (std::uint32_t bi = 0; bi < art.cfg.blocks.size(); ++bi) {
    const BasicBlock& b = art.cfg.blocks[bi];
    if (program.at(b.last).op != Opcode::Hlt) continue;
    if (!art.facts[bi].reachable || !art.facts[bi].in_valid) continue;
    RegState st = art.block_in[bi];
    for (Addr a = b.first; a < b.last; ++a) {
      apply_instruction(program.at(a), st);
    }
    for (unsigned r = 0; r < sim::kNumGprs; ++r) {
      const Interval& v = st[r];
      if (v.is_top() || v.is_empty()) continue;
      if (art.derived.size() >= max_derived) return;
      DerivedAssertion d;
      d.addr = b.last;
      d.reg = static_cast<std::uint8_t>(r);
      d.lo = v.lo;
      d.hi = v.hi;
      std::ostringstream os;
      os << "derived @" << location(program, b.last) << ": "
         << sim::reg_name(static_cast<sim::Reg>(r)) << " in [";
      if (v.lo == Interval::kMin) os << "-inf";
      else os << v.lo;
      os << ", ";
      if (v.hi == Interval::kMax) os << "+inf";
      else os << v.hi;
      os << "]";
      d.description = os.str();
      art.derived.push_back(std::move(d));
    }
  }
}

}  // namespace

std::size_t AnalysisArtifacts::reachable_blocks() const {
  return static_cast<std::size_t>(
      std::count_if(facts.begin(), facts.end(),
                    [](const BlockFacts& f) { return f.reachable; }));
}

std::pair<std::size_t, std::size_t> AnalysisArtifacts::derived_at(
    sim::Addr addr) const {
  const auto lo = std::lower_bound(
      derived.begin(), derived.end(), addr,
      [](const DerivedAssertion& d, sim::Addr a) { return d.addr < a; });
  auto hi = lo;
  while (hi != derived.end() && hi->addr == addr) ++hi;
  return {static_cast<std::size_t>(lo - derived.begin()),
          static_cast<std::size_t>(hi - derived.begin())};
}

std::string AnalysisArtifacts::to_string() const {
  std::ostringstream os;
  std::size_t edges = 0, accept_any = 0, entries = 0;
  for (const BasicBlock& b : cfg.blocks) {
    edges += b.succs.size();
    accept_any += b.accept_any_succ ? 1 : 0;
    entries += b.is_function_entry ? 1 : 0;
  }
  os << cfg.blocks.size() << " blocks (" << reachable_blocks()
     << " reachable, " << entries << " function entries), " << edges
     << " edges (" << accept_any << " unresolved indirect), "
     << derived.size() << " derived assertions, " << stack_warnings.size()
     << " stack warnings\nverifier: " << verifier.to_string();
  if (!vuln.empty()) {
    os << "\nbit-liveness: " << vuln.live.size() << " slots, "
       << (vuln.masked_fraction() * 100.0)
       << "% of (slot, reg, bit) points provably masked";
  }
  if (!timing.by_entry.empty()) {
    os << "\ntiming: " << timing.valid_count() << "/"
       << timing.by_entry.size() << " entry points with finite envelopes";
  }
  for (const StackWarning& w : stack_warnings) {
    os << "\n  [stack] at " << w.addr << " (" << location(program, w.addr)
       << "): " << w.what;
  }
  for (const DerivedAssertion& d : derived) {
    os << "\n  [" << d.id << "] " << d.description;
  }
  return os.str();
}

void AnalysisArtifacts::write_json(std::ostream& os) const {
  os << "{\n  \"signature\": \"" << std::hex << signature << std::dec
     << "\",\n  \"blocks\": [";
  for (std::uint32_t bi = 0; bi < cfg.blocks.size(); ++bi) {
    const BasicBlock& b = cfg.blocks[bi];
    const BlockFacts& f = facts[bi];
    os << (bi == 0 ? "\n" : ",\n") << "    {\"first\": " << b.first
       << ", \"last\": " << b.last << ", \"function\": ";
    obs::write_json_string(os, program.symbol_at(b.first));
    os << ", \"reachable\": " << (f.reachable ? "true" : "false")
       << ", \"stack_in\": ";
    if (f.stack_in == kDepthUnknown) os << "null";
    else os << f.stack_in;
    os << ", \"idom\": ";
    if (f.idom == kNoBlock) os << "null";
    else os << f.idom;
    os << ", \"accept_any\": " << (b.accept_any_succ ? "true" : "false")
       << ", \"signature\": \"" << std::hex << b.signature << std::dec
       << "\", \"succs\": [";
    for (std::size_t i = 0; i < b.succs.size(); ++i) {
      os << (i ? ", " : "") << b.succs[i];
    }
    os << "]}";
  }
  os << "\n  ],\n  \"derived_assertions\": [";
  for (std::size_t i = 0; i < derived.size(); ++i) {
    const DerivedAssertion& d = derived[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << d.id
       << ", \"addr\": " << d.addr << ", \"reg\": ";
    obs::write_json_string(os, sim::reg_name(static_cast<sim::Reg>(d.reg)));
    os << ", \"lo\": " << d.lo << ", \"hi\": " << d.hi
       << ", \"description\": ";
    obs::write_json_string(os, d.description);
    os << "}";
  }
  os << "\n  ],\n  \"stack_warnings\": [";
  for (std::size_t i = 0; i < stack_warnings.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"addr\": "
       << stack_warnings[i].addr << ", \"what\": ";
    obs::write_json_string(os, stack_warnings[i].what);
    os << "}";
  }
  os << "\n  ],\n  \"verifier_issues\": [";
  for (std::size_t i = 0; i < verifier.issues.size(); ++i) {
    const sim::VerifierIssue& issue = verifier.issues[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"kind\": ";
    obs::write_json_string(os, sim::issue_kind_name(issue.kind));
    os << ", \"addr\": " << issue.addr << ", \"target\": " << issue.target
       << ", \"detail\": ";
    obs::write_json_string(os, issue.detail);
    os << "}";
  }
  os << "\n  ],\n  \"bit_liveness\": ";
  if (vuln.empty()) {
    os << "null";
  } else {
    std::uint64_t total_live = 0;
    for (std::uint16_t bits : vuln.live_bits) total_live += bits;
    os << "{\"slots\": " << vuln.live.size() << ", \"live_bits\": "
       << total_live << ", \"total_bits\": "
       << vuln.live.size() * sim::kNumArchRegs * sim::kBitsPerReg
       << ", \"masked_fraction\": " << vuln.masked_fraction() << "}";
  }
  os << ",\n  \"timing_envelopes\": [";
  {
    std::size_t i = 0;
    for (const auto& [addr, env] : timing.by_entry) {
      os << (i++ == 0 ? "\n" : ",\n") << "    {\"entry\": " << addr
         << ", \"function\": ";
      obs::write_json_string(os, program.symbol_at(addr));
      os << ", \"valid\": " << (env.valid ? "true" : "false");
      for (int c = 0; c < kNumClocks; ++c) {
        os << ", \"" << clock_name(c) << "\": [" << env.clocks[c].lo << ", "
           << env.clocks[c].hi << "]";
      }
      os << "}";
    }
  }
  os << "\n  ],\n  \"timing_model\": {\"base_cycles\": "
     << timing.model.base_cycles << ", \"branch_extra\": "
     << timing.model.branch_extra << ", \"load_extra\": "
     << timing.model.load_extra << ", \"store_extra\": "
     << timing.model.store_extra << "}";
  os << ",\n  \"stats\": {\"instructions\": " << verifier.instructions
     << ", \"padding\": " << verifier.padding << ", \"branches\": "
     << verifier.branches << ", \"indirect_jumps\": "
     << verifier.indirect_jumps << ", \"assertions\": "
     << verifier.assertions << ", \"num_blocks\": " << cfg.blocks.size()
     << ", \"reachable_blocks\": " << reachable_blocks() << "}\n}\n";
}

AnalysisArtifacts analyze_program(const Program& program,
                                  const AnalyzeOptions& options) {
  AnalysisArtifacts art;
  art.program = program;
  art.signature = program_signature(program);
  art.cfg = build_cfg(program, options.cfg);
  DataflowResult df = run_dataflow(program, art.cfg);
  art.facts = std::move(df.facts);
  art.block_in = std::move(df.in_state);
  art.stack_warnings = std::move(df.stack_warnings);
  derive_assertions(program, art, options.max_derived);
  for (std::size_t i = 0; i < art.derived.size(); ++i) {
    art.derived[i].id = kDerivedAssertBase + static_cast<std::uint32_t>(i);
  }
  art.vuln = compute_bit_liveness(program, art.cfg, art.derived);
  art.timing = compute_timing_envelopes(program, art.cfg);
  art.verifier = verify_with_cfg(program, art.cfg, art.facts, options.verifier);
  return art;
}

}  // namespace xentry::analysis
