#include "analysis/timing.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <vector>

#include "analysis/dataflow.hpp"
#include "sim/isa.hpp"

namespace xentry::analysis {

namespace {

using sim::Addr;
using sim::Instruction;
using sim::Opcode;
using sim::Program;
using sim::Reg;

/// Iteration cap: a loop whose inferred bound exceeds this is treated as
/// unbounded (the envelope would be too loose to ever fire anyway).
constexpr std::int64_t kMaxTrips = 1 << 16;

/// Saturation sentinel for cost arithmetic.  Any channel that saturates
/// is reported non-finite and the envelope is withheld — saturation can
/// only ever widen toward "no claim", never toward an unsound bound.
constexpr std::int64_t kCostInf = std::int64_t{1} << 56;

/// Lattice ascents per (node, register) before the local interval
/// analysis widens that register.  Counted per register — a loop counter's
/// interval strictly grows at most bound+2 times no matter how many paths
/// interleave, so per-register counting keeps diamonds inside a loop from
/// double-counting ascents and widening the counter before it converges.
/// The threshold sits above the largest legitimate climb (the andi-0x7f
/// batch loops count up to 127).
constexpr int kWidenThreshold = 160;

constexpr unsigned kGprs = static_cast<unsigned>(sim::kNumGprs);

unsigned gpr(Reg r) { return static_cast<unsigned>(r); }

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r) || r >= kCostInf) return kCostInf;
  return r;
}

std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r) || r >= kCostInf) return kCostInf;
  return r;
}

/// One value per clock; the unit of all cost propagation.
struct CostVec {
  std::int64_t v[kNumClocks] = {};

  static CostVec zero() { return {}; }
  static CostVec inf() {
    CostVec c;
    for (std::int64_t& x : c.v) x = kCostInf;
    return c;
  }
  bool is_inf() const {
    for (std::int64_t x : v) {
      if (x >= kCostInf) return true;
    }
    return false;
  }
};

CostVec vec_add(const CostVec& a, const CostVec& b) {
  CostVec r;
  for (int i = 0; i < kNumClocks; ++i) r.v[i] = sat_add(a.v[i], b.v[i]);
  return r;
}

CostVec vec_scale(const CostVec& a, std::int64_t n) {
  CostVec r;
  for (int i = 0; i < kNumClocks; ++i) r.v[i] = sat_mul(a.v[i], n);
  return r;
}

CostVec vec_max(const CostVec& a, const CostVec& b) {
  CostVec r;
  for (int i = 0; i < kNumClocks; ++i) r.v[i] = std::max(a.v[i], b.v[i]);
  return r;
}

CostVec vec_min(const CostVec& a, const CostVec& b) {
  CostVec r;
  for (int i = 0; i < kNumClocks; ++i) r.v[i] = std::min(a.v[i], b.v[i]);
  return r;
}

bool vec_less(const CostVec& a, const CostVec& b) {
  for (int i = 0; i < kNumClocks; ++i) {
    if (a.v[i] < b.v[i]) return true;
  }
  return false;
}

CostVec cost_of_insn(const TimingCostModel& model, const Instruction& insn) {
  CostVec c;
  if (insn.op == Opcode::Hlt) return c;  // the gate does not retire
  c.v[kClockCycles] = model.cost_of(insn.op);
  c.v[kClockInsts] = 1;
  c.v[kClockBranches] = sim::is_branch(insn.op) ? 1 : 0;
  c.v[kClockLoads] = sim::is_mem_load(insn.op) ? 1 : 0;
  c.v[kClockStores] = sim::is_mem_store(insn.op) ? 1 : 0;
  return c;
}

/// [min, max] cost range of one exit channel of a function summary.
struct Channel {
  bool reachable = false;
  CostVec lo = CostVec::inf();
  CostVec hi = CostVec::zero();
};

void channel_join(Channel& c, const CostVec& lo, const CostVec& hi) {
  c.lo = c.reachable ? vec_min(c.lo, lo) : lo;
  c.hi = c.reachable ? vec_max(c.hi, hi) : hi;
  c.reachable = true;
}

struct Summary {
  bool valid = false;
  Channel ret;       ///< entry -> Ret (inclusive of the Ret itself)
  Channel gate;      ///< entry -> Hlt
  std::uint32_t clobber = 0;  ///< regs possibly written, callees included
};

// ---------------------------------------------------------------------------
// Function structure
// ---------------------------------------------------------------------------

struct LocalEdge {
  std::uint32_t to = 0;               ///< local node index
  std::vector<Addr> call_targets;     ///< non-empty: call-return edge
  bool back = false;                  ///< dominator back edge (to a header)
  // Resolved per-edge cost contribution (callee Return range); zero for
  // plain edges.  Filled during summarization.
  CostVec lo = CostVec::zero();
  CostVec hi = CostVec::zero();
  std::uint32_t kill = 0;             ///< regs clobbered crossing this edge
};

struct ExitSite {
  std::uint32_t node = 0;
  bool has_tail = false;   ///< composes the channels of `tail_target`
  Addr tail_target = 0;
  bool to_gate = false;    ///< own Hlt (valid when !has_tail)
  bool is_ret = false;     ///< own Ret (valid when !has_tail)
  // Extra cost beyond the node distance (callee Gate range for calls into
  // never-returning functions; tail-target channel ranges).
  CostVec extra_lo = CostVec::zero();
  CostVec extra_hi = CostVec::zero();
  bool gate_channel = false;  ///< resolved channel this site feeds
};

struct LocalFn {
  Addr entry = 0;
  Addr end = 0;  ///< exclusive
  std::vector<std::uint32_t> blocks;       ///< global block ids; [0] = entry
  std::map<std::uint32_t, std::uint32_t> local_of;
  std::vector<std::vector<LocalEdge>> succs;
  std::vector<CostVec> block_cost;
  std::vector<ExitSite> exits;             ///< unresolved exit shapes
  std::vector<Addr> callees;               ///< for summarization order
  bool structure_ok = true;
  Summary summary;
};

/// Whole-program analysis state.
class TimingAnalyzer {
 public:
  TimingAnalyzer(const Program& program, const ControlFlowGraph& cfg,
                 const TimingCostModel& model)
      : program_(program), cfg_(cfg), model_(model) {}

  TimingEnvelopes run() {
    TimingEnvelopes out;
    out.model = model_;
    collect_functions();
    for (auto& [entry, fn] : fns_) build_structure(fn);
    for (auto& [entry, fn] : fns_) summarize(entry);
    for (auto& [entry, fn] : fns_) {
      const Summary& s = fn.summary;
      if (!s.valid || !s.gate.reachable) continue;
      TimingEnvelope env;
      env.valid = !s.gate.hi.is_inf();
      if (!env.valid) continue;
      for (int c = 0; c < kNumClocks; ++c) {
        env.clocks[c] = {s.gate.lo.v[c], s.gate.hi.v[c]};
      }
      out.by_entry.emplace(entry, env);
    }
    return out;
  }

 private:
  const Program& program_;
  const ControlFlowGraph& cfg_;
  const TimingCostModel& model_;
  std::map<Addr, LocalFn> fns_;
  std::vector<Addr> fn_entries_;  ///< sorted
  enum class State : std::uint8_t { Fresh, InProgress, Done };
  std::map<Addr, State> state_;

  Addr fn_entry_of(Addr a) const {
    auto it = std::upper_bound(fn_entries_.begin(), fn_entries_.end(), a);
    if (it == fn_entries_.begin()) return 0;
    return *(it - 1);
  }

  void collect_functions() {
    for (const auto& [name, addr] : program_.symbols()) {
      fn_entries_.push_back(addr);
    }
    std::sort(fn_entries_.begin(), fn_entries_.end());
    fn_entries_.erase(std::unique(fn_entries_.begin(), fn_entries_.end()),
                      fn_entries_.end());
    if (fn_entries_.empty() && !cfg_.blocks.empty()) {
      fn_entries_.push_back(cfg_.blocks.front().first);
    }
    for (std::size_t i = 0; i < fn_entries_.size(); ++i) {
      LocalFn fn;
      fn.entry = fn_entries_[i];
      fn.end = i + 1 < fn_entries_.size()
                   ? fn_entries_[i + 1]
                   : static_cast<Addr>(cfg_.base + cfg_.code_size);
      fns_.emplace(fn.entry, std::move(fn));
      state_.emplace(fn_entries_[i], State::Fresh);
    }
    for (std::uint32_t bi = 0; bi < cfg_.blocks.size(); ++bi) {
      const Addr first = cfg_.blocks[bi].first;
      const Addr fe = fn_entry_of(first);
      auto it = fns_.find(fe);
      if (it != fns_.end() && first < it->second.end) {
        it->second.blocks.push_back(bi);
      }
    }
    // The entry block must exist and lead the list (blocks arrive sorted
    // by address, and the entry address is the region's first slot).
    for (auto& [entry, fn] : fns_) {
      for (std::uint32_t i = 0; i < fn.blocks.size(); ++i) {
        fn.local_of.emplace(fn.blocks[i], i);
      }
      if (fn.blocks.empty() || cfg_.blocks[fn.blocks[0]].first != entry) {
        fn.structure_ok = false;
      }
    }
  }

  /// Local node index of the block starting at `a`, or kNoBlock.
  std::uint32_t local_at(const LocalFn& fn, Addr a) const {
    const std::uint32_t bi = cfg_.block_at(a);
    if (bi == kNoBlock) return kNoBlock;
    auto it = fn.local_of.find(bi);
    if (it == fn.local_of.end() || cfg_.blocks[bi].first != a) return kNoBlock;
    return it->second;
  }

  void add_callee(LocalFn& fn, Addr target) {
    if (std::find(fn.callees.begin(), fn.callees.end(), target) ==
        fn.callees.end()) {
      fn.callees.push_back(target);
    }
  }

  void build_structure(LocalFn& fn) {
    if (!fn.structure_ok) return;
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    fn.succs.assign(n, {});
    fn.block_cost.assign(n, CostVec::zero());
    for (std::uint32_t li = 0; li < n; ++li) {
      const BasicBlock& b = cfg_.blocks[fn.blocks[li]];
      for (Addr a = b.first; a <= b.last; ++a) {
        fn.block_cost[li] =
            vec_add(fn.block_cost[li], cost_of_insn(model_, program_.at(a)));
      }
      const Instruction& term = program_.at(b.last);
      const auto local_edge = [&](Addr target) {
        const std::uint32_t t = local_at(fn, target);
        if (t == kNoBlock) {
          // A branch into another function: legal only onto its entry
          // (a tail jump); anything else defeats the summary model.
          const Addr fe = fn_entry_of(target);
          if (target == fe && fns_.count(fe) != 0 && fe != fn.entry) {
            ExitSite e;
            e.node = li;
            e.has_tail = true;
            e.tail_target = fe;
            fn.exits.push_back(e);
            add_callee(fn, fe);
          } else {
            fn.structure_ok = false;
          }
          return;
        }
        fn.succs[li].push_back(LocalEdge{t, {}, false, {}, {}, 0});
      };
      switch (term.op) {
        case Opcode::Hlt: {
          ExitSite e;
          e.node = li;
          e.to_gate = true;
          fn.exits.push_back(e);
          break;
        }
        case Opcode::Ret: {
          ExitSite e;
          e.node = li;
          e.is_ret = true;
          fn.exits.push_back(e);
          break;
        }
        case Opcode::Jmp:
          local_edge(static_cast<Addr>(term.imm));
          break;
        case Opcode::Call: {
          const auto target = static_cast<Addr>(term.imm);
          if (fns_.count(target) == 0) {
            fn.structure_ok = false;
            break;
          }
          const std::uint32_t cont = local_at(fn, b.last + 1);
          if (cont == kNoBlock) {
            fn.structure_ok = false;
            break;
          }
          fn.succs[li].push_back(LocalEdge{cont, {target}, false, {}, {}, 0});
          add_callee(fn, target);
          break;
        }
        case Opcode::JmpR: {
          if (b.accept_any_succ) {
            fn.structure_ok = false;
            break;
          }
          // The manual indirect-call pattern: targets were resolved into
          // the CFG's successor set; control resumes at the materialized
          // return address, which is the next slot.
          std::vector<Addr> targets;
          for (std::uint32_t si : b.succs) {
            const Addr t = cfg_.blocks[si].first;
            if (fns_.count(t) == 0) {
              fn.structure_ok = false;
              break;
            }
            targets.push_back(t);
            add_callee(fn, t);
          }
          const std::uint32_t cont = local_at(fn, b.last + 1);
          if (!fn.structure_ok || targets.empty() || cont == kNoBlock) {
            fn.structure_ok = false;
            break;
          }
          fn.succs[li].push_back(
              LocalEdge{cont, std::move(targets), false, {}, {}, 0});
          break;
        }
        default: {
          if (sim::is_cond_branch(term.op)) {
            local_edge(static_cast<Addr>(term.imm));
            local_edge(b.last + 1);
          } else {
            // Plain fall-through into the next leader.
            if (b.falls_into_padding) {
              fn.structure_ok = false;
            } else {
              local_edge(b.last + 1);
            }
          }
          break;
        }
      }
      if (b.has_illegal_target) fn.structure_ok = false;
    }
  }

  void summarize(Addr entry) {
    auto st = state_.find(entry);
    if (st == state_.end() || st->second == State::Done) return;
    if (st->second == State::InProgress) {
      // Recursion: leave the summary invalid.
      return;
    }
    st->second = State::InProgress;
    LocalFn& fn = fns_.at(entry);
    for (Addr callee : fn.callees) summarize(callee);
    compute_summary(fn);
    st->second = State::Done;
  }

  // ---- per-function analysis ----------------------------------------------

  void compute_summary(LocalFn& fn) {
    fn.summary = Summary{};
    if (!fn.structure_ok) return;
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());

    // Resolve call edges and exit sites against callee summaries.
    std::vector<ExitSite> exits;  // resolved, channel-tagged
    for (std::uint32_t li = 0; li < n; ++li) {
      for (LocalEdge& e : fn.succs[li]) {
        if (e.call_targets.empty()) continue;
        bool returns = false;
        CostVec lo = CostVec::inf(), hi = CostVec::zero();
        bool gate = false;
        CostVec glo = CostVec::inf(), ghi = CostVec::zero();
        for (Addr t : e.call_targets) {
          const Summary& cs = fns_.at(t).summary;
          if (!cs.valid) return;  // fn stays invalid
          e.kill |= cs.clobber;
          if (cs.ret.reachable) {
            returns = true;
            lo = vec_min(lo, cs.ret.lo);
            hi = vec_max(hi, cs.ret.hi);
          }
          if (cs.gate.reachable) {
            gate = true;
            glo = vec_min(glo, cs.gate.lo);
            ghi = vec_max(ghi, cs.gate.hi);
          }
        }
        if (gate) {
          ExitSite g;
          g.node = li;
          g.gate_channel = true;
          g.extra_lo = glo;
          g.extra_hi = ghi;
          exits.push_back(g);
        }
        if (!returns) {
          // The callee never returns: the continuation edge is dead.
          e.to = kNoBlock;
          continue;
        }
        e.lo = lo;
        e.hi = hi;
      }
      fn.succs[li].erase(
          std::remove_if(fn.succs[li].begin(), fn.succs[li].end(),
                         [](const LocalEdge& e) { return e.to == kNoBlock; }),
          fn.succs[li].end());
    }
    for (const ExitSite& e : fn.exits) {
      if (e.has_tail) {
        const Summary& ts = fns_.at(e.tail_target).summary;
        if (!ts.valid) return;
        if (ts.gate.reachable) {
          ExitSite g = e;
          g.gate_channel = true;
          g.extra_lo = ts.gate.lo;
          g.extra_hi = ts.gate.hi;
          exits.push_back(g);
        }
        if (ts.ret.reachable) {
          ExitSite r = e;
          r.gate_channel = false;
          r.extra_lo = ts.ret.lo;
          r.extra_hi = ts.ret.hi;
          exits.push_back(r);
        }
      } else {
        ExitSite r = e;
        r.gate_channel = e.to_gate;
        exits.push_back(r);
      }
    }

    // Reachability from the entry node.
    std::vector<bool> reach(n, false);
    {
      std::deque<std::uint32_t> work{0};
      reach[0] = true;
      while (!work.empty()) {
        const std::uint32_t u = work.front();
        work.pop_front();
        for (const LocalEdge& e : fn.succs[u]) {
          if (!reach[e.to]) {
            reach[e.to] = true;
            work.push_back(e.to);
          }
        }
      }
    }

    // Clobber set: everything written in reachable blocks + callees.
    std::uint32_t clobber = 0;
    for (std::uint32_t li = 0; li < n; ++li) {
      if (!reach[li]) continue;
      const BasicBlock& b = cfg_.blocks[fn.blocks[li]];
      for (Addr a = b.first; a <= b.last; ++a) {
        clobber |= sim::regs_written(program_.at(a));
      }
      for (const LocalEdge& e : fn.succs[li]) clobber |= e.kill;
    }

    // Local interval analysis (loop-bound substrate).
    std::vector<RegState> in_state(n);
    std::vector<bool> in_valid(n, false);
    run_local_intervals(fn, reach, in_state, in_valid);

    // Dominators + loops on the reachable local graph.
    std::vector<std::uint32_t> idom;
    if (!compute_local_dominators(fn, reach, idom)) return;
    std::vector<CostVec> supplement(n, CostVec::zero());
    if (!bound_loops(fn, reach, idom, in_state, in_valid, supplement)) return;

    // WCET: longest path on the reduced DAG with loop supplements.
    std::vector<std::uint32_t> topo;
    if (!topo_order_reduced(fn, reach, topo)) return;
    std::vector<CostVec> hi(n, CostVec::zero());
    std::vector<bool> hi_valid(n, false);
    for (std::uint32_t u : topo) {
      if (u == 0) {
        hi[0] = vec_add(fn.block_cost[0], supplement[0]);
        hi_valid[0] = true;
      }
      if (!hi_valid[u]) continue;
      for (const LocalEdge& e : fn.succs[u]) {
        if (e.back) continue;
        const CostVec cand = vec_add(
            vec_add(hi[u], e.hi),
            vec_add(fn.block_cost[e.to], supplement[e.to]));
        hi[e.to] = hi_valid[e.to] ? vec_max(hi[e.to], cand) : cand;
        hi_valid[e.to] = true;
      }
    }

    // BCET: component-wise shortest distances on the full graph.
    std::vector<CostVec> lo(n, CostVec::inf());
    std::vector<bool> lo_valid(n, false);
    {
      std::deque<std::uint32_t> work{0};
      std::vector<bool> queued(n, false);
      lo[0] = fn.block_cost[0];
      lo_valid[0] = true;
      queued[0] = true;
      while (!work.empty()) {
        const std::uint32_t u = work.front();
        work.pop_front();
        queued[u] = false;
        for (const LocalEdge& e : fn.succs[u]) {
          const CostVec cand =
              vec_add(vec_add(lo[u], e.lo), fn.block_cost[e.to]);
          if (!lo_valid[e.to] || vec_less(cand, lo[e.to])) {
            lo[e.to] = lo_valid[e.to] ? vec_min(lo[e.to], cand) : cand;
            lo_valid[e.to] = true;
            if (!queued[e.to]) {
              work.push_back(e.to);
              queued[e.to] = true;
            }
          }
        }
      }
    }

    Summary s;
    for (const ExitSite& e : exits) {
      if (!reach[e.node] || !hi_valid[e.node] || !lo_valid[e.node]) continue;
      const CostVec site_lo = vec_add(lo[e.node], e.extra_lo);
      const CostVec site_hi = vec_add(hi[e.node], e.extra_hi);
      channel_join(e.gate_channel ? s.gate : s.ret, site_lo, site_hi);
    }
    s.clobber = clobber;
    s.valid = true;
    fn.summary = s;
  }

  void run_local_intervals(const LocalFn& fn, const std::vector<bool>& reach,
                           std::vector<RegState>& in_state,
                           std::vector<bool>& in_valid) {
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    std::vector<std::array<std::uint16_t, sim::kNumGprs>> ascents(n);
    for (auto& a : ascents) a.fill(0);
    std::deque<std::uint32_t> work{0};
    std::vector<bool> queued(n, false);
    in_state[0].fill(Interval::top());
    in_valid[0] = true;
    queued[0] = true;
    while (!work.empty()) {
      const std::uint32_t u = work.front();
      work.pop_front();
      queued[u] = false;
      if (!reach[u]) continue;
      const BasicBlock& b = cfg_.blocks[fn.blocks[u]];
      RegState out = in_state[u];
      for (Addr a = b.first; a <= b.last; ++a) {
        apply_instruction(program_.at(a), out);
      }
      for (const LocalEdge& e : fn.succs[u]) {
        RegState edge = out;
        if (!e.call_targets.empty()) {
          // Balanced callee: the return-address push/pop cancels; the
          // Call's own rsp decrement (already applied) is undone by the
          // callee's Ret.
          edge[gpr(Reg::rsp)] =
              interval_add(edge[gpr(Reg::rsp)], Interval::exact(1));
          for (unsigned r = 0; r < kGprs; ++r) {
            if (r == gpr(Reg::rsp)) continue;
            if ((e.kill & (1u << r)) != 0) edge[r] = Interval::top();
          }
        } else {
          refine_edge(program_, b, cfg_.blocks[fn.blocks[e.to]].first, edge);
        }
        bool infeasible = false;
        for (const Interval& v : edge) infeasible |= v.is_empty();
        if (infeasible) continue;
        RegState& tin = in_state[e.to];
        bool changed = false;
        if (!in_valid[e.to]) {
          tin = edge;
          in_valid[e.to] = true;
          changed = true;
        } else {
          for (unsigned r = 0; r < kGprs; ++r) {
            Interval j = interval_join(tin[r], edge[r]);
            if (j == tin[r]) continue;
            if (++ascents[e.to][r] >= kWidenThreshold) {
              if (j.lo < tin[r].lo) j.lo = Interval::kMin;
              if (j.hi > tin[r].hi) j.hi = Interval::kMax;
            }
            tin[r] = j;
            changed = true;
          }
        }
        if (changed && !queued[e.to]) {
          work.push_back(e.to);
          queued[e.to] = true;
        }
      }
    }
  }

  /// Iterative dominators over the reachable local graph (root = node 0).
  /// Returns false when the entry is missing.
  bool compute_local_dominators(const LocalFn& fn,
                                const std::vector<bool>& reach,
                                std::vector<std::uint32_t>& idom) {
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    idom.assign(n, kNoBlock);
    std::vector<std::vector<std::uint32_t>> preds(n);
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!reach[u]) continue;
      for (const LocalEdge& e : fn.succs[u]) preds[e.to].push_back(u);
    }
    // Reverse postorder.
    std::vector<std::uint32_t> po_num(n, kNoBlock);
    std::vector<std::uint32_t> rpo;
    {
      std::vector<std::uint8_t> seen(n, 0);
      std::vector<std::pair<std::uint32_t, std::size_t>> stack{{0u, 0u}};
      seen[0] = 1;
      std::vector<std::uint32_t> postorder;
      while (!stack.empty()) {
        auto& [u, i] = stack.back();
        if (i < fn.succs[u].size()) {
          const std::uint32_t s = fn.succs[u][i++].to;
          if (seen[s] == 0) {
            seen[s] = 1;
            stack.emplace_back(s, 0);
          }
        } else {
          postorder.push_back(u);
          stack.pop_back();
        }
      }
      for (std::uint32_t i = 0; i < postorder.size(); ++i) {
        po_num[postorder[i]] = i;
      }
      rpo.assign(postorder.rbegin(), postorder.rend());
    }
    idom[0] = 0;
    auto intersect = [&](std::uint32_t a, std::uint32_t b) {
      while (a != b) {
        while (po_num[a] < po_num[b]) a = idom[a];
        while (po_num[b] < po_num[a]) b = idom[b];
      }
      return a;
    };
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t u : rpo) {
        if (u == 0) continue;
        std::uint32_t nd = kNoBlock;
        for (std::uint32_t p : preds[u]) {
          if (po_num[p] == kNoBlock || idom[p] == kNoBlock) continue;
          nd = nd == kNoBlock ? p : intersect(nd, p);
        }
        if (nd != kNoBlock && idom[u] != nd) {
          idom[u] = nd;
          changed = true;
        }
      }
    }
    return true;
  }

  bool dominates(const std::vector<std::uint32_t>& idom, std::uint32_t a,
                 std::uint32_t b) const {
    // Walks b's dominator chain; the local graphs are small.
    while (true) {
      if (a == b) return true;
      if (b == 0 || idom[b] == kNoBlock || idom[b] == b) return a == b;
      b = idom[b];
    }
  }

  /// Finds natural loops, infers trip bounds, marks back edges and fills
  /// per-header supplements.  False when any reachable loop is unbounded
  /// or the graph is irreducible.
  bool bound_loops(LocalFn& fn, const std::vector<bool>& reach,
                   const std::vector<std::uint32_t>& idom,
                   const std::vector<RegState>& in_state,
                   const std::vector<bool>& in_valid,
                   std::vector<CostVec>& supplement) {
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    struct Loop {
      std::uint32_t header = 0;
      std::vector<std::uint32_t> latches;
      std::vector<bool> body;  ///< membership
      std::size_t size = 0;
    };
    std::map<std::uint32_t, Loop> loops;  // header -> loop
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!reach[u]) continue;
      for (LocalEdge& e : fn.succs[u]) {
        if (!dominates(idom, e.to, u)) continue;
        e.back = true;
        Loop& L = loops[e.to];
        L.header = e.to;
        L.latches.push_back(u);
        if (L.body.empty()) L.body.assign(n, false);
        // Natural loop: everything that reaches the latch without going
        // through the header.
        L.body[e.to] = true;
        std::deque<std::uint32_t> work;
        if (!L.body[u]) {
          L.body[u] = true;
          work.push_back(u);
        }
        std::vector<std::vector<std::uint32_t>> preds(n);
        for (std::uint32_t x = 0; x < n; ++x) {
          if (!reach[x]) continue;
          for (const LocalEdge& pe : fn.succs[x]) preds[pe.to].push_back(x);
        }
        while (!work.empty()) {
          const std::uint32_t y = work.front();
          work.pop_front();
          for (std::uint32_t p : preds[y]) {
            if (!L.body[p]) {
              L.body[p] = true;
              work.push_back(p);
            }
          }
        }
      }
    }
    // Irreducible flow: a retreating edge that is not a back edge shows up
    // as a cycle in the reduced graph; topo_order_reduced catches it.
    for (auto& [h, L] : loops) {
      L.size = static_cast<std::size_t>(
          std::count(L.body.begin(), L.body.end(), true));
    }
    // Innermost first (smaller bodies are subsets of enclosing bodies).
    std::vector<Loop*> order;
    for (auto& [h, L] : loops) order.push_back(&L);
    std::sort(order.begin(), order.end(),
              [](const Loop* a, const Loop* b) { return a->size < b->size; });

    for (Loop* Lp : order) {
      const Loop& L = *Lp;
      const std::int64_t trips =
          infer_trip_bound(fn, L.header, L.body, L.latches, idom, in_state,
                           in_valid);
      if (trips < 0) return false;
      // Longest header->latch path inside the loop's reduced subgraph,
      // with inner-loop supplements already folded into node weights.
      std::vector<std::uint32_t> topo;
      if (!topo_order_subgraph(fn, L.body, L.header, topo)) return false;
      std::vector<CostVec> dist(n, CostVec::zero());
      std::vector<bool> valid(n, false);
      dist[L.header] =
          vec_add(fn.block_cost[L.header], supplement[L.header]);
      valid[L.header] = true;
      for (std::uint32_t u : topo) {
        if (!valid[u]) continue;
        for (const LocalEdge& e : fn.succs[u]) {
          if (e.back || !L.body[e.to]) continue;
          const CostVec cand = vec_add(
              vec_add(dist[u], e.hi),
              vec_add(fn.block_cost[e.to], supplement[e.to]));
          dist[e.to] = valid[e.to] ? vec_max(dist[e.to], cand) : cand;
          valid[e.to] = true;
        }
      }
      CostVec one_iter = CostVec::zero();
      bool any_latch = false;
      for (std::uint32_t latch : L.latches) {
        if (!valid[latch]) continue;
        any_latch = true;
        one_iter = vec_max(one_iter, dist[latch]);
      }
      if (!any_latch) return false;
      supplement[L.header] =
          vec_add(supplement[L.header], vec_scale(one_iter, trips));
    }
    return true;
  }

  /// Sound trip-count bound for one natural loop, or -1 when none can be
  /// proven.  Rule: a register with exactly one writing instruction in
  /// the loop, stepping by a nonzero constant, whose block dominates
  /// every latch, and whose interval at the loop-body entry (the refined
  /// header->body edges) is finite, bounds the number of body entries by
  /// interval width / |step| + 1 — the values at successive entries are
  /// distinct, monotone, and confined to the interval.
  std::int64_t infer_trip_bound(const LocalFn& fn, std::uint32_t header,
                                const std::vector<bool>& body,
                                const std::vector<std::uint32_t>& latches,
                                const std::vector<std::uint32_t>& idom,
                                const std::vector<RegState>& in_state,
                                const std::vector<bool>& in_valid) {
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    if (!in_valid[header]) return -1;
    // Per-register: writer count, step, writer block; call-edge kills
    // count as unmodelled writers.
    struct Cand {
      int writers = 0;
      std::int64_t step = 0;
      std::uint32_t block = 0;
    };
    Cand cands[kGprs];
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!body[u]) continue;
      const BasicBlock& b = cfg_.blocks[fn.blocks[u]];
      for (Addr a = b.first; a <= b.last; ++a) {
        const Instruction& insn = program_.at(a);
        const std::uint32_t w = sim::regs_written(insn);
        for (unsigned r = 0; r < kGprs; ++r) {
          if ((w & (1u << r)) == 0) continue;
          Cand& c = cands[r];
          ++c.writers;
          c.block = u;
          switch (insn.op) {
            case Opcode::Inc: c.step = 1; break;
            case Opcode::Dec: c.step = -1; break;
            case Opcode::AddRI: c.step = insn.imm; break;
            case Opcode::SubRI: c.step = -insn.imm; break;
            default: c.step = 0; break;
          }
          if (insn.r1 != static_cast<Reg>(r)) c.step = 0;  // implicit write
        }
      }
      for (const LocalEdge& e : fn.succs[u]) {
        if (e.call_targets.empty() || !body[e.to]) continue;
        for (unsigned r = 0; r < kGprs; ++r) {
          if ((e.kill & (1u << r)) != 0) cands[r].writers += 2;
        }
      }
    }
    // Refined intervals at the loop-body entry edges.
    RegState body_in{};
    bool body_in_valid = false;
    {
      const BasicBlock& hb = cfg_.blocks[fn.blocks[header]];
      RegState out = in_state[header];
      for (Addr a = hb.first; a <= hb.last; ++a) {
        apply_instruction(program_.at(a), out);
      }
      // Every loop cycle traverses exactly one header->body edge; for a
      // self-loop (header == latch) that edge is the back edge itself, so
      // back edges participate in the join.
      for (const LocalEdge& e : fn.succs[header]) {
        if (!body[e.to]) continue;
        RegState edge = out;
        if (e.call_targets.empty()) {
          refine_edge(program_, hb, cfg_.blocks[fn.blocks[e.to]].first, edge);
        } else {
          edge[gpr(Reg::rsp)] =
              interval_add(edge[gpr(Reg::rsp)], Interval::exact(1));
          for (unsigned r = 0; r < kGprs; ++r) {
            if (r != gpr(Reg::rsp) && (e.kill & (1u << r)) != 0) {
              edge[r] = Interval::top();
            }
          }
        }
        if (!body_in_valid) {
          body_in = edge;
          body_in_valid = true;
        } else {
          for (unsigned r = 0; r < kGprs; ++r) {
            body_in[r] = interval_join(body_in[r], edge[r]);
          }
        }
      }
    }
    if (!body_in_valid) {
      // The header never enters the body (degenerate); zero iterations.
      return 0;
    }
    std::int64_t best = -1;
    for (unsigned r = 0; r < kGprs; ++r) {
      if (r == gpr(Reg::rsp)) continue;
      const Cand& c = cands[r];
      if (c.writers != 1 || c.step == 0) continue;
      bool dom_all = true;
      for (std::uint32_t latch : latches) {
        if (!dominates(idom, c.block, latch)) dom_all = false;
      }
      if (!dom_all) continue;
      const Interval iv = body_in[r];
      if (iv.is_empty() || iv.lo == Interval::kMin ||
          iv.hi == Interval::kMax || iv.lo > iv.hi) {
        continue;
      }
      const std::int64_t step =
          c.step == Interval::kMin ? Interval::kMax : std::llabs(c.step);
      const std::int64_t width = iv.hi - iv.lo;  // both finite, no overflow
      const std::int64_t trips = width / step + 1;
      if (trips > kMaxTrips) continue;
      best = best < 0 ? trips : std::min(best, trips);
    }
    return best;
  }

  /// Topological order of the reduced (back edges removed) local graph.
  /// False when a cycle remains (irreducible flow).
  bool topo_order_reduced(const LocalFn& fn, const std::vector<bool>& reach,
                          std::vector<std::uint32_t>& topo) {
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    std::vector<int> indeg(n, 0);
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!reach[u]) continue;
      for (const LocalEdge& e : fn.succs[u]) {
        if (!e.back && reach[e.to]) ++indeg[e.to];
      }
    }
    std::deque<std::uint32_t> ready;
    std::size_t reachable = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!reach[u]) continue;
      ++reachable;
      if (indeg[u] == 0) ready.push_back(u);
    }
    topo.clear();
    while (!ready.empty()) {
      const std::uint32_t u = ready.front();
      ready.pop_front();
      topo.push_back(u);
      for (const LocalEdge& e : fn.succs[u]) {
        if (e.back || !reach[e.to]) continue;
        if (--indeg[e.to] == 0) ready.push_back(e.to);
      }
    }
    return topo.size() == reachable;
  }

  /// Topological order within one loop body (back edges removed), rooted
  /// at the header.  False on a residual cycle (irreducible inner flow).
  bool topo_order_subgraph(const LocalFn& fn, const std::vector<bool>& body,
                           std::uint32_t header,
                           std::vector<std::uint32_t>& topo) {
    const auto n = static_cast<std::uint32_t>(fn.blocks.size());
    std::vector<int> indeg(n, 0);
    std::size_t members = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!body[u]) continue;
      ++members;
      for (const LocalEdge& e : fn.succs[u]) {
        if (!e.back && body[e.to]) ++indeg[e.to];
      }
    }
    std::deque<std::uint32_t> ready;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (body[u] && indeg[u] == 0) ready.push_back(u);
    }
    // The header must lead; other zero-indegree members are unreachable
    // from it inside the loop and harmless.
    topo.clear();
    while (!ready.empty()) {
      const std::uint32_t u = ready.front();
      ready.pop_front();
      topo.push_back(u);
      for (const LocalEdge& e : fn.succs[u]) {
        if (e.back || !body[e.to]) continue;
        if (--indeg[e.to] == 0) ready.push_back(e.to);
      }
    }
    (void)header;
    return topo.size() == members;
  }
};

}  // namespace

std::string_view clock_name(int clock) {
  switch (clock) {
    case kClockCycles: return "cycles";
    case kClockInsts: return "inst_retired";
    case kClockBranches: return "branches";
    case kClockLoads: return "loads";
    case kClockStores: return "stores";
    default: return "?";
  }
}

bool TimingEnvelope::contains(const TimingCostModel& model,
                              const sim::PerfSnapshot& c) const {
  if (!valid) return true;
  const std::int64_t observed[kNumClocks] = {
      model.cycles_from_counters(c),
      static_cast<std::int64_t>(c.inst_retired),
      static_cast<std::int64_t>(c.branches),
      static_cast<std::int64_t>(c.loads),
      static_cast<std::int64_t>(c.stores),
  };
  for (int i = 0; i < kNumClocks; ++i) {
    if (observed[i] < clocks[i].lo || observed[i] > clocks[i].hi) return false;
  }
  return true;
}

std::size_t TimingEnvelopes::valid_count() const {
  std::size_t n = 0;
  for (const auto& [addr, env] : by_entry) n += env.valid ? 1 : 0;
  return n;
}

TimingCheckResult check_timing(const TimingEnvelopes& envelopes,
                               sim::Addr entry, const sim::PerfSnapshot& c) {
  TimingCheckResult r;
  const TimingEnvelope* env = envelopes.at(entry);
  if (env == nullptr || !env->valid) return r;
  r.checked = true;
  const std::int64_t observed[kNumClocks] = {
      envelopes.model.cycles_from_counters(c),
      static_cast<std::int64_t>(c.inst_retired),
      static_cast<std::int64_t>(c.branches),
      static_cast<std::int64_t>(c.loads),
      static_cast<std::int64_t>(c.stores),
  };
  for (int i = 0; i < kNumClocks; ++i) {
    if (observed[i] < env->clocks[i].lo || observed[i] > env->clocks[i].hi) {
      if (r.first_bad_clock < 0) r.first_bad_clock = i;
      if (i == kClockCycles) r.cycle_miss = true;
      else r.counter_miss = true;
    }
  }
  return r;
}

TimingEnvelopes compute_timing_envelopes(const sim::Program& program,
                                         const ControlFlowGraph& cfg,
                                         const TimingCostModel& model) {
  TimingAnalyzer analyzer(program, cfg, model);
  return analyzer.run();
}

}  // namespace xentry::analysis
