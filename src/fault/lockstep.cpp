#include "fault/lockstep.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "hv/layout.hpp"

namespace xentry::fault {

namespace L = hv::layout;

namespace {

/// Compare interval; a dirty chunk costs ~log2(chunk) bisection probes of
/// at most chunk steps each.
constexpr std::uint64_t kChunkSteps = 64;
/// Per-side instruction budget after the injection point (a hung faulty
/// run has no natural end).
constexpr std::uint64_t kMaxReplaySteps = 1u << 17;
/// Taint-map sample cap (exponentially spaced, so the covered window is
/// ~2^cap boundaries before the budget cuts in).
constexpr std::size_t kMaxTaintSamples = 24;

/// One replay side: the CPU plus whether it has reached its natural end
/// (VM-entry halt or trap).  A done side parks; the other may continue.
struct Side {
  sim::Cpu* cpu = nullptr;
  bool done = false;
  bool halted = false;  ///< done via Hlt (the VM-entry gate), not a trap
};

/// Advances `s` up to `n` reference steps; returns steps executed
/// (each step() call counts one, including the ending Hlt/trap).
std::uint64_t advance(Side& s, std::uint64_t n) {
  std::uint64_t k = 0;
  while (k < n && !s.done) {
    const sim::StepInfo info = s.cpu->step();
    ++k;
    if (info.status != sim::StepInfo::Status::Ok) {
      s.done = true;
      s.halted = info.status == sim::StepInfo::Status::Halted;
    }
  }
  return k;
}

struct Cmp {
  bool beyond = false;     ///< corruption beyond the seeded flip
  bool identical = false;  ///< no difference at all (flip overwritten)
};

/// The divergence predicate.  The seed register carrying exactly the seed
/// mask is the injected fault itself, not propagation; any other register
/// difference, any changed seed-register mask, or any memory difference
/// (the seed lives in a register, so memory is beyond by definition) is.
Cmp compare(const Side& g, const Side& f, sim::Reg seed_reg,
            sim::Word seed_mask) {
  Cmp c;
  bool seed_present = false;
  const auto& gr = g.cpu->regs();
  const auto& fr = f.cpu->regs();
  for (int r = 0; r < sim::kNumArchRegs; ++r) {
    const sim::Word x = gr[static_cast<std::size_t>(r)] ^
                        fr[static_cast<std::size_t>(r)];
    if (x == 0) continue;
    if (static_cast<sim::Reg>(r) == seed_reg && x == seed_mask) {
      seed_present = true;
      continue;
    }
    c.beyond = true;
    return c;
  }
  const bool mem = g.cpu->memory().differs_from(f.cpu->memory());
  c.beyond = mem;
  c.identical = !mem && !seed_present;
  return c;
}

/// Chunk-entry checkpoint: both sides' memory images, register files,
/// TSCs, and park states.  Memory::Snapshot buffers are reused across
/// captures, so repeated bisection probes do not reallocate.
struct Checkpoint {
  sim::Memory::Snapshot g_mem, f_mem;
  std::array<sim::Word, sim::kNumArchRegs> g_regs{}, f_regs{};
  sim::Word g_tsc = 0, f_tsc = 0;
  bool g_done = false, g_halted = false;
  bool f_done = false, f_halted = false;
};

void capture(Checkpoint& c, const Side& g, const Side& f) {
  g.cpu->memory().snapshot_into(c.g_mem);
  f.cpu->memory().snapshot_into(c.f_mem);
  c.g_regs = g.cpu->regs();
  c.f_regs = f.cpu->regs();
  c.g_tsc = g.cpu->tsc();
  c.f_tsc = f.cpu->tsc();
  c.g_done = g.done;
  c.g_halted = g.halted;
  c.f_done = f.done;
  c.f_halted = f.halted;
}

void rewind(const Checkpoint& c, Side& g, Side& f) {
  g.cpu->memory().restore(c.g_mem);
  f.cpu->memory().restore(c.f_mem);
  g.cpu->set_regs(c.g_regs);
  f.cpu->set_regs(c.f_regs);
  g.cpu->set_tsc(c.g_tsc);
  f.cpu->set_tsc(c.f_tsc);
  g.done = c.g_done;
  g.halted = c.g_halted;
  f.done = c.f_done;
  f.halted = c.f_halted;
}

/// Fills the divergence location from the first new corruption at the
/// current (first dirty) boundary: registers in index order first, then
/// the lowest differing memory word.
void fill_location(obs::FirstDivergence& d, const Side& g, const Side& f,
                   sim::Reg seed_reg, sim::Word seed_mask) {
  const auto& gr = g.cpu->regs();
  const auto& fr = f.cpu->regs();
  for (int r = 0; r < sim::kNumArchRegs; ++r) {
    const sim::Word x = gr[static_cast<std::size_t>(r)] ^
                        fr[static_cast<std::size_t>(r)];
    if (x == 0) continue;
    if (static_cast<sim::Reg>(r) == seed_reg && x == seed_mask) continue;
    d.in_register = true;
    d.location = static_cast<std::uint64_t>(r);
    d.xor_mask = x;
    d.bit = std::countr_zero(x);
    return;
  }
  std::vector<sim::WordDiff> diffs;
  g.cpu->memory().diff_spans(f.cpu->memory(), diffs);
  if (!diffs.empty()) {
    d.in_register = false;
    d.location = diffs.front().addr;
    d.xor_mask = diffs.front().xor_mask;
    d.bit = std::countr_zero(diffs.front().xor_mask);
  }
}

}  // namespace

DivergenceScan find_first_divergence(sim::Cpu& golden, sim::Cpu& faulty,
                                     sim::Reg seed_reg, sim::Word seed_mask,
                                     std::uint64_t start_step) {
  DivergenceScan out;
  Side g{&golden};
  Side f{&faulty};
  Checkpoint chk;
  std::uint64_t boundary = 0;  // steps executed past start_step

  const auto finish = [&](bool masked) {
    out.masked = masked;
    out.boundary = start_step + boundary;
    out.golden_done = g.done;
    out.golden_halted = g.halted;
    out.faulty_done = f.done;
    out.faulty_halted = f.halted;
  };

  while (true) {
    if ((g.done && f.done) || boundary >= kMaxReplaySteps) {
      // Window exhausted with no propagation: the flip either converged
      // away entirely (masked) or stayed latent in the seed register.
      finish(compare(g, f, seed_reg, seed_mask).identical);
      return out;
    }
    const std::uint64_t n = std::min(kChunkSteps, kMaxReplaySteps - boundary);
    capture(chk, g, f);
    out.steps_replayed += advance(g, n) + advance(f, n);
    boundary += n;
    const Cmp c = compare(g, f, seed_reg, seed_mask);
    if (c.identical) {
      finish(true);
      return out;
    }
    if (!c.beyond) continue;

    // Dirty chunk: bisect offsets (0, n] from the checkpoint.  The
    // predicate is false at the chunk entry and true at its end, so the
    // first-true binary search lands on a genuine false->true edge; the
    // divergence step is the instruction executed across that edge.
    std::uint64_t lo = 0, hi = n;
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      rewind(chk, g, f);
      out.steps_replayed += advance(g, mid) + advance(f, mid);
      if (compare(g, f, seed_reg, seed_mask).beyond) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    rewind(chk, g, f);
    out.steps_replayed += advance(g, hi) + advance(f, hi);
    const std::uint64_t chunk_base = boundary - n;
    boundary = chunk_base + hi;
    out.diverged = true;
    out.divergence.step = start_step + boundary - 1;
    fill_location(out.divergence, g, f, seed_reg, seed_mask);
    finish(false);
    return out;
  }
}

namespace {

/// One taint-map sample at the current boundary: the corruption set
/// diffed and classified (stack range, persistent structures, time
/// values), with the VM-entry crossing marker.
obs::TaintSample make_sample(std::uint64_t boundary, const Side& g,
                             const Side& f, sim::Reg seed_reg,
                             sim::Word seed_mask, int nd, int nv,
                             std::vector<sim::WordDiff>& diffs,
                             std::vector<sim::RegDiff>& rdiffs) {
  obs::TaintSample s;
  s.step = boundary;
  g.cpu->memory().diff_spans(f.cpu->memory(), diffs);
  s.mem_words = static_cast<std::uint32_t>(diffs.size());
  for (const sim::WordDiff& d : diffs) {
    const bool stack =
        (d.addr >= L::kStackBase && d.addr < L::kStackTop) ||
        (d.addr >= L::kStackBase + static_cast<sim::Addr>(L::kShadowStackOffset) &&
         d.addr < L::kStackTop + static_cast<sim::Addr>(L::kShadowStackOffset));
    if (stack) {
      ++s.stack_words;
      continue;
    }
    L::OutputClass cls = L::OutputClass::HvGlobal;
    int dom = 0;
    if (L::classify_address(d.addr, nd, nv, cls, dom)) {
      ++s.persistent_words;
      if (cls == L::OutputClass::TimeValue) ++s.time_words;
    }
  }
  sim::diff_regs(*g.cpu, *f.cpu, rdiffs);
  for (const sim::RegDiff& rd : rdiffs) {
    if (rd.reg == seed_reg && rd.xor_mask == seed_mask) continue;
    ++s.regs;
  }
  s.at_vm_entry = f.done && f.halted;
  return s;
}

}  // namespace

obs::ForensicsRecord run_lockstep_forensics(hv::Machine& golden,
                                            hv::Machine& faulty,
                                            const hv::Activation& activation,
                                            const hv::Injection& injection,
                                            const hv::Machine::Snapshot& pre) {
  obs::ForensicsRecord fx;
  golden.restore(pre);
  faulty.restore(pre);
  golden.begin_activation(activation);
  faulty.begin_activation(activation);
  sim::Cpu& gc = golden.cpu();
  sim::Cpu& fc = faulty.cpu();

  // Advance both sides to the injection point (the flip precedes the
  // dynamic instruction at_step, exactly as Machine::run applies it).
  for (std::uint64_t i = 0; i < injection.at_step; ++i) {
    const sim::StepInfo a = gc.step();
    const sim::StepInfo b = fc.step();
    fx.replay_steps += 2;
    if (a.status != sim::StepInfo::Status::Ok ||
        b.status != sim::StepInfo::Status::Ok) {
      // The faulted run reached at_step, so a clean replay must too; bail
      // without evidence rather than mis-attribute (callers fall back to
      // the heuristic).
      return fx;
    }
  }
  fc.flip_bit(injection.reg, injection.bit);
  const sim::Word seed_mask = sim::Word{1} << injection.bit;

  const DivergenceScan scan = find_first_divergence(
      gc, fc, injection.reg, seed_mask, injection.at_step);
  fx.replay_steps += scan.steps_replayed;
  fx.diverged = scan.diverged;
  fx.masked = scan.masked;

  if (scan.diverged) {
    fx.divergence = scan.divergence;
    // Taint sampling: the boundary right after the first divergence, then
    // exponentially spaced checkpoints, ending at the end state (both
    // sides done) or the budget/sample cap.
    Side g{&gc, scan.golden_done, scan.golden_halted};
    Side f{&fc, scan.faulty_done, scan.faulty_halted};
    const int nd = golden.num_domains();
    const int nv = golden.num_vcpus() + 1;  // include the idle vcpu
    std::vector<sim::WordDiff> diffs;
    std::vector<sim::RegDiff> rdiffs;
    const std::uint64_t budget_end = injection.at_step + kMaxReplaySteps;
    std::uint64_t boundary = scan.boundary;
    std::uint64_t interval = 1;
    while (true) {
      fx.taint.push_back(make_sample(boundary, g, f, injection.reg, seed_mask,
                                     nd, nv, diffs, rdiffs));
      if (g.done && f.done) break;
      if (fx.taint.size() >= kMaxTaintSamples) break;
      if (boundary >= budget_end) break;
      const std::uint64_t n = std::min(interval, budget_end - boundary);
      const std::uint64_t adv_g = advance(g, n);
      const std::uint64_t adv_f = advance(f, n);
      fx.replay_steps += adv_g + adv_f;
      boundary += std::max(adv_g, adv_f);
      interval *= 2;
    }
  }

  return fx;
}

}  // namespace xentry::fault
