// micro_step: raw interpreter step rate, per execution mode.
//
// Times a representative handler-mix program (loads, stores, ALU, push/pop,
// a call/ret leaf, and a fusable cmp+jne back edge) directly against the
// Cpu, with no Machine or campaign machinery in the loop, for every
// per-step feature mode:
//   plain    run_loop<false,false,false>   (the golden-run configuration)
//   +trace   run_loop<true, false,false>   (golden probe runs)
//   +mask    run_loop<false,true, false>   (exit-mask materialization)
//   +shadow  run_loop<false,false,true>    (shadow-stack redundancy)
// and, for each mode, both engines: the specialized interpreter loop
// (fast) and the single-step reference engine (reference).  The
// fast/reference ratio is the payoff of mode specialization; the per-mode
// spread is the marginal cost of each feature.
//
// Usage: micro_step [budget_sec_per_cell]
// Output: JSON on stdout.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/memory.hpp"

namespace {

using namespace xentry;
using sim::Addr;
using sim::Reg;
using sim::Word;
using Clock = std::chrono::steady_clock;

constexpr Addr kCodeBase = 0x1000;
constexpr Addr kDataBase = 0x8000;
constexpr Addr kDataSize = 0x100;
constexpr Addr kStackBase = 0x20000;
constexpr Addr kStackSize = 0x100;
constexpr Addr kStackTop = kStackBase + kStackSize;
constexpr std::int64_t kShadowOffset = 0x1000;
constexpr std::int64_t kIters = 1000;

/// The handler-mix kernel: each iteration does 2 memory ops, 5 ALU ops,
/// a push/pop pair, a call/ret to a leaf, and the fused compare+branch
/// back edge — roughly the instruction-class mix of the microvisor's
/// hypercall handlers.
sim::Program build_kernel() {
  sim::Assembler as(kCodeBase);
  as.global("bench_entry");
  as.movi(Reg::rcx, kIters);
  as.movi(Reg::rbx, static_cast<std::int64_t>(kDataBase));
  const auto loop = as.here();
  as.load(Reg::rax, Reg::rbx, 0);
  as.addi(Reg::rax, 7);
  as.xori(Reg::rax, 0x55);
  as.store(Reg::rbx, Reg::rax, 1);
  as.push(Reg::rcx);
  as.call("leaf");
  as.pop(Reg::rcx);
  as.shli(Reg::rax, 3);
  as.or_(Reg::rdx, Reg::rax);
  as.dec(Reg::rcx);
  as.cmpi(Reg::rcx, 0);  // fuses with the jne back edge
  as.jne(loop);
  as.hlt();
  as.pad_ud(2);
  as.global("leaf");
  as.inc(Reg::rdx);
  as.ret();
  return as.finish();
}

struct Cell {
  const char* engine;
  const char* mode;
  double steps_per_sec = 0;
};

Cell time_cell(const sim::Program& prog, const char* engine, const char* mode,
               sim::EngineKind kind, bool trace, bool masks, bool shadow,
               double budget_sec) {
  sim::Memory mem;
  mem.map(kDataBase, kDataSize, sim::Perm::ReadWrite, "data");
  mem.map(kStackBase, kStackSize, sim::Perm::ReadWrite, "stack");
  mem.map(kStackBase + static_cast<Addr>(kShadowOffset), kStackSize,
          sim::Perm::ReadWrite, "shadow_stack");

  sim::Cpu cpu(&prog, &mem);
  cpu.set_engine(kind);
  std::vector<Addr> trace_buf;
  cpu.set_mask_tracking(masks);
  if (shadow) cpu.enable_shadow_stack(kShadowOffset);

  Cell cell{engine, mode};
  std::uint64_t steps = 0;
  double elapsed = 0;
  const auto t0 = Clock::now();
  do {
    for (int rep = 0; rep < 8; ++rep) {
      cpu.reset(prog.symbol("bench_entry"), kStackTop);
      if (trace) {
        trace_buf.clear();
        cpu.set_trace(&trace_buf);
      }
      const sim::StepInfo info = cpu.run(1u << 20);
      if (info.status != sim::StepInfo::Status::Halted) {
        std::fprintf(stderr, "micro_step: kernel did not halt\n");
        std::exit(1);
      }
      steps += cpu.steps_executed();
    }
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < budget_sec);
  cell.steps_per_sec = static_cast<double>(steps) / elapsed;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const double budget = argc > 1 ? std::atof(argv[1]) : 0.2;
  const sim::Program prog = build_kernel();

  const struct {
    const char* mode;
    bool trace, masks, shadow;
  } modes[] = {
      {"plain", false, false, false},
      {"trace", true, false, false},
      {"mask", false, true, false},
      {"shadow", false, false, true},
  };

  std::vector<Cell> cells;
  for (const auto& m : modes) {
    cells.push_back(time_cell(prog, "fast", m.mode, sim::EngineKind::Fast,
                              m.trace, m.masks, m.shadow, budget));
    cells.push_back(time_cell(prog, "reference", m.mode,
                              sim::EngineKind::Reference, m.trace, m.masks,
                              m.shadow, budget));
  }

  std::printf("{\n  \"benchmark\": \"micro_step\",\n  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("    {\"engine\": \"%s\", \"mode\": \"%s\", "
                "\"steps_per_sec\": %.0f}%s\n",
                cells[i].engine, cells[i].mode, cells[i].steps_per_sec,
                i + 1 < cells.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
