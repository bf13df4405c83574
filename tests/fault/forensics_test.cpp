// Fault-propagation forensics: lockstep divergence scan, taint sampling,
// evidence-based attribution, and the digest-invariance contract.
#include "fault/lockstep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "fault/campaign.hpp"
#include "fault/outcome.hpp"
#include "sim/assembler.hpp"

namespace xentry::fault {
namespace {

TEST(ForensicsEnums, ConsequenceNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(Consequence::AppSdc); ++i) {
    const auto c = static_cast<Consequence>(i);
    const auto back = consequence_from_name(consequence_name(c));
    ASSERT_TRUE(back.has_value()) << consequence_name(c);
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(consequence_from_name("no_such_consequence").has_value());
  EXPECT_FALSE(consequence_from_name("").has_value());
}

TEST(ForensicsEnums, UndetectedClassNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(UndetectedClass::OtherValues); ++i) {
    const auto c = static_cast<UndetectedClass>(i);
    const auto back = undetected_class_from_name(undetected_class_name(c));
    ASSERT_TRUE(back.has_value()) << undetected_class_name(c);
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(undetected_class_from_name("bogus").has_value());
}

TEST(ForensicsEnums, NeedsForensicsSelectsSdcCrashAndEscapes) {
  // SDC and app crash qualify regardless of detection; everything else
  // manifested qualifies only when it escaped; masked never does.
  EXPECT_TRUE(needs_forensics(Consequence::AppSdc, true));
  EXPECT_TRUE(needs_forensics(Consequence::AppSdc, false));
  EXPECT_TRUE(needs_forensics(Consequence::AppCrash, true));
  EXPECT_TRUE(needs_forensics(Consequence::AppCrash, false));
  EXPECT_TRUE(needs_forensics(Consequence::OneVmFailure, false));
  EXPECT_TRUE(needs_forensics(Consequence::HypervisorCrash, false));
  EXPECT_FALSE(needs_forensics(Consequence::OneVmFailure, true));
  EXPECT_FALSE(needs_forensics(Consequence::Masked, false));
  EXPECT_FALSE(needs_forensics(Consequence::Masked, true));
}

TEST(ForensicsEnums, EffectiveUndetectedPrefersForensicsAttribution) {
  InjectionRecord r;
  r.undetected = UndetectedClass::OtherValues;
  EXPECT_EQ(effective_undetected(r), UndetectedClass::OtherValues);
  obs::ForensicsRecord fx;
  fx.attributed = static_cast<std::uint8_t>(UndetectedClass::StackValues);
  r.postmortem.fill().forensics = fx;
  EXPECT_EQ(effective_undetected(r), UndetectedClass::StackValues);
  EXPECT_EQ(r.undetected, UndetectedClass::OtherValues);  // never rewritten
}

// -- the out-of-line postmortem payload -------------------------------------

/// A record carrying both payloads: two flight frames and a replay.
InjectionRecord record_with_postmortem() {
  InjectionRecord r;
  r.undetected = UndetectedClass::OtherValues;
  Postmortem& pm = r.postmortem.fill();
  pm.blackbox.resize(2);
  pm.blackbox[0].seq = 10;
  pm.blackbox[1].seq = 11;
  pm.forensics.emplace();
  pm.forensics->attributed =
      static_cast<std::uint8_t>(UndetectedClass::TimeValues);
  pm.forensics->taint.resize(1);
  return r;
}

TEST(PostmortemTest, RecordWithoutPayloadAllocatesNothing) {
  InjectionRecord r;
  r.undetected = UndetectedClass::StackValues;
  EXPECT_EQ(r.postmortem.get(), nullptr);
  EXPECT_TRUE(r.blackbox().empty());
  EXPECT_EQ(r.forensics(), nullptr);
  EXPECT_EQ(effective_undetected(r), UndetectedClass::StackValues);

  const InjectionRecord copy = r;
  EXPECT_EQ(copy.postmortem.get(), nullptr);
  InjectionRecord assigned = record_with_postmortem();
  assigned = r;
  EXPECT_EQ(assigned.postmortem.get(), nullptr);
  EXPECT_EQ(effective_undetected(assigned), UndetectedClass::StackValues);
}

TEST(PostmortemTest, BlackboxAloneKeepsTheHeuristicClass) {
  InjectionRecord r;
  r.undetected = UndetectedClass::OtherValues;
  r.postmortem.fill().blackbox.resize(3);
  EXPECT_EQ(r.blackbox().size(), 3u);
  EXPECT_EQ(r.forensics(), nullptr);
  EXPECT_EQ(effective_undetected(r), UndetectedClass::OtherValues);
}

TEST(PostmortemTest, CopyClonesThePayload) {
  const InjectionRecord original = record_with_postmortem();
  InjectionRecord copy = original;
  ASSERT_NE(copy.postmortem.get(), nullptr);
  EXPECT_NE(copy.postmortem.get(), original.postmortem.get());
  EXPECT_TRUE(std::ranges::equal(copy.blackbox(), original.blackbox()));
  EXPECT_EQ(effective_undetected(copy), UndetectedClass::TimeValues);

  Postmortem& pm = copy.postmortem.fill();
  pm.blackbox[0].seq = 99;
  pm.blackbox.pop_back();
  pm.forensics->attributed =
      static_cast<std::uint8_t>(UndetectedClass::StackValues);
  pm.forensics->taint.clear();
  ASSERT_EQ(original.blackbox().size(), 2u);
  EXPECT_EQ(original.blackbox()[0].seq, 10u);
  EXPECT_EQ(original.blackbox()[1].seq, 11u);
  ASSERT_NE(original.forensics(), nullptr);
  EXPECT_EQ(original.forensics()->taint.size(), 1u);
  EXPECT_EQ(effective_undetected(original), UndetectedClass::TimeValues);

  // Copy-assignment onto a record with a payload of its own clones too.
  InjectionRecord target = record_with_postmortem();
  target = copy;
  EXPECT_NE(target.postmortem.get(), copy.postmortem.get());
  EXPECT_EQ(target.blackbox().size(), 1u);
  EXPECT_EQ(effective_undetected(target), UndetectedClass::StackValues);
}

TEST(PostmortemTest, MoveTransfersThePayload) {
  static_assert(std::is_nothrow_move_constructible_v<InjectionRecord>,
                "vector growth must move records, not clone payloads");
  InjectionRecord source = record_with_postmortem();
  const Postmortem* payload = source.postmortem.get();
  InjectionRecord moved = std::move(source);
  EXPECT_EQ(moved.postmortem.get(), payload);
  EXPECT_EQ(source.postmortem.get(), nullptr);
  EXPECT_EQ(moved.blackbox().size(), 2u);

  InjectionRecord target;
  target = std::move(moved);
  EXPECT_EQ(target.postmortem.get(), payload);
  EXPECT_EQ(moved.postmortem.get(), nullptr);
  EXPECT_EQ(effective_undetected(target), UndetectedClass::TimeValues);
}

// -- divergence scan on hand-built programs ---------------------------------

constexpr sim::Addr kCodeBase = 0x400000;
constexpr sim::Addr kDataBase = 0x10000;
constexpr sim::Addr kStackTop = 0x20100;

/// Two CPUs over two identical memories and one shared program, reset to
/// the entry point — the raw lockstep-scan fixture.
struct Pair {
  sim::Program prog;
  sim::Memory gmem, fmem;
  sim::Cpu golden, faulty;

  explicit Pair(sim::Assembler& as)
      : prog(as.finish()), golden(&prog, &gmem), faulty(&prog, &fmem) {
    map(gmem);
    map(fmem);
    golden.reset(prog.base(), kStackTop);
    faulty.reset(prog.base(), kStackTop);
  }

  static void map(sim::Memory& m) {
    m.map(kDataBase, 256, sim::Perm::ReadWrite, "data");
    m.map(0x20000, 0x100, sim::Perm::ReadWrite, "stack");
  }
};

TEST(LockstepScan, BisectsToThePropagatingInstruction) {
  // step 0: movi rax, 5     (does not touch rbx — the flip stays latent)
  // step 1: mov  rcx, rbx   (propagates the corrupted rbx into rcx)
  // step 2: store [rdx+data], rcx
  // step 3: hlt
  sim::Assembler as(kCodeBase);
  as.movi(sim::Reg::rax, 5);
  as.mov(sim::Reg::rcx, sim::Reg::rbx);
  as.movi(sim::Reg::rdx, static_cast<std::int64_t>(kDataBase));
  as.store(sim::Reg::rdx, sim::Reg::rcx);
  as.hlt();
  Pair p(as);
  p.faulty.flip_bit(sim::Reg::rbx, 3);

  // The whole program fits in one chunk: bisection does the localization
  // work.
  const DivergenceScan scan = find_first_divergence(
      p.golden, p.faulty, sim::Reg::rbx, sim::Word{1} << 3, 0);

  ASSERT_TRUE(scan.diverged);
  EXPECT_FALSE(scan.masked);
  EXPECT_EQ(scan.divergence.step, 1u);  // the mov, not the movi before it
  EXPECT_EQ(scan.boundary, 2u);
  EXPECT_TRUE(scan.divergence.in_register);
  EXPECT_EQ(scan.divergence.location,
            static_cast<std::uint64_t>(sim::Reg::rcx));
  EXPECT_EQ(scan.divergence.xor_mask, sim::Word{1} << 3);
  EXPECT_EQ(scan.divergence.bit, 3);
}

TEST(LockstepScan, OverwrittenFlipIsMasked) {
  sim::Assembler as(kCodeBase);
  as.movi(sim::Reg::rax, 1);
  as.movi(sim::Reg::rbx, 7);  // overwrites the corrupted register
  as.hlt();
  Pair p(as);
  p.faulty.flip_bit(sim::Reg::rbx, 5);

  const DivergenceScan scan = find_first_divergence(
      p.golden, p.faulty, sim::Reg::rbx, sim::Word{1} << 5, 0);
  EXPECT_FALSE(scan.diverged);
  EXPECT_TRUE(scan.masked);
}

TEST(LockstepScan, LatentFlipNeverPropagatingIsNotMasked) {
  // The corrupted register is never read or written: the runs end with
  // the seed difference intact — neither diverged nor fully converged.
  sim::Assembler as(kCodeBase);
  as.movi(sim::Reg::rax, 2);
  as.addi(sim::Reg::rax, 3);
  as.hlt();
  Pair p(as);
  p.faulty.flip_bit(sim::Reg::r12, 9);

  const DivergenceScan scan = find_first_divergence(
      p.golden, p.faulty, sim::Reg::r12, sim::Word{1} << 9, 0);
  EXPECT_FALSE(scan.diverged);
  EXPECT_FALSE(scan.masked);
}

TEST(LockstepScan, MemoryDivergenceLocatedByAddress) {
  // rbx is a store *address* offset carrier: golden and faulty write the
  // same value to different addresses, so the first beyond-seed state is
  // in memory, not a register.
  sim::Assembler as(kCodeBase);
  as.movi(sim::Reg::rax, 0x55);
  as.store(sim::Reg::rbx, sim::Reg::rax);  // [rbx] = 0x55
  as.hlt();
  Pair p(as);
  p.golden.set_reg(sim::Reg::rbx, kDataBase);
  p.faulty.set_reg(sim::Reg::rbx, kDataBase);
  p.faulty.flip_bit(sim::Reg::rbx, 3);  // faulty stores at kDataBase + 8

  const DivergenceScan scan = find_first_divergence(
      p.golden, p.faulty, sim::Reg::rbx, sim::Word{1} << 3, 0);
  ASSERT_TRUE(scan.diverged);
  EXPECT_EQ(scan.divergence.step, 1u);
  EXPECT_FALSE(scan.divergence.in_register);
  EXPECT_EQ(scan.divergence.location, kDataBase);  // lowest differing word
  EXPECT_EQ(scan.divergence.xor_mask, 0x55u);
}

// -- campaign-level invariants ----------------------------------------------

CampaignConfig forensics_config(int injections) {
  CampaignConfig cfg;
  cfg.injections = injections;
  cfg.seed = 7;
  cfg.shards = 1;
  cfg.collect_dataset = true;  // satisfies the transition-detection check
  cfg.obs.metrics = true;
  cfg.obs.forensics = true;
  return cfg;
}

TEST(ForensicsCampaign, EverySdcHasDivergenceAndTaint) {
  // 2000 injections: the default configuration yields ~10 SDCs (SDC is
  // the rarest qualifying class — it needs consumed app-data corruption).
  auto res = run_campaign(forensics_config(2000));
  std::size_t sdc = 0, replayed = 0;
  for (const auto& r : res.records) {
    if (r.forensics() != nullptr) ++replayed;
    if (r.consequence != Consequence::AppSdc) continue;
    ++sdc;
    ASSERT_NE(r.forensics(), nullptr);
    const obs::ForensicsRecord& fx = *r.forensics();
    // An SDC means persistent state really differed at run end, so the
    // replay must find the propagation and sample it at least once.
    EXPECT_TRUE(fx.diverged);
    ASSERT_GE(fx.taint.size(), 1u);
    EXPECT_EQ(fx.taint.front().step, fx.divergence.step + 1);
    EXPECT_GE(fx.divergence.step, r.injection.at_step);
  }
  ASSERT_GT(sdc, 0u) << "seed produced no SDC; grow the campaign";
  ASSERT_GT(replayed, sdc) << "escapes should also have been replayed";
  EXPECT_EQ(res.metrics.counter("forensics.replays").value(), replayed);
}

TEST(ForensicsCampaign, TaintSamplesAreMonotonicAndConsistent) {
  const auto res = run_campaign(forensics_config(400));
  std::size_t samples = 0;
  for (const auto& r : res.records) {
    if (r.forensics() == nullptr || !r.forensics()->diverged) continue;
    const auto& taint = r.forensics()->taint;
    for (std::size_t i = 0; i < taint.size(); ++i, ++samples) {
      if (i > 0) {
        EXPECT_GT(taint[i].step, taint[i - 1].step);
      }
      EXPECT_LE(taint[i].stack_words, taint[i].mem_words);
      EXPECT_LE(taint[i].persistent_words, taint[i].mem_words);
      EXPECT_LE(taint[i].time_words, taint[i].persistent_words);
    }
  }
  EXPECT_GT(samples, 0u);
}

TEST(ForensicsCampaign, AttributionAgreesWithTaintEvidence) {
  const auto res = run_campaign(forensics_config(400));
  std::size_t checked = 0;
  for (const auto& r : res.records) {
    if (r.forensics() == nullptr) continue;
    const obs::ForensicsRecord& fx = *r.forensics();
    const auto attributed = static_cast<UndetectedClass>(fx.attributed);
    EXPECT_LE(fx.attributed,
              static_cast<std::uint8_t>(UndetectedClass::OtherValues));
    EXPECT_EQ(fx.heuristic, static_cast<std::uint8_t>(r.undetected));
    EXPECT_EQ(fx.heuristic_agrees, attributed == r.undetected);
    if (r.detected) {
      EXPECT_EQ(attributed, UndetectedClass::NotApplicable);
      continue;
    }
    if (!fx.diverged || fx.taint.empty()) continue;  // heuristic fallback
    ++checked;
    const obs::TaintSample& last = fx.taint.back();
    if (attributed == UndetectedClass::TimeValues) {
      // Time attribution requires the end-state persistent corruption to
      // be exactly the time values.
      EXPECT_GT(last.persistent_words, 0u);
      EXPECT_EQ(last.time_words, last.persistent_words);
    }
    if (attributed == UndetectedClass::StackValues &&
        r.injection.reg != sim::Reg::rsp &&
        !(fx.divergence.in_register &&
          fx.divergence.location ==
              static_cast<std::uint64_t>(sim::Reg::rsp))) {
      bool stack_taint = !fx.divergence.in_register;
      for (const obs::TaintSample& s : fx.taint) {
        stack_taint |= s.stack_words > 0;
      }
      EXPECT_TRUE(stack_taint);
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ForensicsCampaign, DigestedFieldsIdenticalWithForensicsOnOrOff) {
  CampaignConfig off = forensics_config(300);
  off.obs.forensics = false;
  CampaignConfig on = forensics_config(300);
  const auto a = run_campaign(off);
  const auto b = run_campaign(on);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const InjectionRecord& x = a.records[i];
    const InjectionRecord& y = b.records[i];
    EXPECT_EQ(x.forensics(), nullptr);
    // Every digested field, including the heuristic `undetected`.
    EXPECT_EQ(x.reason.code(), y.reason.code());
    EXPECT_EQ(x.activation_seed, y.activation_seed);
    EXPECT_EQ(x.injection.at_step, y.injection.at_step);
    EXPECT_EQ(x.injection.reg, y.injection.reg);
    EXPECT_EQ(x.injection.bit, y.injection.bit);
    EXPECT_EQ(x.injected, y.injected);
    EXPECT_EQ(x.activated, y.activated);
    EXPECT_EQ(x.consequence, y.consequence);
    EXPECT_EQ(x.detected, y.detected);
    EXPECT_EQ(x.technique, y.technique);
    EXPECT_EQ(x.latency, y.latency);
    EXPECT_EQ(x.trap, y.trap);
    EXPECT_EQ(x.assert_id, y.assert_id);
    EXPECT_EQ(x.trace_diverged, y.trace_diverged);
    EXPECT_EQ(x.undetected, y.undetected);
    EXPECT_EQ(x.features.as_array(), y.features.as_array());
  }
}

TEST(ForensicsCampaign, ValidateRejectsBadKnobs) {
  CampaignConfig cfg = forensics_config(10);
  cfg.obs.forensics_sample_every = -1;
  EXPECT_THROW(validate_campaign_config(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace xentry::fault
