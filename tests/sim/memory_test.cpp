#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace xentry::sim {
namespace {

TEST(MemoryTest, MappedReadWriteRoundTrips) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "data");
  ASSERT_FALSE(mem.write(0x1000, 42));
  Word v = 0;
  ASSERT_FALSE(mem.read(0x1000, v));
  EXPECT_EQ(v, 42u);
}

TEST(MemoryTest, UnmappedReadFaults) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "data");
  Word v = 0;
  Trap t = mem.read(0x0fff, v);
  EXPECT_EQ(t.kind, TrapKind::PageFault);
  EXPECT_EQ(t.fault_addr, 0x0fffu);
  t = mem.read(0x1040, v);
  EXPECT_EQ(t.kind, TrapKind::PageFault);
}

TEST(MemoryTest, UnmappedWriteFaults) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "data");
  EXPECT_EQ(mem.write(0x2000, 1).kind, TrapKind::PageFault);
}

TEST(MemoryTest, ReadOnlyWriteRaisesGeneralProtection) {
  Memory mem;
  mem.map(0x1000, 16, Perm::Read, "rodata");
  EXPECT_EQ(mem.write(0x1005, 9).kind, TrapKind::GeneralProtection);
  Word v = 1;
  EXPECT_FALSE(mem.read(0x1005, v));
  EXPECT_EQ(v, 0u);
}

TEST(MemoryTest, OverlappingMapThrows) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "a");
  EXPECT_THROW(mem.map(0x103f, 2, Perm::ReadWrite, "b"),
               std::invalid_argument);
  EXPECT_THROW(mem.map(0x0fff, 2, Perm::ReadWrite, "c"),
               std::invalid_argument);
  // Adjacent is fine.
  EXPECT_NO_THROW(mem.map(0x1040, 4, Perm::ReadWrite, "d"));
  EXPECT_NO_THROW(mem.map(0x0ffe, 2, Perm::ReadWrite, "e"));
}

TEST(MemoryTest, EmptyRegionThrows) {
  Memory mem;
  EXPECT_THROW(mem.map(0x1000, 0, Perm::ReadWrite, "z"),
               std::invalid_argument);
}

TEST(MemoryTest, RegionLookupAcrossSeveralRegions) {
  Memory mem;
  mem.map(0x100, 16, Perm::ReadWrite, "lo");
  mem.map(0x10000, 16, Perm::ReadWrite, "mid");
  mem.map(0x8000000000000000ull, 16, Perm::ReadWrite, "hi");
  EXPECT_TRUE(mem.is_mapped(0x100));
  EXPECT_TRUE(mem.is_mapped(0x1000f));
  EXPECT_TRUE(mem.is_mapped(0x800000000000000full));
  EXPECT_FALSE(mem.is_mapped(0x110));
  EXPECT_FALSE(mem.is_mapped(0xffff));
  EXPECT_EQ(mem.region_at(0x10008)->name, "mid");
}

TEST(MemoryTest, SnapshotRestoreRoundTrips) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.map(0x100, 8, Perm::ReadWrite, "b");
  mem.poke(0x3, 7);
  mem.poke(0x104, 9);
  auto snap = mem.snapshot();
  mem.poke(0x3, 100);
  mem.poke(0x104, 200);
  mem.restore(snap);
  EXPECT_EQ(mem.peek(0x3), 7u);
  EXPECT_EQ(mem.peek(0x104), 9u);
}

TEST(MemoryTest, IncrementalRestoreEquivalentToFullRestore) {
  // Arbitrary write pattern, restore, re-write, restore again: every
  // restore must reproduce the snapshot exactly even though only dirty
  // regions are copied back.
  Memory mem;
  mem.map(0x0, 16, Perm::ReadWrite, "a");
  mem.map(0x100, 16, Perm::ReadWrite, "b");
  mem.map(0x200, 16, Perm::ReadWrite, "c");
  for (int i = 0; i < 16; ++i) {
    mem.poke(0x0 + i, 10 + i);
    mem.poke(0x100 + i, 20 + i);
  }
  const Memory::Snapshot snap = mem.snapshot();

  // Touch only region "a"; "b"/"c" stay clean and may be skipped.
  ASSERT_FALSE(mem.write(0x3, 999));
  mem.restore(snap);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(mem.peek(0x0 + i), Word(10 + i));
    EXPECT_EQ(mem.peek(0x100 + i), Word(20 + i));
    EXPECT_EQ(mem.peek(0x200 + i), 0u);
  }

  // Re-write after the restore (including a previously clean region),
  // then restore again.
  mem.poke(0x3, 1234);
  mem.poke(0x105, 5678);
  mem.poke(0x20f, 42);
  mem.restore(snap);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(mem.peek(0x0 + i), Word(10 + i));
    EXPECT_EQ(mem.peek(0x100 + i), Word(20 + i));
    EXPECT_EQ(mem.peek(0x200 + i), 0u);
  }
}

TEST(MemoryTest, RestoreTracksSourceAcrossSnapshots) {
  // The campaign sync pattern: a faulty memory is repeatedly re-aligned
  // with successive snapshots of a golden memory while both mutate.
  Memory golden, faulty;
  golden.map(0x0, 8, Perm::ReadWrite, "r0");
  golden.map(0x100, 8, Perm::ReadWrite, "r1");
  faulty.map(0x0, 8, Perm::ReadWrite, "r0");
  faulty.map(0x100, 8, Perm::ReadWrite, "r1");

  Memory::Snapshot snap;
  for (int round = 0; round < 5; ++round) {
    golden.poke(0x1, 100 + round);             // r0 changes every round
    if (round == 2) golden.poke(0x101, 777);   // r1 changes once
    golden.snapshot_into(snap);
    if (round % 2 == 0) faulty.poke(0x102, 55);  // faulty diverges
    faulty.restore(snap);
    for (Addr a : {Addr{0x1}, Addr{0x101}, Addr{0x102}}) {
      EXPECT_EQ(faulty.peek(a), golden.peek(a)) << "round " << round;
    }
  }
}

TEST(MemoryTest, SnapshotIntoReusesBuffersAndSeesNewWrites) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.poke(0x2, 7);
  Memory::Snapshot snap;
  mem.snapshot_into(snap);
  const Word* buf = snap.regions[0].data.data();
  mem.poke(0x2, 9);
  mem.snapshot_into(snap);
  EXPECT_EQ(snap.regions[0].data[2], 9u);
  EXPECT_EQ(snap.regions[0].data.data(), buf);  // no reallocation
  EXPECT_EQ(snap, mem.snapshot());
}

TEST(MemoryTest, RestoreFromCopiedMemoryIsNotSkipped) {
  // Copies get a fresh identity: snapshots of a copy must not be
  // confused with snapshots of the original after the two diverge.
  Memory a;
  a.map(0x0, 4, Perm::ReadWrite, "r");
  a.poke(0x1, 5);
  Memory b = a;
  b.poke(0x1, 6);
  Memory target;
  target.map(0x0, 4, Perm::ReadWrite, "r");
  target.restore(a.snapshot());
  EXPECT_EQ(target.peek(0x1), 5u);
  target.restore(b.snapshot());
  EXPECT_EQ(target.peek(0x1), 6u);
  target.restore(a.snapshot());
  EXPECT_EQ(target.peek(0x1), 5u);
}

TEST(MemoryTest, ReadOnlyRegionSurvivesSnapshotRoundTrip) {
  Memory mem;
  mem.map(0x0, 4, Perm::ReadWrite, "rw");
  mem.map(0x100, 4, Perm::Read, "ro");
  const Memory::Snapshot snap = mem.snapshot();
  EXPECT_EQ(mem.write(0x101, 9).kind, TrapKind::GeneralProtection);
  mem.poke(0x1, 3);
  mem.restore(snap);
  EXPECT_EQ(mem.peek(0x101), 0u);
  EXPECT_EQ(mem.peek(0x1), 0u);
}

TEST(MemoryTest, ClearZeroesEverything) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.poke(0x1, 5);
  mem.clear();
  EXPECT_EQ(mem.peek(0x1), 0u);
}

TEST(MemoryTest, ClearCountsAsMutationForIncrementalRestore) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.poke(0x1, 5);
  const Memory::Snapshot snap = mem.snapshot();
  mem.restore(snap);  // establish sync, then mutate via clear()
  mem.clear();
  mem.restore(snap);
  EXPECT_EQ(mem.peek(0x1), 5u);
}

TEST(MemoryTest, PokeSpanBumpsEveryPageItCovers) {
  Memory mem;
  mem.map(0x0, 200, Perm::ReadWrite, "r");
  const std::vector<std::uint64_t> before = mem.regions()[0].gens;
  Word* w = mem.poke_span(60, 80);  // words 60..139: pages 0, 1 and 2
  w[79] = 5;
  const std::vector<std::uint64_t>& after = mem.regions()[0].gens;
  for (std::size_t p = 0; p < after.size(); ++p) {
    EXPECT_EQ(after[p], before[p] + (p <= 2 ? 1 : 0)) << "page " << p;
  }
  EXPECT_EQ(mem.peek(139), 5u);
}

TEST(MemoryTest, PageSyncedWithFollowsWritesClearsCopiesAndSources) {
  Memory golden, faulty, other;
  for (Memory* m : {&golden, &faulty, &other}) {
    m->map(0x0, 130, Perm::ReadWrite, "r");
  }
  golden.poke(0x5, 1);
  golden.poke(0x45, 2);
  other.poke(0x5, 3);
  const auto synced = [&](const Memory& src, std::size_t page) {
    return faulty.page_synced_with(src, 0, page);
  };
  EXPECT_FALSE(synced(golden, 0));  // never restored

  faulty.restore(golden.snapshot());
  for (std::size_t p = 0; p < 3; ++p) EXPECT_TRUE(synced(golden, p));
  EXPECT_FALSE(synced(other, 0));

  golden.poke(0x6, 9);           // golden writes page 0
  ASSERT_FALSE(faulty.write(0x46, 9));  // faulty writes page 1
  EXPECT_FALSE(synced(golden, 0));
  EXPECT_FALSE(synced(golden, 1));
  EXPECT_TRUE(synced(golden, 2));

  faulty.restore(golden.snapshot());
  golden.clear();
  for (std::size_t p = 0; p < 3; ++p) EXPECT_FALSE(synced(golden, p));

  faulty.restore(golden.snapshot());
  faulty.clear();
  for (std::size_t p = 0; p < 3; ++p) EXPECT_FALSE(synced(golden, p));

  // Restoring from a different source moves the proof to that source.
  faulty.restore(golden.snapshot());
  faulty.restore(other.snapshot());
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_FALSE(synced(golden, p));
    EXPECT_TRUE(synced(other, p));
  }
  EXPECT_EQ(faulty.peek(0x5), 3u);

  // Copy-assignment gives the target a fresh identity.
  golden = other;
  for (std::size_t p = 0; p < 3; ++p) EXPECT_FALSE(synced(golden, p));
}

/// Seeded differential test of the page-generation machinery against a
/// naive model that copies every word on every snapshot and restore.
TEST(MemoryTest, RandomizedOpsMatchFullCopyModel) {
  using Image = std::vector<std::vector<Word>>;
  struct Slot {
    Memory::Snapshot snap;
    Image model;
  };
  // Region sizes cover a one-word region, a region one word short of a
  // page and regions with a partial last page; "ro" is read-only.
  const struct {
    Addr base, size;
    Perm perm;
  } layout[] = {{0x0, 1, Perm::ReadWrite},
                {0x100, 63, Perm::ReadWrite},
                {0x200, 65, Perm::ReadWrite},
                {0x400, 130, Perm::ReadWrite},
                {0x800, 65, Perm::Read}};
  constexpr std::size_t kMems = 3;
  constexpr std::size_t kSlots = 4;
  std::vector<Memory> mems(kMems);
  std::vector<Image> models(kMems);
  for (std::size_t m = 0; m < kMems; ++m) {
    for (const auto& r : layout) {
      mems[m].map(r.base, r.size, r.perm, "r");
      models[m].emplace_back(r.size, 0);
    }
  }
  std::vector<Slot> slots(kSlots);
  std::mt19937_64 rng(20140901);
  const auto below = [&](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  const std::size_t num_regions = std::size(layout);
  std::uint64_t proven = 0;  // page pairs the query claimed in sync

  for (int op = 0; op < 6000; ++op) {
    const std::size_t m = below(kMems);
    Memory& mem = mems[m];
    Image& model = models[m];
    const std::size_t ri = below(num_regions);
    const Addr off = below(layout[ri].size);
    const Addr a = layout[ri].base + off;
    const Word v = rng();
    const bool rw = layout[ri].perm == Perm::ReadWrite;
    const std::uint64_t kind = below(8);
    switch (kind) {
      case 0: {
        const Trap t = mem.write(a, v);
        ASSERT_EQ(t.kind, rw ? TrapKind::None : TrapKind::GeneralProtection);
        if (rw) model[ri][off] = v;
        break;
      }
      case 1:
        mem.poke(a, v);
        model[ri][off] = v;
        break;
      case 2: {  // often crosses one or more page boundaries
        const Addr len = 1 + below(layout[ri].size - off);
        Word* w = mem.poke_span(a, len);
        for (Addr i = 0; i < len; ++i) {
          w[i] = v + i;
          model[ri][off + i] = v + i;
        }
        break;
      }
      case 3:
        if (below(20) == 0) {
          mem.clear();
          for (auto& r : model) std::fill(r.begin(), r.end(), 0);
        }
        break;
      case 4: {
        Slot& slot = slots[below(kSlots)];
        if (below(8) == 0) {
          slot.snap = mem.snapshot();
        } else {
          mem.snapshot_into(slot.snap);
        }
        slot.model = model;
        break;
      }
      case 5:
      case 6: {
        const Slot& slot = slots[below(kSlots)];
        if (slot.snap.empty()) break;
        mem.restore(slot.snap);
        model = slot.model;
        break;
      }
      case 7:
        if (below(10) == 0) {
          const std::size_t src = below(kMems);
          mems[m] = mems[src];  // fresh identity for the target
          models[m] = models[src];
        }
        break;
    }

    for (std::size_t i = 0; i < kMems; ++i) {
      for (std::size_t r = 0; r < num_regions; ++r) {
        ASSERT_EQ(mems[i].regions()[r].data, models[i][r])
            << "op " << op << " kind " << kind << " memory " << i;
      }
    }
    for (const Slot& slot : slots) {
      for (std::size_t r = 0; r < slot.snap.regions.size(); ++r) {
        ASSERT_EQ(slot.snap.regions[r].data, slot.model[r]) << "op " << op;
      }
    }
    // Soundness of the page query: "in sync" must imply equal words.
    for (std::size_t i = 0; i < kMems; ++i) {
      for (std::size_t j = 0; j < kMems; ++j) {
        for (std::size_t r = 0; r < num_regions; ++r) {
          const Memory::Region& ri_reg = mems[i].regions()[r];
          for (std::size_t p = 0; p < ri_reg.pages(); ++p) {
            if (!mems[i].page_synced_with(mems[j], r, p)) continue;
            ++proven;
            const Addr lo = static_cast<Addr>(p) * Memory::kPageWords;
            for (Addr w = lo; w < lo + ri_reg.page_words(p); ++w) {
              ASSERT_EQ(ri_reg.data[w], mems[j].regions()[r].data[w])
                  << "op " << op << ": memory " << i << " claims page " << p
                  << " of region " << r << " in sync with memory " << j;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(proven, 10000u) << "the query never had anything to prove";
}

TEST(MemoryTest, HintedAccessesCheckRegionAndPermission) {
  Memory mem;
  mem.map(0x1000, 16, Perm::ReadWrite, "data");
  mem.map(0x2000, 16, Perm::Read, "rodata");
  mem.poke(0x2004, 9);
  Memory::Hint hint = Memory::kNoHint;
  Word v = 0;

  // A miss looks the region up and teaches the hint; a hit reads through.
  ASSERT_FALSE(mem.write(0x1003, 7, hint));
  EXPECT_EQ(hint, 0);
  ASSERT_FALSE(mem.read(0x1003, v, hint));
  EXPECT_EQ(v, 7u);

  // A hint learned from a read of rodata still raises #GP on a write, and
  // the word keeps its value.
  ASSERT_FALSE(mem.read(0x2004, v, hint));
  EXPECT_EQ(hint, 1);
  EXPECT_EQ(v, 9u);
  const Trap gp = mem.write(0x2004, 1, hint);
  EXPECT_EQ(gp.kind, TrapKind::GeneralProtection);
  EXPECT_EQ(gp.fault_addr, 0x2004u);
  EXPECT_EQ(mem.peek(0x2004), 9u);

  // A hinted region that does not contain the address misses: an
  // unmapped address faults and leaves the hint alone.
  Trap pf = mem.read(0x2010, v, hint);
  EXPECT_EQ(pf.kind, TrapKind::PageFault);
  EXPECT_EQ(pf.fault_addr, 0x2010u);
  pf = mem.write(0x0fff, 1, hint);
  EXPECT_EQ(pf.kind, TrapKind::PageFault);
  EXPECT_EQ(pf.fault_addr, 0x0fffu);
  EXPECT_EQ(hint, 1);

  // Any index at or past the region count is a miss, never an index.
  for (const Memory::Hint stale : {Memory::Hint{2}, Memory::Hint{200},
                                   Memory::kNoHint}) {
    hint = stale;
    ASSERT_FALSE(mem.read(0x1003, v, hint));
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(hint, 0);
  }
}

TEST(MemoryTest, LookupMatchesLinearScanAcrossBuckets) {
  // Hint misses look regions up through a table of 1 Mi-word buckets
  // when the regions span at most 4096 buckets, and binary search
  // otherwise.  Both must agree with a plain scan at every region edge
  // and every bucket edge: regions sharing a bucket, a region straddling
  // buckets, a gap of empty buckets, and a span too wide for the table.
  constexpr Addr kMi = Addr{1} << 20;
  struct Layout {
    std::vector<std::pair<Addr, Addr>> regions;  // (base, size)
  };
  const Layout layouts[] = {
      {{{0xa00000, 0x200}, {0xe00000, 0x200}, {0xe01000, 0x200},
        {0x100000, 0x800}, {0xf00000, 0x100}}},
      {{{3 * kMi - 8, 16}, {3 * kMi + 8, kMi}, {9 * kMi, 1}}},
      {{{0x100, 16}, {0x10000, 16}, {0x8000000000000000ull, 16}}},
  };
  for (const Layout& layout : layouts) {
    Memory mem;
    std::vector<Addr> probes;
    for (const auto& [base, size] : layout.regions) {
      mem.map(base, size, Perm::ReadWrite, "r");
      for (const Addr edge : {base, base + size}) {
        for (Addr d = 0; d < 3; ++d) probes.push_back(edge + d - 1);
        const Addr bucket = edge & ~(kMi - 1);
        for (Addr d = 0; d < 3; ++d) probes.push_back(bucket + d - 1);
        probes.push_back(bucket + kMi);
      }
    }
    probes.push_back(0);
    probes.push_back(~Addr{0});
    for (const Addr a : probes) {
      const Memory::Region* want = nullptr;
      for (const Memory::Region& r : mem.regions()) {
        if (r.contains(a)) want = &r;
      }
      Memory::Hint hint = Memory::kNoHint;
      Word v = 0;
      const Trap t = mem.read(a, v, hint);
      EXPECT_EQ(t.kind, want ? TrapKind::None : TrapKind::PageFault)
          << "addr " << a;
      EXPECT_EQ(mem.region_at(a), want) << "addr " << a;
      if (want != nullptr) {
        EXPECT_EQ(&mem.regions()[hint], want) << "addr " << a;
      } else {
        EXPECT_EQ(hint, Memory::kNoHint) << "addr " << a;
      }
    }
  }
}

TEST(MemoryTest, MapRefusesMoreRegionsThanAHintCanName) {
  Memory mem;
  for (std::size_t i = 0; i < Memory::kMaxRegions; ++i) {
    mem.map(static_cast<Addr>(i) * 16, 4, Perm::ReadWrite, "r");
  }
  EXPECT_THROW(mem.map(0x100000, 4, Perm::ReadWrite, "one too many"),
               std::invalid_argument);
  Memory::Hint hint = Memory::kNoHint;
  Word v = 1;
  const Addr last = static_cast<Addr>(Memory::kMaxRegions - 1) * 16;
  ASSERT_FALSE(mem.read(last + 3, v, hint));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(hint, static_cast<Memory::Hint>(Memory::kMaxRegions - 1));
}

TEST(MemoryTest, CopiesAnswerLookupsLikeTheOriginal) {
  // The copy constructor and operator= list their members by hand; every
  // lookup path (plain, hinted with any hint, host-side) must answer on a
  // copy exactly as on the original.  `wide` has more regions than
  // `original`, in more lookup buckets, so an assignment that kept its
  // region count or bucket table would index past the copied regions.
  Memory original;
  original.map(0x1000, 16, Perm::ReadWrite, "data");
  original.map(0x2000, 16, Perm::Read, "rodata");
  original.map(0x3000, 16, Perm::ReadWrite, "stack");
  original.poke(0x1001, 11);
  original.poke(0x2002, 22);
  original.poke(0x300f, 33);

  constexpr Addr kMi = Addr{1} << 20;
  Memory wide;
  for (Addr i = 0; i < 6; ++i) wide.map(i * kMi, 4, Perm::Read, "w");
  const Memory constructed(original);
  wide = original;

  // The last four probes fall in `wide`'s old regions.
  const Addr probes[] = {0x1001, 0x100f, 0x2002,      0x3000,
                         0x300f, 0x0fff, 0x1010,      0x2fff,
                         0x3010, kMi,    3 * kMi + 1, 4 * kMi + 2,
                         5 * kMi + 3};
  const Memory* const copies[] = {&constructed, &wide};
  for (const Memory* copy : copies) {
    ASSERT_EQ(copy->regions().size(), original.regions().size());
    for (const Addr a : probes) {
      const std::string what = "addr " + std::to_string(a);
      EXPECT_EQ(copy->is_mapped(a), original.is_mapped(a)) << what;
      Word want = 0, got = 0;
      const Trap want_trap = original.read(a, want);
      const Trap got_trap = copy->read(a, got);
      EXPECT_EQ(got_trap.kind, want_trap.kind) << what;
      EXPECT_EQ(got, want) << what;
      for (int h = 0; h <= 8; ++h) {
        Memory::Hint hint = static_cast<Memory::Hint>(h);
        Memory::Hint want_hint = hint;
        got = 0;
        const Trap hinted = copy->read(a, got, hint);
        Word unused = 0;
        original.read(a, unused, want_hint);
        EXPECT_EQ(hinted.kind, want_trap.kind) << what << " hint " << h;
        EXPECT_EQ(got, want) << what << " hint " << h;
        EXPECT_EQ(hint, want_hint) << what << " hint " << h;
      }
    }
  }

  // Writes through each copy land in the copy alone, with the original's
  // permissions.
  Memory written(original);
  Memory::Hint hint = Memory::kNoHint;
  EXPECT_FALSE(written.write(0x3001, 5, hint));
  EXPECT_EQ(written.write(0x2001, 5, hint).kind,
            TrapKind::GeneralProtection);
  EXPECT_EQ(written.peek(0x3001), 5u);
  EXPECT_EQ(original.peek(0x3001), 0u);
}

TEST(MemoryTest, BitFlippedPointerLandsOutsideRegions) {
  // The property the fault model relies on: flipping a high bit of a valid
  // pointer almost always leaves every mapped region.
  Memory mem;
  mem.map(0x10000, 1024, Perm::ReadWrite, "hv_data");
  const Addr ptr = 0x10010;
  int out_of_range = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (!mem.is_mapped(ptr ^ (Addr{1} << bit))) ++out_of_range;
  }
  EXPECT_GE(out_of_range, 50);
}

}  // namespace
}  // namespace xentry::sim
