// Physical memory of the simulated machine.
//
// Memory is a set of mapped regions over a 64-bit word-address space.  Any
// access outside a mapped region raises #PF; a write to a read-only region
// raises #GP.  The sparseness is deliberate: a single bit flip in a pointer
// register usually lands far outside every region, which is exactly how
// soft errors manifest as "fatal system corruptions" the paper's runtime
// detection catches via hardware exceptions (Section III-A).
//
// Snapshot/restore is the fault-campaign hot path: every injection
// round-trips machine state several times.  Two mechanisms keep that
// cheap without changing observable contents:
//   - every region is cut into fixed pages of kPageWords words (the last
//     one may be partial), each with a generation counter bumped on every
//     mutation of the page, so snapshot capture, restore and golden/faulty
//     diffing touch only pages that provably changed since the last
//     capture/sync (see Snapshot) — cost follows the pages a run writes,
//     not the size of the regions it writes into;
//   - region lookup costs O(1): a simulated access first tries a region
//     hint its caller holds, and a miss, like every host-side peek/poke,
//     indexes a table of 1 Mi-word buckets (locate).  The Fast engine
//     keeps one hint per static instruction (see Cpu): one instruction
//     almost always touches the same region, while consecutive
//     instructions alternate between stack, hv_data, domains and vcpus,
//     so a hint shared by every access missed on a third of them.
//     Callers with no instruction to key a hint on (the Reference
//     engine, the shadow-stack mirror) look up every access.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace xentry::sim {

enum class Perm : std::uint8_t {
  Read = 1,
  ReadWrite = 3,
};

/// One word that differs between two Memories with identical mappings:
/// the compact (location, xor-mask) element of a corruption set.  The
/// forensics replay engine diffs golden/faulty state at every lockstep
/// checkpoint, so the representation carries no values — just where and
/// which bits.
struct WordDiff {
  Addr addr = 0;
  Word xor_mask = 0;  ///< a ^ b at `addr`; never zero
};

class Memory {
 public:
  /// Words per page, the unit of generation tracking.  Pages start at
  /// their region's base; a region's last page may be partial.
  static constexpr Addr kPageWords = 64;
  static constexpr unsigned kPageShift = 6;
  static_assert(Addr{1} << kPageShift == kPageWords);

  struct Region {
    Addr base = 0;
    Addr size = 0;  ///< in words
    Perm perm = Perm::ReadWrite;
    std::string name;
    std::vector<Word> data;
    /// Per-page mutation generations: gens[p] is bumped on every write,
    /// poke, restore-copy or clear that touches page p.  Equal
    /// generations between two points in time prove the page's contents
    /// did not change in between (the converse need not hold).
    std::vector<std::uint64_t> gens;

    bool contains(Addr a) const { return a >= base && a - base < size; }
    std::size_t pages() const { return gens.size(); }
    /// Words in page `p` (kPageWords except for a partial last page).
    Addr page_words(std::size_t p) const {
      const Addr lo = static_cast<Addr>(p) << kPageShift;
      return size - lo < kPageWords ? size - lo : kPageWords;
    }
  };

  /// A copy of all region contents, tagged with the source Memory's
  /// identity and per-page generations so a later restore (or
  /// re-capture via snapshot_into) can prove which pages are already
  /// up to date and skip them.  Equality compares contents only.
  struct Snapshot {
    struct RegionImage {
      std::vector<Word> data;
      /// Source page generations at capture.  Empty only in a foreign
      /// image (source_id 0), e.g. one decoded from a checkpoint journal.
      std::vector<std::uint64_t> gens;
    };
    std::uint64_t source_id = 0;  ///< Memory instance captured from (0: none)
    std::vector<RegionImage> regions;

    bool empty() const { return regions.empty(); }
    friend bool operator==(const Snapshot& a, const Snapshot& b) {
      if (a.regions.size() != b.regions.size()) return false;
      for (std::size_t i = 0; i < a.regions.size(); ++i) {
        if (a.regions[i].data != b.regions[i].data) return false;
      }
      return true;
    }
  };

  Memory();
  /// Copies share contents but get a fresh identity: snapshots taken from
  /// the copy must never be mistaken for snapshots of the original once
  /// the two diverge.
  Memory(const Memory& other);
  Memory& operator=(const Memory& other);
  Memory(Memory&&) = default;
  Memory& operator=(Memory&&) = default;

  /// Maps a region.  Regions must not overlap; they are kept sorted by base.
  /// Returns the region's index, which a later map() at a lower base
  /// shifts by one.  At most kMaxRegions regions can be mapped.
  std::size_t map(Addr base, Addr size, Perm perm, std::string name);

  /// A caller-held region hint: the index of the region the caller's
  /// last access through it hit.  Any value at or above the region count
  /// (kNoHint, say) is a miss, so a hint can never index out of range.
  using Hint = std::uint8_t;
  static constexpr Hint kNoHint = 0xff;
  /// map() refuses a region past this count, so a Hint names any region.
  static constexpr std::size_t kMaxRegions = kNoHint;

  /// Reads the word at `a` into `out`, trying region `hint` first.  A
  /// hit still checks that the region contains `a`; a miss looks the
  /// region up and stores its index in `hint`.  Returns a Trap (kind
  /// None on success).  No C++ exceptions: this is the simulator hot
  /// path, and the hit path lives here so the Fast engine inlines it.
  Trap read(Addr a, Word& out, Hint& hint) const {
    if (hint < nregions_) {
      const Region& r = regions_[hint];
      if (r.contains(a)) {
        out = r.data[a - r.base];
        return {};
      }
    }
    return read_miss(a, out, hint);
  }

  /// Writes `v` at `a`, trying region `hint` first; a hit still checks
  /// containment and Perm::ReadWrite, so a hint learned from a read of a
  /// read-only region still raises #GP.  Returns a Trap (kind None on
  /// success).
  Trap write(Addr a, Word v, Hint& hint) {
    if (hint < nregions_) {
      Region& r = regions_[hint];
      if (r.contains(a) && r.perm == Perm::ReadWrite) {
        store(r, a - r.base, v);
        return {};
      }
    }
    return write_miss(a, v, hint);
  }

  /// The accessors above with no hint of the caller's: one bucket lookup
  /// (locate) per access.  For callers without a static access site to
  /// key a hint on: the Reference engine, the shadow-stack mirror, tests.
  Trap read(Addr a, Word& out) const {
    Hint hint = kNoHint;
    return read(a, out, hint);
  }
  Trap write(Addr a, Word v) {
    Hint hint = kNoHint;
    return write(a, v, hint);
  }

  /// Unchecked accessors for host-side (non-simulated) setup and
  /// inspection.  Aborts if `a` is unmapped — programming error, not a
  /// simulated fault.
  Word peek(Addr a) const {
    const Region& r = regions_[mapped(a)];
    return r.data[a - r.base];
  }
  void poke(Addr a, Word v) {
    Region& r = regions_[mapped(a)];
    store(r, a - r.base, v);
  }

  /// Direct mutable view of `len` words starting at `a`, for host-side
  /// bulk setup (one region lookup instead of one per word; every page
  /// the span covers counts as written).  Aborts if the range is not
  /// fully inside one mapped region — programming error, not a simulated
  /// fault.
  Word* poke_span(Addr a, Addr len);

  /// Fills `out` with one WordDiff per word whose contents differ from
  /// `other`, in ascending address order, and returns the diff count.
  /// `other` must have identical region mappings (same map() calls).
  /// Regions whose contents compare equal are skipped via one memcmp, so
  /// the common nearly-converged comparison touches no per-word loop.
  /// `out` is cleared first and reused — the lockstep replay calls this
  /// once per checkpoint and must not reallocate per call.
  std::size_t diff_spans(const Memory& other, std::vector<WordDiff>& out) const;

  /// True when any mapped word differs from `other` (identical mappings
  /// required).  The existence-only form of diff_spans: one memcmp per
  /// region, early exit on the first mismatch — the lockstep divergence
  /// predicate evaluates this every chunk boundary.
  bool differs_from(const Memory& other) const;

  /// True when page `page` of region `region` provably holds the same
  /// words here as in `source` (identical mappings required): this
  /// memory was last restored from a snapshot of `source`, and neither
  /// side has mutated the page since.  False says nothing — the page may
  /// still be equal.  Golden/faulty diffing skips proven pages unread.
  bool page_synced_with(const Memory& source, std::size_t region,
                        std::size_t page) const {
    const SyncState& s = sync_[region][page];
    return sync_source_ != 0 && sync_source_ == source.id_ &&
           s.source_gen == source.regions_[region].gens[page] &&
           s.own_gen == regions_[region].gens[page];
  }

  bool is_mapped(Addr a) const { return find(a) != nullptr; }
  const Region* region_at(Addr a) const { return find(a); }
  const std::vector<Region>& regions() const { return regions_; }

  /// Snapshot of all region contents, for golden-run comparison and for
  /// re-running a faulted activation from a clean state.
  Snapshot snapshot() const;

  /// Like snapshot(), but reuses `out`'s buffers and skips pages whose
  /// generation shows `out` already holds their current contents.  The
  /// campaign loop re-captures the same Snapshot object every injection;
  /// only pages the last activation actually wrote get re-copied.
  void snapshot_into(Snapshot& out) const;

  /// Restores region contents from `snap`.  Incremental: a page is
  /// copied back only if it was mutated since the last sync with `snap`'s
  /// source, or if the source itself mutated it since that sync — pages
  /// untouched on both sides are provably identical and skipped.  A
  /// foreign image (source_id 0) is copied in full.
  void restore(const Snapshot& snap);

  /// Zero-fills every mapped region.
  void clear();

 private:
  /// Per-page record of the last restore: the snapshot's generation for
  /// the page, and our own generation right after.  Every restore covers
  /// every page, so the source identity is per Memory (sync_source_).
  struct SyncState {
    std::uint64_t source_gen = 0;
    std::uint64_t own_gen = 0;
  };

  static void store(Region& r, Addr off, Word v) {
    r.data[off] = v;
    ++r.gens[off >> kPageShift];
  }

  /// Index of the region containing `a`, or kNoHint: the lookup behind
  /// every hint miss and every host-side access.  Inline for the common
  /// case, the bucket's candidate region; the rest binary-searches.
  Hint locate(Addr a) const {
    const Addr b = (a >> kBucketShift) - bucket_lo_;
    if (b < buckets_.size()) {
      const Hint i = buckets_[b];
      if (regions_[i].contains(a)) return i;
    }
    return search(a);
  }
  /// Binary search over the regions: locate()'s fallback.
  Hint search(Addr a) const;
  /// locate(a), aborting when `a` is unmapped (host-side accessors).
  Hint mapped(Addr a) const {
    const Hint i = locate(a);
    if (i == kNoHint) abort_unmapped();
    return i;
  }
  [[noreturn]] static void abort_unmapped();
  /// Rebuilds buckets_ after a map().
  void index_buckets();
  const Region* find(Addr a) const;
  Region* find(Addr a);
  Trap read_miss(Addr a, Word& out, Hint& hint) const;
  Trap write_miss(Addr a, Word v, Hint& hint);

  std::vector<Region> regions_;               // sorted by base
  std::vector<std::vector<SyncState>> sync_;  // per page, parallel to regions_
  std::uint64_t sync_source_ = 0;  ///< source_id of the last restore (0: none)
  std::uint64_t id_ = 0;           ///< unique per instance (and per copy)
  /// regions_.size(), cached: the size of a vector of 104-byte Regions
  /// costs a division on every access.  32 bits wide so the engines'
  /// 64-bit register stores cannot alias it.
  std::uint32_t nregions_ = 0;
  /// O(1) lookup behind locate(): bucket b covers the addresses
  /// [(bucket_lo_ + b) << kBucketShift, +1 << kBucketShift) and names the
  /// first region ending above the bucket's start, the only region in
  /// the bucket unless two share it (the machine layout aligns every
  /// region to a bucket; its stack and shadow stack share one).  Empty,
  /// so that locate() always searches, when the regions span more than
  /// kMaxBuckets buckets.
  static constexpr unsigned kBucketShift = 20;
  static constexpr std::size_t kMaxBuckets = 4096;
  std::vector<Hint> buckets_;
  Addr bucket_lo_ = 0;
};

}  // namespace xentry::sim
