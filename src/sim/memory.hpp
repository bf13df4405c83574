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
//   - read/write cache the last two hit regions, since straight-line
//     code touches the same region on almost every consecutive access.
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
  /// Returns the region index, which stays stable for the Memory lifetime.
  std::size_t map(Addr base, Addr size, Perm perm, std::string name);

  /// Reads the word at `a` into `out`.  Returns a Trap (kind None on
  /// success).  No C++ exceptions: this is the simulator hot path.
  /// The last-two-hit-regions fast path lives here so call sites inline
  /// it; two entries cover the common stack/data alternation of handler
  /// code, which a single hint would thrash on.  Each hint is spelled out
  /// rather than routed through hinted(): in the engines' inlined loops
  /// the merged form measured ~20% fewer fast-engine steps/s.
  Trap read(Addr a, Word& out) const {
    if (hint_ < regions_.size()) {
      const Region& r = regions_[hint_];
      if (r.contains(a)) {
        out = r.data[a - r.base];
        return {};
      }
    }
    if (hint2_ < regions_.size()) {
      const Region& r = regions_[hint2_];
      if (r.contains(a)) {
        out = r.data[a - r.base];
        return {};
      }
    }
    return read_slow(a, out);
  }

  /// Writes `v` at `a`.  Returns a Trap (kind None on success).
  Trap write(Addr a, Word v) {
    if (hint_ < regions_.size()) {
      Region& r = regions_[hint_];
      if (r.contains(a) && r.perm == Perm::ReadWrite) {
        r.data[a - r.base] = v;
        ++r.gens[(a - r.base) >> kPageShift];
        return {};
      }
    }
    if (hint2_ < regions_.size()) {
      Region& r = regions_[hint2_];
      if (r.contains(a) && r.perm == Perm::ReadWrite) {
        r.data[a - r.base] = v;
        ++r.gens[(a - r.base) >> kPageShift];
        return {};
      }
    }
    return write_slow(a, v);
  }

  /// Unchecked accessors for host-side (non-simulated) setup and
  /// inspection.  Aborts if `a` is unmapped — programming error, not a
  /// simulated fault.
  Word peek(Addr a) const {
    if (const Region* r = hinted(a)) return r->data[a - r->base];
    return peek_slow(a);
  }
  void poke(Addr a, Word v) {
    if (Region* r = hinted(a)) {
      store(*r, a - r->base, v);
      return;
    }
    poke_slow(a, v);
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

  /// One of the two last-hit regions when it contains `a`, else nullptr.
  const Region* hinted(Addr a) const {
    if (hint_ < regions_.size() && regions_[hint_].contains(a)) {
      return &regions_[hint_];
    }
    if (hint2_ < regions_.size() && regions_[hint2_].contains(a)) {
      return &regions_[hint2_];
    }
    return nullptr;
  }
  Region* hinted(Addr a) {
    return const_cast<Region*>(static_cast<const Memory*>(this)->hinted(a));
  }
  static void store(Region& r, Addr off, Word v) {
    r.data[off] = v;
    ++r.gens[off >> kPageShift];
  }

  const Region* find(Addr a) const;
  Region* find(Addr a);
  Trap read_slow(Addr a, Word& out) const;
  Trap write_slow(Addr a, Word v);
  Word peek_slow(Addr a) const;
  void poke_slow(Addr a, Word v);

  std::vector<Region> regions_;               // sorted by base
  std::vector<std::vector<SyncState>> sync_;  // per page, parallel to regions_
  std::uint64_t sync_source_ = 0;  ///< source_id of the last restore (0: none)
  std::uint64_t id_ = 0;           ///< unique per instance (and per copy)
  mutable std::size_t hint_ = 0;  ///< last-hit region index (locality cache)
  mutable std::size_t hint2_ = 0; ///< previous distinct hit (2-way cache)
};

}  // namespace xentry::sim
