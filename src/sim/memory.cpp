#include "sim/memory.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace xentry::sim {

namespace {

// Campaign shards construct Machines (and thus Memories) concurrently.
std::uint64_t next_memory_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Memory::Memory() : id_(next_memory_id()) {}

Memory::Memory(const Memory& other)
    : regions_(other.regions_),
      sync_(other.sync_),
      sync_source_(other.sync_source_),
      id_(next_memory_id()),
      nregions_(other.nregions_),
      buckets_(other.buckets_),
      bucket_lo_(other.bucket_lo_) {}

Memory& Memory::operator=(const Memory& other) {
  if (this != &other) {
    regions_ = other.regions_;
    sync_ = other.sync_;
    sync_source_ = other.sync_source_;
    nregions_ = other.nregions_;
    buckets_ = other.buckets_;
    bucket_lo_ = other.bucket_lo_;
    // Fresh identity: snapshots captured from the old contents must not
    // be mistaken for captures of the newly assigned contents.
    id_ = next_memory_id();
  }
  return *this;
}

std::size_t Memory::map(Addr base, Addr size, Perm perm, std::string name) {
  if (size == 0) throw std::invalid_argument("Memory::map: empty region");
  if (regions_.size() >= kMaxRegions) {
    throw std::invalid_argument("Memory::map: too many regions");
  }
  for (const Region& r : regions_) {
    const bool disjoint = base + size <= r.base || r.base + r.size <= base;
    if (!disjoint) {
      throw std::invalid_argument("Memory::map: region '" + name +
                                  "' overlaps '" + r.name + "'");
    }
  }
  Region region;
  region.base = base;
  region.size = size;
  region.perm = perm;
  region.name = std::move(name);
  region.data.assign(size, 0);
  region.gens.assign((size + kPageWords - 1) >> kPageShift, 0);
  const std::size_t pages = region.gens.size();
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), base,
      [](Addr b, const Region& r) { return b < r.base; });
  it = regions_.insert(it, std::move(region));
  const std::size_t idx = static_cast<std::size_t>(it - regions_.begin());
  sync_.insert(sync_.begin() + static_cast<std::ptrdiff_t>(idx),
               std::vector<SyncState>(pages));
  nregions_ = static_cast<std::uint32_t>(regions_.size());
  index_buckets();
  return idx;
}

void Memory::index_buckets() {
  buckets_.clear();
  const Region& last = regions_.back();
  const Addr lo = regions_.front().base >> kBucketShift;
  const Addr hi = (last.base + (last.size - 1)) >> kBucketShift;
  if (hi - lo >= kMaxBuckets) return;
  bucket_lo_ = lo;
  buckets_.resize(static_cast<std::size_t>(hi - lo + 1));
  // The last region ends in the last bucket, so the scan stops in range.
  std::size_t i = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Addr start = (lo + b) << kBucketShift;
    while (regions_[i].base + regions_[i].size <= start) ++i;
    buckets_[b] = static_cast<Hint>(i);
  }
}

Memory::Hint Memory::search(Addr a) const {
  // Regions are sorted by base; find the last region with base <= a.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), a,
      [](Addr x, const Region& r) { return x < r.base; });
  if (it == regions_.begin()) return kNoHint;
  --it;
  if (!it->contains(a)) return kNoHint;
  return static_cast<Hint>(it - regions_.begin());
}

void Memory::abort_unmapped() {
  assert(false && "host-side access of an unmapped address");
  std::abort();
}

const Memory::Region* Memory::find(Addr a) const {
  const Hint i = locate(a);
  return i == kNoHint ? nullptr : &regions_[i];
}

Memory::Region* Memory::find(Addr a) {
  return const_cast<Region*>(static_cast<const Memory*>(this)->find(a));
}

Trap Memory::read_miss(Addr a, Word& out, Hint& hint) const {
  const Hint idx = locate(a);
  if (idx == kNoHint) return Trap{TrapKind::PageFault, a, 0};
  hint = idx;
  const Region& r = regions_[idx];
  out = r.data[a - r.base];
  return {};
}

Trap Memory::write_miss(Addr a, Word v, Hint& hint) {
  const Hint idx = locate(a);
  if (idx == kNoHint) return Trap{TrapKind::PageFault, a, 0};
  hint = idx;
  Region& r = regions_[idx];
  if (r.perm != Perm::ReadWrite) {
    return Trap{TrapKind::GeneralProtection, a, 0};
  }
  store(r, a - r.base, v);
  return {};
}

Word* Memory::poke_span(Addr a, Addr len) {
  Region* r = find(a);
  assert(r != nullptr && "poke_span of unmapped address");
  if (r == nullptr || len == 0 || a - r->base + len > r->size) std::abort();
  const Addr off = a - r->base;
  for (Addr p = off >> kPageShift; p <= (off + len - 1) >> kPageShift; ++p) {
    ++r->gens[p];
  }
  return &r->data[off];
}

Memory::Snapshot Memory::snapshot() const {
  Snapshot snap;
  snapshot_into(snap);
  return snap;
}

void Memory::snapshot_into(Snapshot& out) const {
  const bool fresh =
      out.source_id != id_ || out.regions.size() != regions_.size();
  if (fresh) out.regions.resize(regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& r = regions_[i];
    Snapshot::RegionImage& img = out.regions[i];
    if (fresh || img.gens.size() != r.gens.size() ||
        img.data.size() != r.data.size()) {
      img.data = r.data;  // assign reuses existing capacity
      img.gens = r.gens;
      continue;
    }
    for (std::size_t p = 0; p < r.pages(); ++p) {
      if (img.gens[p] == r.gens[p]) continue;  // unchanged since capture
      const Addr lo = static_cast<Addr>(p) << kPageShift;
      std::copy_n(r.data.begin() + lo, r.page_words(p), img.data.begin() + lo);
      img.gens[p] = r.gens[p];
    }
  }
  out.source_id = id_;
}

void Memory::restore(const Snapshot& snap) {
  assert(snap.regions.size() == regions_.size());
  // Only an image carrying every page generation can prove a page in
  // sync; anything else is foreign and copied in full.
  bool tracked = snap.source_id != 0;
  for (std::size_t i = 0; tracked && i < regions_.size(); ++i) {
    tracked = snap.regions[i].gens.size() == regions_[i].pages();
  }
  const bool same_source = tracked && snap.source_id == sync_source_;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& r = regions_[i];
    const Snapshot::RegionImage& img = snap.regions[i];
    std::vector<SyncState>& sync = sync_[i];
    assert(img.data.size() == r.data.size());
    for (std::size_t p = 0; p < r.pages(); ++p) {
      const std::uint64_t source_gen = tracked ? img.gens[p] : 0;
      SyncState& s = sync[p];
      if (same_source && s.source_gen == source_gen &&
          s.own_gen == r.gens[p]) {
        continue;  // untouched on both sides since the last sync
      }
      const Addr lo = static_cast<Addr>(p) << kPageShift;
      std::copy_n(img.data.begin() + lo, r.page_words(p), r.data.begin() + lo);
      s.source_gen = source_gen;
      s.own_gen = ++r.gens[p];
    }
  }
  sync_source_ = tracked ? snap.source_id : 0;
}

std::size_t Memory::diff_spans(const Memory& other,
                               std::vector<WordDiff>& out) const {
  assert(other.regions_.size() == regions_.size());
  out.clear();
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& a = regions_[i];
    const Region& b = other.regions_[i];
    assert(a.base == b.base && a.size == b.size);
    if (a.data == b.data) continue;  // memcmp gate: no diffs in this region
    for (Addr off = 0; off < a.size; ++off) {
      const Word x = a.data[off] ^ b.data[off];
      if (x != 0) out.push_back(WordDiff{a.base + off, x});
    }
  }
  return out.size();
}

bool Memory::differs_from(const Memory& other) const {
  assert(other.regions_.size() == regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].data != other.regions_[i].data) return true;
  }
  return false;
}

void Memory::clear() {
  for (Region& r : regions_) {
    std::fill(r.data.begin(), r.data.end(), 0);
    for (std::uint64_t& g : r.gens) ++g;
  }
}

}  // namespace xentry::sim
