#include "storage/file_cache.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/simulator.h"

namespace wcs::storage {

const char* to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kFifo: return "fifo";
    case EvictionPolicy::kMinRef: return "minref";
  }
  return "?";
}

void FileCache::allocate_tables() {
  // Residents never outnumber what the block budget admits (nor the
  // catalog), so the pool never grows past this reservation, and a full
  // cache's residents fill at least that many records' worth of pages.
  const auto residents = static_cast<std::size_t>(
      std::min<std::uint64_t>(blocks_.max_resident_files(capacity_blocks_),
                              blocks_.num_files()));
  using Records = common::PagedTable<FileRecord>;
  files_.reset(blocks_.num_files(),
               (residents + Records::kPageIds - 1) / Records::kPageIds);
  pool_.reserve(residents);
}

std::uint32_t FileCache::take_node(FileId f) {
  std::uint32_t idx = free_;
  if (idx != kNull) {
    free_ = pool_[idx].next;
  } else {
    WCS_DCHECK(pool_.size() < pool_.capacity());  // never reallocates
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& n = pool_[idx];
  n.file = f.value();
  n.pins = 0;
  files_.touch(f.value()).node = idx + 1;
  return idx;
}

void FileCache::free_node(std::uint32_t idx) {
  Node& n = pool_[idx];
  files_[n.file].node = kAbsent;
  n.prev = kNull;
  n.next = free_;
  free_ = idx;
}

void FileCache::link_back(std::uint32_t idx) {
  Node& n = pool_[idx];
  n.prev = tail_;
  n.next = kNull;
  if (tail_ != kNull) {
    pool_[tail_].next = idx;
  } else {
    head_ = idx;
  }
  tail_ = idx;
}

void FileCache::unlink(std::uint32_t idx) {
  Node& n = pool_[idx];
  if (n.prev != kNull) {
    pool_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNull) {
    pool_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
  n.prev = n.next = kNull;
}

void FileCache::record_access(FileId f) {
  WCS_CHECK_MSG(contains(f), "access to absent file " << f);
  FileRecord& r = files_[f.value()];
  ++r.refs;
  if (policy_ == EvictionPolicy::kLru) {
    unlink(r.node - 1);
    link_back(r.node - 1);
  }
  notify(CacheEvent::kAccessed, f);
}

std::uint64_t FileCache::covered_blocks(FileId f, bool pinned_only) const {
  if (!blocks_.shared()) return 0;  // disjoint extents never overlap
  const std::uint32_t n = blocks_.blocks(f);
  const std::uint32_t stride = blocks_.stride();
  const std::uint32_t span = blocks_.neighbour_span();
  const std::size_t num_files = blocks_.num_files();
  auto qualifies = [&](std::uint32_t id) {
    const FileRecord* r = files_.find(id);
    if (r == nullptr || r->node == kAbsent) return false;
    return !pinned_only || pool_[r->node - 1].pins > 0;
  };
  // Nearest qualifying neighbour on each side gives the maximal cover:
  // extents all have length n, so a closer neighbour's extent strictly
  // contains the overlap any farther one contributes.
  std::uint64_t left = 0;   // prefix of f's extent covered from below
  std::uint64_t right = 0;  // suffix covered from above
  for (std::uint32_t j = 1; j <= span; ++j) {
    if (f.value() >= j && qualifies(f.value() - j)) {
      left = n - static_cast<std::uint64_t>(j) * stride;
      break;
    }
  }
  for (std::uint32_t j = 1; j <= span; ++j) {
    if (f.value() + j < num_files && qualifies(f.value() + j)) {
      right = n - static_cast<std::uint64_t>(j) * stride;
      break;
    }
  }
  return std::min<std::uint64_t>(n, left + right);
}

std::uint64_t FileCache::exclusive_blocks(FileId f, bool pinned_only) const {
  return blocks_.blocks(f) - covered_blocks(f, pinned_only);
}

Bytes FileCache::missing_bytes(FileId f) const {
  if (contains(f)) return 0;
  const std::uint64_t missing = exclusive_blocks(f, /*pinned_only=*/false);
  if (!blocks_.shared()) {
    // Disjoint extents: an absent file misses its whole (exact) size.
    return blocks_.file_bytes(f);
  }
  return missing * blocks_.block_size();
}

void FileCache::insert(FileId f) {
  WCS_CHECK_MSG(!contains(f), "file " << f << " already cached");
  if (files_.empty()) allocate_tables();
  // Evict until f's uncovered blocks fit. Evicting can uncover blocks f
  // shares with the victim, so the need is re-derived per round; the
  // victim leaves the resident set each time, so the loop is finite.
  std::uint64_t need = exclusive_blocks(f, /*pinned_only=*/false);
  while (physical_blocks_ + need > capacity_blocks_) {
    evict_one();
    need = exclusive_blocks(f, /*pinned_only=*/false);
  }
  physical_blocks_ += need;
  link_back(take_node(f));
  ++resident_count_;
  notify(CacheEvent::kAdded, f);
}

bool FileCache::has_insert_room(FileId f) const {
  // Worst case, every unpinned resident is evicted: what remains physical
  // is exactly the union of pinned extents, and the blocks of f still
  // covered are those under a pinned neighbour. insert(f) succeeds iff
  // that end state fits, since its eviction loop stops at or before it.
  return pinned_blocks_ + exclusive_blocks(f, /*pinned_only=*/true) <=
         capacity_blocks_;
}

bool FileCache::try_insert(FileId f) {
  if (!has_insert_room(f)) return false;
  insert(f);
  return true;
}

std::uint32_t FileCache::pick_victim() const {
  if (policy_ == EvictionPolicy::kMinRef) {
    // Min (refs, id) over resident unpinned files — a strict total
    // order, so the victim is independent of scan order. O(n); MinRef
    // is an ablation policy, not a hot default.
    std::uint32_t victim = kNull;
    std::uint32_t best_refs = 0;
    std::uint32_t best_file = 0;
    for (std::uint32_t i = head_; i != kNull; i = pool_[i].next) {
      const Node& n = pool_[i];
      if (n.pins > 0) continue;
      const std::uint32_t r = files_[n.file].refs;
      if (victim == kNull || r < best_refs ||
          (r == best_refs && n.file < best_file)) {
        victim = i;
        best_refs = r;
        best_file = n.file;
      }
    }
    return victim;
  }
  for (std::uint32_t i = head_; i != kNull; i = pool_[i].next)
    if (pool_[i].pins == 0) return i;
  return kNull;
}

void FileCache::evict_one() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kCacheEviction);
  const std::uint32_t idx = pick_victim();
  WCS_CHECK_MSG(idx != kNull,
                "cache full of pinned files (capacity " << capacity_
                << ") — capacity must cover the concurrent working set");
  const FileId victim(pool_[idx].file);
  // Only the blocks no other resident covers become free (the neighbour
  // scan never consults the victim itself, so compute before its record
  // drops the node).
  physical_blocks_ -= exclusive_blocks(victim, /*pinned_only=*/false);
  unlink(idx);
  free_node(idx);
  --resident_count_;
  ++evictions_;
  if (tracer_ && sim_) {
    obs::TraceSpan span;
    span.start = sim_->now();
    span.kind = obs::SpanKind::kEviction;
    span.track = obs_track_;
    tracer_->record(span);
  }
  notify(CacheEvent::kEvicted, victim);
}

void FileCache::pin(FileId f) {
  WCS_CHECK_MSG(contains(f), "pin of absent file " << f);
  if (node_of(f).pins++ == 0)
    pinned_blocks_ += exclusive_blocks(f, /*pinned_only=*/true);
}

void FileCache::unpin(FileId f) {
  WCS_CHECK_MSG(contains(f), "unpin of absent file " << f);
  Node& n = node_of(f);
  WCS_CHECK_MSG(n.pins > 0, "unpin of unpinned file " << f);
  if (--n.pins == 0)
    pinned_blocks_ -= exclusive_blocks(f, /*pinned_only=*/true);
}

bool FileCache::pinned(FileId f) const {
  WCS_CHECK_MSG(contains(f), "pinned() on absent file " << f);
  return node_of(f).pins > 0;
}

audit::CacheAuditSnapshot FileCache::audit_snapshot(std::string label) const {
  audit::CacheAuditSnapshot snap;
  snap.label = std::move(label);
  // Shared blocks let more than capacity_files files reside at once; the
  // bound is what the block budget admits (capacity_files at overlap 0).
  snap.capacity = static_cast<std::size_t>(
      blocks_.max_resident_files(capacity_blocks_));
  snap.occupancy = resident_count_;
  snap.pool_nodes = pool_.size();
  // Walk the free list first (bounded by the pool size, so a cycle
  // cannot hang the auditor) and mark its nodes.
  std::vector<char> is_free(pool_.size(), 0);
  for (std::uint32_t i = free_; i != kNull; i = pool_[i].next) {
    if (i >= pool_.size() || ++snap.free_nodes > pool_.size()) {
      snap.structural.push_back("free list leaves the pool or cycles");
      break;
    }
    is_free[i] = 1;
    if (pool_[i].pins != 0) {
      std::ostringstream os;
      os << "free node " << i << " still holds pins";
      snap.structural.push_back(os.str());
    }
  }
  // Full recount of the per-file records against the incremental
  // counter; every record's node must hold that file.
  std::size_t resident = 0;
  files_.for_each([&](std::size_t f, const FileRecord& r) {
    if (r.node == kAbsent) return;
    ++resident;
    if (r.node > pool_.size() || pool_[r.node - 1].file != f) {
      std::ostringstream os;
      os << "file " << f << "'s record points to node " << r.node - 1
         << ", which does not hold it";
      snap.structural.push_back(os.str());
      return;
    }
    if (is_free[r.node - 1] != 0) ++snap.referenced_free;
    if (pool_[r.node - 1].pins > 0) ++snap.pinned;
  });
  if (resident != resident_count_) {
    std::ostringstream os;
    os << "file records hold " << resident << " resident files but the "
       << "cache counts " << resident_count_;
    snap.structural.push_back(os.str());
  }
  // Walk the eviction order; every resident node must appear exactly
  // once and the links must round-trip. Bound the walk so a cycle
  // cannot hang the auditor.
  std::uint32_t prev = kNull;
  for (std::uint32_t i = head_; i != kNull; i = pool_[i].next) {
    if (i >= pool_.size()) {
      snap.structural.push_back("eviction order leaves the node pool");
      break;
    }
    if (++snap.live_nodes > resident_count_) {
      snap.structural.push_back(
          "eviction order is longer than the resident count (cycle?)");
      break;
    }
    const Node& n = pool_[i];
    const FileRecord* r = files_.find(n.file);
    if (r == nullptr || r->node != i + 1) ++snap.unreferenced_live;
    if (n.prev != prev) {
      std::ostringstream os;
      os << "node " << i << " (file " << n.file
         << ") order position does not round-trip";
      snap.structural.push_back(os.str());
    }
    prev = i;
  }
  if (snap.live_nodes != resident_count_ && snap.structural.empty()) {
    std::ostringstream os;
    os << "eviction order holds " << snap.live_nodes << " files but "
       << resident_count_ << " are resident";
    snap.structural.push_back(os.str());
  }
  if (tail_ != prev) {
    snap.structural.push_back("eviction order tail does not round-trip");
  }
  const auto pages = files_.audit();
  snap.directory_pages = pages.directory_pages;
  snap.carved_pages = pages.carved_pages;
  snap.stray_pages = pages.stray_pages;
  snap.shared_pages = pages.shared_pages;
  return snap;
}

audit::BlockStoreAuditSnapshot FileCache::block_audit_snapshot(
    std::string label) const {
  audit::BlockStoreAuditSnapshot snap;
  snap.label = std::move(label);
  snap.capacity_blocks = capacity_blocks_;
  snap.physical_blocks = physical_blocks_;
  snap.pinned_blocks = pinned_blocks_;
  // From-scratch recount: resident extents in ascending id order are
  // sorted by first block, so the union is one forward sweep.
  std::uint64_t physical_end = 0;  // exclusive end of the union so far
  std::uint64_t pinned_end = 0;
  bool physical_any = false;
  bool pinned_any = false;
  auto accumulate = [](std::uint64_t& total, std::uint64_t& end, bool& any,
                       const BlockMap::Extent& e) {
    const std::uint64_t begin =
        any ? std::max(e.first, end) : e.first;
    const std::uint64_t stop = e.first + e.count;
    if (stop > begin) total += stop - begin;
    end = any ? std::max(end, stop) : stop;
    any = true;
  };
  files_.for_each([&](std::size_t i, const FileRecord& r) {
    if (r.node == kAbsent) return;
    const BlockMap::Extent e =
        blocks_.extent(FileId(static_cast<FileId::underlying_type>(i)));
    snap.file_block_refs += e.count;
    accumulate(snap.recount_physical, physical_end, physical_any, e);
    // A dangling record is cache-coherence's finding; skip, not crash.
    if (r.node <= pool_.size() && pool_[r.node - 1].pins > 0)
      accumulate(snap.recount_pinned, pinned_end, pinned_any, e);
  });
  return snap;
}

std::vector<FileId> FileCache::contents() const {
  std::vector<FileId> out;
  out.reserve(resident_count_);
  files_.for_each([&](std::size_t i, const FileRecord& r) {
    if (r.node != kAbsent)
      out.push_back(FileId(static_cast<FileId::underlying_type>(i)));
  });
  return out;
}

}  // namespace wcs::storage
