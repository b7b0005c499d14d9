// Capacity-bounded file cache of a site's data server.
//
// The paper measures storage capacity in number of (equally-sized) files
// (Table 1), so capacity here is a file count. The cache additionally
// maintains:
//
//   - pinning: files needed by a task that is currently fetching or
//     executing are pinned and never evicted (assumption 5 of the paper's
//     model requires all of a task's files to be present for its whole
//     execution);
//   - persistent reference counts r_i ("the number of past references of
//     the file i at the local storage", Sec. 4.2) — these survive
//     eviction, and feed the `combined` metric;
//   - a change listener so schedulers can maintain incremental
//     per-(site, task) overlap indexes instead of rescanning caches.
//
// Eviction policies: LRU (default), FIFO, and MinRef (evict the file with
// the fewest past references) for the eviction-policy ablation bench.
//
// Storage layout: two tables. Every catalog file has one 8-byte record
// (pool node + 1, 0 when absent; persistent ref count) in a
// common::PagedTable: a directory of one page pointer per 128 catalog
// files, sized at BlockMap::num_files() on the first insert (never in
// the constructor), and 1 KiB pages of 128 records carved, zeroed, the
// first time a file of the page is inserted. A site whose files cluster
// in a slice of the catalog therefore pays 8 B per file of each touched
// page plus 8 B per 128 catalog files, not 8 B per catalog file. A file
// whose page was never carved reads as absent with 0 refs. The first
// chunk of pages is sized from the capacity (a full cache touches at
// least capacity / 128 pages); later chunks double. Only resident files
// own a 16-byte node (file id, pin count, intrusive prev/next links
// forming the eviction order) in a pool reserved once to the most files
// the block budget admits; evicted nodes go on a free list threaded
// through `next`. Hits, misses and evictions allocate nothing, except
// an insert whose page needs a new chunk: O(log pages) times per cache.
//
// Block accounting (docs/data-plane.md): residency and eviction order
// are file-granular, but capacity is accounted in refcounted content
// BLOCKS of the shared BlockMap, so files whose extents overlap share
// bytes instead of holding them twice. With disjoint extents of one
// size (content_overlap == 0 on a uniform catalog, the default) every
// decision reduces exactly to the paper's file-count law (at most
// capacity_files resident files).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/paged_table.h"
#include "common/units.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/block_store.h"

namespace wcs::sim {
class Simulator;
}  // namespace wcs::sim

namespace wcs::storage {

enum class EvictionPolicy { kLru, kFifo, kMinRef };

[[nodiscard]] const char* to_string(EvictionPolicy policy);

enum class CacheEvent {
  kAdded,     // file inserted into the cache
  kEvicted,   // file evicted to make room
  kAccessed,  // reference count incremented (file is present)
};

using CacheListener = std::function<void(CacheEvent, FileId)>;

class FileCache {
 public:
  // `blocks` must outlive the cache. Capacity is capacity_files *
  // blocks-per-file BLOCKS, allocatable at block granularity: a resident
  // file holds a reference on every block of its extent, blocks shared
  // with other residents are held once, and eviction frees only the
  // blocks no other resident covers.
  FileCache(const BlockMap& blocks, std::size_t capacity_files,
            EvictionPolicy policy)
      : capacity_(capacity_files),
        policy_(policy),
        blocks_(blocks),
        capacity_blocks_(static_cast<std::uint64_t>(capacity_files) *
                         blocks.blocks_per_file_max()) {
    WCS_CHECK(capacity_files > 0);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return resident_count_; }
  [[nodiscard]] EvictionPolicy policy() const { return policy_; }

  [[nodiscard]] bool contains(FileId f) const {
    const FileRecord* r = files_.find(f.value());
    return r != nullptr && r->node != kAbsent;
  }

  // Record a task's use of a present file: bumps r_i, refreshes recency.
  // The file must be present.
  void record_access(FileId f);

  // Insert a missing file, evicting unpinned files as needed. Throws if
  // the cache is full of pinned files (an invalid configuration — see
  // GridConfig validation). The file must not be present.
  void insert(FileId f);

  // Insert if enough unpinned state can be evicted to make room; returns
  // false and leaves the cache untouched otherwise. Used by opportunistic
  // writers (proactive replication) that must not abort the simulation on
  // a transiently full cache.
  bool try_insert(FileId f);

  // True if insert(f) would succeed without throwing. Depends on how
  // much of f's extent pinned residents already cover.
  [[nodiscard]] bool has_insert_room(FileId f) const;

  // Pin/unpin; pins nest. The file must be present.
  void pin(FileId f);
  void unpin(FileId f);
  [[nodiscard]] bool pinned(FileId f) const;

  // Past references r_i of a file at this storage; persists across
  // eviction. Zero for files never seen here.
  [[nodiscard]] std::size_t ref_count(FileId f) const {
    const FileRecord* r = files_.find(f.value());
    return r != nullptr ? r->refs : 0;
  }

  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  // Snapshot of resident file ids (ascending id order).
  [[nodiscard]] std::vector<FileId> contents() const;

  // Read-only state snapshot for the invariant auditor: occupancy vs
  // capacity, pin counts, structural soundness of the eviction order
  // (links round-trip, bounded walk) and the node pool's recounts
  // (record <-> node links, live + free == pool size) and the record
  // table's page directory (every entry a distinct carved page, as many
  // entries as carved pages). `label` names
  // this cache in violation reports (audit::check_cache_coherence).
  [[nodiscard]] audit::CacheAuditSnapshot audit_snapshot(
      std::string label) const;

  // --- Block accounting --------------------------------------------------
  // Bytes a fetch of `f` must actually move: the blocks of f's extent no
  // resident file covers. 0 for resident files.
  [[nodiscard]] Bytes missing_bytes(FileId f) const;

  // Full block-granular size of `f` (>= missing_bytes; the difference is
  // the dedup saving of a fetch issued now).
  [[nodiscard]] Bytes file_bytes(FileId f) const {
    return blocks_.file_bytes(f);
  }

  [[nodiscard]] std::uint64_t capacity_blocks() const {
    return capacity_blocks_;
  }
  [[nodiscard]] std::uint64_t physical_blocks() const {
    return physical_blocks_;
  }
  [[nodiscard]] std::uint64_t pinned_blocks() const {
    return pinned_blocks_;
  }

  // Block-store page accounting snapshot for the invariant auditor
  // (audit::check_block_store).
  [[nodiscard]] audit::BlockStoreAuditSnapshot block_audit_snapshot(
      std::string label) const;

  // At most one listener; pass nullptr-like (default constructed) to
  // clear. Fired synchronously on every mutation.
  void set_listener(CacheListener listener) { listener_ = std::move(listener); }

  // Attach observability instruments (the single listener slot belongs to
  // the scheduler's incremental index, so tracing gets its own hook).
  // `sim` (not owned; must outlive the cache) supplies the simulated
  // clock and is only read on actual evictions; `track` is this cache's
  // site id for the trace timeline. Read-only: never changes victim
  // selection.
  void set_obs(obs::PhaseProfiler* profiler, obs::EventTracer* tracer,
               const sim::Simulator* sim, std::uint32_t track) {
    profiler_ = profiler;
    tracer_ = tracer;
    sim_ = sim;
    obs_track_ = track;
  }

 private:
  static constexpr std::uint32_t kNull = 0xffffffffu;  // no node
  static constexpr std::uint32_t kAbsent = 0;          // FileRecord::node

  // One 8-byte record per catalog file of a carved page. `node` is 1 +
  // the index of the file's pool node while it is resident, kAbsent
  // otherwise; refs persists across eviction.
  struct FileRecord {
    std::uint32_t node = kAbsent;
    std::uint32_t refs = 0;
  };
  static_assert(sizeof(FileRecord) == 8);

  // One 16-byte node per resident file. prev/next thread the live nodes
  // into the eviction order (head = next candidate); a free node is
  // chained into the free list through `next`.
  struct Node {
    std::uint32_t file = 0;
    std::uint32_t prev = kNull;
    std::uint32_t next = kNull;
    std::uint32_t pins = 0;
  };
  static_assert(sizeof(Node) == 16);

  [[nodiscard]] Node& node_of(FileId f) {
    return pool_[files_[f.value()].node - 1];
  }
  [[nodiscard]] const Node& node_of(FileId f) const {
    return pool_[files_[f.value()].node - 1];
  }

  // Sizes the record directory, and reserves the node pool, on the
  // first insert.
  void allocate_tables();
  [[nodiscard]] std::uint32_t take_node(FileId f);
  void free_node(std::uint32_t idx);

  void link_back(std::uint32_t idx);
  void unlink(std::uint32_t idx);

  void evict_one();
  // Pool index of the next victim, kNull when every resident is pinned.
  [[nodiscard]] std::uint32_t pick_victim() const;
  void notify(CacheEvent e, FileId f) {
    if (listener_) listener_(e, f);
  }

  // Blocks of f's extent covered by OTHER files satisfying the predicate
  // (resident, or resident-and-pinned). Because extents are contiguous
  // ranges of one shared length, only the nearest qualifying neighbour on
  // each side matters: O(neighbour_span) with no per-block state.
  [[nodiscard]] std::uint64_t covered_blocks(FileId f,
                                             bool pinned_only) const;
  // Blocks of f's extent NOT covered by any other qualifying file.
  [[nodiscard]] std::uint64_t exclusive_blocks(FileId f,
                                               bool pinned_only) const;

  std::size_t capacity_ = 0;
  EvictionPolicy policy_ = EvictionPolicy::kLru;

  common::PagedTable<FileRecord> files_;  // empty until the first insert
  std::vector<Node> pool_;
  std::uint32_t free_ = kNull;  // free-list head
  std::uint32_t head_ = kNull;  // next eviction candidate
  std::uint32_t tail_ = kNull;  // most recently inserted/accessed
  std::size_t resident_count_ = 0;

  // physical_/pinned_ count distinct blocks covered by >= 1 resident /
  // pinned-resident file, maintained incrementally on
  // insert/evict/pin/unpin transitions.
  const BlockMap& blocks_;
  std::uint64_t capacity_blocks_ = 0;
  std::uint64_t physical_blocks_ = 0;
  std::uint64_t pinned_blocks_ = 0;

  std::uint64_t evictions_ = 0;
  CacheListener listener_;

  // Observability (null/empty when disabled).
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  const sim::Simulator* sim_ = nullptr;
  std::uint32_t obs_track_ = 0;
};

}  // namespace wcs::storage
