// Sharded pending-task index: the structure behind the O(log B + n)
// ChooseTask(n) fast path (DESIGN.md §Performance architecture, layer 4).
//
// The paper's worker-centric loop scores EVERY pending task on each idle
// worker request. PR 1 made each score O(1) (incremental per-(site, task)
// overlap/ref-sum counters); the scan itself stayed O(|pending|). This
// index removes the scan: pending tasks are partitioned into buckets
// keyed by their site-local weight class —
//
//   overlap metric   key = |F_t|          (files already at the site)
//   rest metric      key = |t| - |F_t|    (files still missing)
//   combined metric  key = |t| - |F_t|,   rank = ref_t within the bucket
//   storage affinity key = byte overlap against the site cache
//
// — so a request walks buckets best-first and stops after the top n
// entries instead of touching every task. Buckets are a std::map (sparse
// key space: byte overlaps reach gigabytes) of std::set entries ordered
// (rank descending, then task id); every mutation is O(log B + log |b|).
//
// COHERENCE INVARIANT: the index holds exactly the schedulable task set,
// and each entry's (key, rank) equals what a brute-force recompute from
// the live cache would produce. Owners re-key entries from the same
// cache-change notifications that maintain the PR 1 counters; under
// --audit, check_sharded_index (audit/checkers.h) cross-validates the
// whole structure against a rescan on every sweep.
//
// EQUIVALENCE INVARIANT: within one bucket the scheduler's weight is
// monotone non-increasing along entry order for every metric (the rest
// term is constant inside a bucket, and ties in rank sort by the same id
// order the flat scan uses to break weight ties), so a best-first bucket
// walk reproduces the flat scan's top-n EXACTLY — identical task choices,
// identical RNG consumption, byte-identical run totals. The flat scan
// survives only as each scheduler's decision oracle
// (reference_candidates() / reference_pick()), which --audit and the
// property tests compare against the live walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/ids.h"

namespace wcs::sched {

class ShardedTaskIndex {
 public:
  struct Entry {
    std::uint64_t rank = 0;
    TaskId task;
  };

  // Orders a bucket best-first: rank descending, ties by task id. The
  // worker-centric flat scan breaks weight ties toward the LOWEST id,
  // storage affinity's replica scan toward the HIGHEST; `prefer_high_id`
  // selects which convention this index reproduces.
  struct EntryOrder {
    bool prefer_high_id = false;
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.rank != b.rank) return a.rank > b.rank;
      return prefer_high_id ? a.task > b.task : a.task < b.task;
    }
  };

  // Tree nodes live in a per-index NodeArena (common/arena.h): the
  // steady insert/erase churn recycles node-sized blocks through the
  // arena's freelists instead of hitting the global heap, and reset()
  // rewinds the whole pool in O(1). Node placement cannot change
  // comparator-driven iteration order, so the walk stays byte-identical
  // to the unpooled index.
  using EntryAlloc = common::ArenaAlloc<Entry>;
  using Bucket = std::set<Entry, EntryOrder, EntryAlloc>;
  using BucketAlloc =
      common::ArenaAlloc<std::pair<const std::uint64_t, Bucket>>;
  using BucketMap =
      std::map<std::uint64_t, Bucket, std::less<std::uint64_t>, BucketAlloc>;

  explicit ShardedTaskIndex(bool prefer_high_id = false)
      : order_{prefer_high_id},
        arena_(std::make_unique<common::NodeArena>()),
        buckets_(BucketAlloc(arena_.get())) {}

  // Copies rebuild the buckets in a fresh arena (allocators must not be
  // shared across independently-destroyed indexes); moves transfer the
  // arena together with the nodes that live in it. Move assignment is
  // destroy-and-rebuild because the default member-wise order would free
  // our arena while buckets_ still holds nodes inside it.
  ShardedTaskIndex(const ShardedTaskIndex& other)
      : order_(other.order_),
        arena_(std::make_unique<common::NodeArena>()),
        buckets_(BucketAlloc(arena_.get())),
        slots_(other.slots_),
        size_(other.size_) {
    for (const auto& [key, bucket] : other.buckets_)
      buckets_.emplace(key, Bucket(bucket.begin(), bucket.end(), order_,
                                   EntryAlloc(arena_.get())));
  }
  ShardedTaskIndex& operator=(const ShardedTaskIndex& other) {
    if (this != &other) {
      ShardedTaskIndex tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }
  ShardedTaskIndex(ShardedTaskIndex&&) noexcept = default;
  ShardedTaskIndex& operator=(ShardedTaskIndex&& other) noexcept {
    if (this != &other) {
      this->~ShardedTaskIndex();
      new (this) ShardedTaskIndex(std::move(other));
    }
    return *this;
  }
  ~ShardedTaskIndex() = default;

  // Drops every entry and sizes the slot table for task ids [0, num_tasks).
  void reset(std::size_t num_tasks);

  // Adds `task` under `key` with `rank`. The task must not be present.
  void insert(TaskId task, std::uint64_t key, std::uint64_t rank = 0);

  // Removes `task`. The task must be present.
  void erase(TaskId task);

  // Re-keys `task` to (key, rank); O(1) when nothing changed. The task
  // must be present.
  void update(TaskId task, std::uint64_t key, std::uint64_t rank = 0);

  [[nodiscard]] bool contains(TaskId task) const {
    return task.value() < slots_.size() && slots_[task.value()].present;
  }
  // Key/rank a task is currently filed under. The task must be present.
  [[nodiscard]] std::uint64_t key_of(TaskId task) const;
  [[nodiscard]] std::uint64_t rank_of(TaskId task) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  // The bucket structure, for the schedulers' best-first walks (ascending
  // key order; iterate in reverse when a larger key is better). Empty
  // buckets are never kept in the map.
  [[nodiscard]] const BucketMap& buckets() const { return buckets_; }

  // Structural self-check for the auditor: every slot marked present has
  // a matching bucket entry, counts agree, no empty bucket survives,
  // and the node arena's accounting balances. Returns human-readable
  // defect descriptions (empty when coherent).
  [[nodiscard]] std::vector<std::string> structural_defects() const;

  // The node arena backing this index (bench/audit hook).
  [[nodiscard]] const common::NodeArena& arena() const { return *arena_; }

 private:
  struct Slot {
    bool present = false;
    std::uint64_t key = 0;
    std::uint64_t rank = 0;
  };

  EntryOrder order_;
  // Declared before buckets_ so the container (and its nodes) is
  // destroyed before the arena that owns their storage.
  std::unique_ptr<common::NodeArena> arena_;
  BucketMap buckets_;
  std::vector<Slot> slots_;  // by task id
  std::size_t size_ = 0;
};

}  // namespace wcs::sched
