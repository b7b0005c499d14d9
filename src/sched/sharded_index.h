// Sharded pending-task index: the structure behind the ChooseTask(n)
// fast path (DESIGN.md §Performance architecture, layer 3).
//
// The paper's worker-centric loop scores EVERY pending task on each idle
// worker request. The per-(site, task) counters of the one residency
// table (ResidencyTable, residency.h) make each score O(1); this index
// removes the scan: pending tasks are filed under a small dense key with
// a rank, and the users pick (key, rank) so that a walk visits tasks
// best-first —
//
//   overlap metric   key = 0,             rank = |F_t|
//   rest metric      key = 0,             rank = UINT32_MAX - (|t| - |F_t|)
//   combined metric  key = |t| - |F_t|,   rank = ref_t
//   storage affinity key = 0,             rank = cached bytes (high-id ties)
//
// (worker-centric offsets each key by tenant x keys a tenant, so each
// tenant of a run has its own range) — so a request walks one heap (or,
// for combined, one heap per missing count) best-first and stops after
// the top n entries instead of touching every task. The buckets are a
// dense vector indexed by key, bounded by reset()'s num_keys; each
// bucket is an indexed binary heap (a flat std::vector<Entry> in
// EntryOrder, every task's heap position kept in its slot). insert/erase
// are O(log |b|) over contiguous memory.
//
// RANK TOTALS: rank_total(key) (the rank sum of a bucket's entries) and
// bucket_size(key) are O(1), so sums over a range of buckets, such as
// combined's totalRef and totalRest over one tenant's keys, are read off
// the refreshed index, not kept beside it.
//
// LAYOUT: the rank type is the template parameter, so an Entry is
// {rank, TaskId}: 8 B with the worker-centric 32-bit ranks
// (ShardedTaskIndex; combined's ref_t is checked to fit where it is
// placed), 16 B with storage affinity's 64-bit byte ranks. Per task
// the index keeps a 4-byte slot (heap position, stale bit on top), a
// 4-byte stale-list reserve and, only when it has more than one key
// (combined, or several tenants), a 2-byte key; a single-key index
// keeps no keys at all. Per key it keeps a bucket: the heap and its
// rank total.
//
// DEFERRED RE-KEY: a cache event changes the counters a task's (key,
// rank) derives from, but the owner only reads the heaps when a worker
// asks for work. So an event just mark()s each task it touches — O(1),
// idempotent: a stale bit in the task's slot plus one entry on a stale
// list — and the next decision refresh()es the index first, re-filing
// each still-marked task once from its current counters. A task touched
// by k events between two decisions is re-filed once, not k times; an
// erased task drops its mark and is skipped. walk() requires a refreshed
// index.
//
// COHERENCE INVARIANT: after refresh(), the index holds exactly the
// schedulable task set, each entry keyed and ranked from the live
// counters. Under --audit the owning ResidencyTable's audit_index()
// checks that every sweep.
//
// EQUIVALENCE INVARIANT: along a walk the scheduler's weight is
// non-increasing for every metric (the rest term is constant inside a
// combined bucket, and ties in rank sort by the same id order the flat
// scan uses to break weight ties), so a best-first walk reproduces the
// flat scan's top-n EXACTLY — identical task choices, identical RNG
// consumption, byte-identical run totals. EntryOrder is a strict total
// order, so this holds whatever order the entries were filed in: when a
// refresh happens (decision time, or an audit sweep) never shows in a
// decision. The flat scan survives only as each scheduler's decision
// oracle (reference_candidates() / reference_pick()), which --audit and
// the property tests compare against the live walk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace wcs::sched {

template <typename Rank>
class BasicShardedTaskIndex {
 public:
  struct Entry {
    Rank rank = 0;
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

  explicit BasicShardedTaskIndex(bool prefer_high_id = false)
      : order_{prefer_high_id} {}

  // Keys a 16-bit key column holds.
  static constexpr std::size_t kMaxKeys = std::size_t{UINT16_MAX} + 1;

  // Drops every entry and sizes the index for task ids [0, num_tasks)
  // and keys [0, num_keys), num_keys <= kMaxKeys; the per-task key
  // column exists only when num_keys > 1. The stale list is reserved to
  // num_tasks up front: a mark lists a task once until it is erased, so
  // marking grows the list only after an erase and re-insert between two
  // refreshes.
  void reset(std::size_t num_tasks, std::size_t num_keys);

  // Reserves room for `n` entries under `key`, so a caller that knows a
  // bucket's population files it without regrowing the heap.
  void reserve(std::uint64_t key, std::size_t n) {
    buckets_.at(key).heap.reserve(n);
  }

  // Files every task id below reset()'s num_tasks that `want(task)`
  // accepts under `place(task)`, a (key, rank) pair, into the empty
  // index: each bucket takes its entries in id order and is then
  // heapified in O(n) (Floyd's method) instead of sifted entry by entry.
  // Only the heap shape differs from an insert() per task, and no walk
  // can see it (EntryOrder is a strict total order).
  template <typename Want, typename Place>
  void fill(Want want, Place place) {
    WCS_CHECK(empty());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const TaskId task(static_cast<TaskId::underlying_type>(i));
      if (!want(task)) continue;
      const auto [key, rank] = place(task);
      Bucket& bucket = file(task, key);
      slots_[i] = static_cast<std::uint32_t>(bucket.heap.size());
      bucket.heap.push_back(Entry{rank, task});
      bucket.rank_total += rank;
    }
    for (Bucket& bucket : buckets_)
      for (auto pos = static_cast<std::uint32_t>(bucket.heap.size() / 2);
           pos-- > 0;)
        sift_down(bucket.heap, pos, bucket.heap[pos]);
  }

  // Adds `task` under `key` with `rank`. The task must not be present
  // and the key must be below num_keys().
  void insert(TaskId task, std::uint64_t key, Rank rank = 0);

  // Removes `task` (and its mark, if any). The task must be present.
  void erase(TaskId task);

  // Re-keys `task` to (key, rank) now, clearing its mark; O(1) when
  // nothing changed, a sift in place when only the rank moved. The task
  // must be present and the key below num_keys().
  void update(TaskId task, std::uint64_t key, Rank rank = 0);

  // Flags a present task for re-keying at the next refresh(). O(1) and
  // idempotent: a marked task is listed once however often it is marked.
  void mark(TaskId task) {
    WCS_DCHECK(contains(task));
    std::uint32_t& slot = slots_[task.value()];
    if (slot & kStale) return;
    slot |= kStale;
    stale_.push_back(task);
  }

  // Re-keys every task still marked to `place(task)` — a (key, rank)
  // pair — and empties the stale list. A task erased since its mark (or
  // erased and re-inserted, which files it fresh) is skipped.
  template <typename Place>
  void refresh(Place&& place) {
    for (TaskId task : stale_) {
      if (!(slots_[task.value()] & kStale)) continue;
      const auto [key, rank] = place(task);
      update(task, key, rank);
    }
    stale_.clear();
  }

  [[nodiscard]] bool contains(TaskId task) const {
    return task.value() < slots_.size() &&
           pos_of(slots_[task.value()]) != kAbsent;
  }
  // Key/rank a task is currently filed under. The task must be present.
  [[nodiscard]] std::uint64_t key_of(TaskId task) const;
  [[nodiscard]] Rank rank_of(TaskId task) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  // Entries on the stale list: each task marked since the last refresh()
  // once (twice if erased and re-inserted in between).
  [[nodiscard]] std::size_t stale_count() const { return stale_.size(); }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t num_keys() const { return buckets_.size(); }
  // Entries filed under `key`, which must be below num_keys().
  [[nodiscard]] std::size_t bucket_size(std::uint64_t key) const {
    return buckets_.at(key).heap.size();
  }
  // Sum of the ranks of the entries filed under `key`, modulo 2^64.
  [[nodiscard]] std::uint64_t rank_total(std::uint64_t key) const {
    return buckets_.at(key).rank_total;
  }

  // Visits the entries filed under `key` best-first, in exactly
  // EntryOrder order, until `fn(const Entry&)` returns false. The
  // frontier is a small heap of bucket positions whose parents were
  // visited, so a walk that stops after k entries costs O(k log k). `fn`
  // must not modify the index or start another walk on it (the frontier
  // buffer is reused, which keeps walks allocation-free once warm). The
  // index must be refreshed: no task may be marked.
  template <typename Fn>
  void walk(std::uint64_t key, Fn&& fn) const {
    WCS_DCHECK(stale_.empty());
    const std::vector<Entry>& heap = buckets_.at(key).heap;
    const auto n = static_cast<std::uint32_t>(heap.size());
    // std heaps keep the LARGEST element on top; "larger" is "better".
    const auto worse = [&](std::uint32_t a, std::uint32_t b) {
      return order_(heap[b], heap[a]);
    };
    if (n == 0 || !fn(heap[0])) return;  // most walks end at the root
    std::vector<std::uint32_t>& frontier = frontier_;
    frontier.clear();
    for (std::uint32_t pos = 0;;) {
      for (std::uint32_t c = 2 * pos + 1; c < n && c <= 2 * pos + 2; ++c) {
        frontier.push_back(c);
        std::push_heap(frontier.begin(), frontier.end(), worse);
      }
      if (frontier.empty()) return;
      std::pop_heap(frontier.begin(), frontier.end(), worse);
      pos = frontier.back();
      frontier.pop_back();
      if (!fn(heap[pos])) return;
    }
  }

  // Structural self-check for the auditor: every entry sits where its
  // slot says, no entry outranks its heap parent, the entry, slot and
  // size counts agree, each bucket's rank total is its entries' sum,
  // every marked slot is on the stale list, and no listed task is marked
  // while absent. Returns human-readable defect descriptions (empty when
  // coherent).
  [[nodiscard]] std::vector<std::string> structural_defects() const;

  // Test hooks: the corruptions structural_defects() must report. The
  // first forgets the stale list but keeps the marks; the second moves
  // key 0's rank total off its entries' sum.
  void drop_stale_list_for_test() { stale_.clear(); }
  void skew_rank_total_for_test() { ++buckets_.at(0).rank_total; }

 private:
  // The entries filed under one key, as a heap, and their rank sum.
  struct Bucket {
    std::vector<Entry> heap;
    std::uint64_t rank_total = 0;  // modulo 2^64
  };

  // A slot is the task's heap position in its bucket, or kAbsent, with
  // the mark in the top bit: positions stay below num_tasks < kAbsent.
  static constexpr std::uint32_t kStale = 1u << 31;
  static constexpr std::uint32_t kAbsent = kStale - 1;
  [[nodiscard]] static std::uint32_t pos_of(std::uint32_t slot) {
    return slot & ~kStale;
  }
  [[nodiscard]] std::uint32_t bucket_of(TaskId task) const {
    return keys_.empty() ? 0 : keys_[task.value()];
  }
  // Checks `key` and records it as `task`'s bucket, which it returns.
  Bucket& file(TaskId task, std::uint64_t key);

  // Writes `e` at heap position `pos` and records the position, keeping
  // the task's mark.
  void place(std::vector<Entry>& heap, std::uint32_t pos, const Entry& e) {
    heap[pos] = e;
    std::uint32_t& slot = slots_[e.task.value()];
    slot = (slot & kStale) | pos;
  }
  // Restores heap order around position `pos` after its entry changed.
  void sift(std::vector<Entry>& heap, std::uint32_t pos);
  // Files `e` at `pos` or below, moving better children up.
  void sift_down(std::vector<Entry>& heap, std::uint32_t pos, Entry e);

  EntryOrder order_;
  std::vector<Bucket> buckets_;       // by key
  std::vector<std::uint32_t> slots_;  // by task id
  std::vector<std::uint16_t> keys_;   // by task id; num_keys > 1
  std::size_t size_ = 0;
  std::vector<TaskId> stale_;  // marked tasks, in mark order
  mutable std::vector<std::uint32_t> frontier_;  // reused by walk()
};

// The worker-centric decision index: 32-bit counts, 8-byte entries.
using ShardedTaskIndex = BasicShardedTaskIndex<std::uint32_t>;

}  // namespace wcs::sched
