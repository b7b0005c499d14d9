// Sharded pending-task index: the structure behind the ChooseTask(n)
// fast path (DESIGN.md §Performance architecture, layer 4).
//
// The paper's worker-centric loop scores EVERY pending task on each idle
// worker request. PR 1 made each score O(1) (incremental per-(site, task)
// overlap/ref-sum counters); the scan itself stayed O(|pending|). This
// index removes the scan: pending tasks are filed under a small dense
// key with a rank, and the users pick (key, rank) so that a walk visits
// tasks best-first —
//
//   overlap metric   key = 0,             rank = |F_t|
//   rest metric      key = 0,             rank = UINT32_MAX - (|t| - |F_t|)
//   combined metric  key = |t| - |F_t|,   rank = ref_t
//   storage affinity key = 0,             rank = cached bytes (high-id ties)
//
// — so a request walks one heap (or, for combined, one heap per missing
// count) best-first and stops after the top n entries instead of
// touching every task. The buckets are a dense vector indexed by key,
// bounded by reset()'s num_keys; each bucket is an indexed binary heap
// (a flat std::vector<Entry> in EntryOrder, every task's heap position
// kept in its slot). insert/erase are O(log |b|) over contiguous memory;
// a rank-only update sifts in place (the combined metric's per-access
// rank + 1 is usually 0–1 swaps).
//
// COHERENCE INVARIANT: the index holds exactly the schedulable task set,
// and each entry's (key, rank) equals what a brute-force recompute from
// the live cache would produce. Owners re-key entries from the same
// cache-change notifications that maintain the PR 1 counters; under
// --audit, check_sharded_index (audit/checkers.h) cross-validates the
// whole structure against a rescan on every sweep.
//
// EQUIVALENCE INVARIANT: along a walk the scheduler's weight is
// non-increasing for every metric (the rest term is constant inside a
// combined bucket, and ties in rank sort by the same id order the flat
// scan uses to break weight ties), so a best-first walk reproduces the
// flat scan's top-n EXACTLY — identical task choices, identical RNG
// consumption, byte-identical run totals. The flat scan survives only as
// each scheduler's decision oracle (reference_candidates() /
// reference_pick()), which --audit and the property tests compare
// against the live walk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

  explicit ShardedTaskIndex(bool prefer_high_id = false)
      : order_{prefer_high_id} {}

  // Drops every entry and sizes the index for task ids [0, num_tasks)
  // and keys [0, num_keys).
  void reset(std::size_t num_tasks, std::size_t num_keys);

  // Adds `task` under `key` with `rank`. The task must not be present
  // and the key must be below num_keys().
  void insert(TaskId task, std::uint64_t key, std::uint64_t rank = 0);

  // Removes `task`. The task must be present.
  void erase(TaskId task);

  // Re-keys `task` to (key, rank); O(1) when nothing changed, a sift in
  // place when only the rank moved. The task must be present and the
  // key below num_keys().
  void update(TaskId task, std::uint64_t key, std::uint64_t rank = 0);

  [[nodiscard]] bool contains(TaskId task) const {
    return task.value() < slots_.size() &&
           slots_[task.value()].pos != kAbsent;
  }
  // Key/rank a task is currently filed under. The task must be present.
  [[nodiscard]] std::uint64_t key_of(TaskId task) const;
  [[nodiscard]] std::uint64_t rank_of(TaskId task) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t num_keys() const { return buckets_.size(); }

  // Visits the entries filed under `key` best-first, in exactly
  // EntryOrder order, until `fn(const Entry&)` returns false. The
  // frontier is a small heap of bucket positions whose parents were
  // visited, so a walk that stops after k entries costs O(k log k). `fn`
  // must not modify the index or start another walk on it (the frontier
  // buffer is reused, which keeps walks allocation-free once warm).
  template <typename Fn>
  void walk(std::uint64_t key, Fn&& fn) const {
    const std::vector<Entry>& heap = buckets_.at(key);
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
  // slot says, no entry outranks its heap parent, and the entry, slot
  // and size counts agree. Returns human-readable defect descriptions
  // (empty when coherent).
  [[nodiscard]] std::vector<std::string> structural_defects() const;

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t pos = kAbsent;  // heap position in buckets_[key]
  };

  // Writes `e` at heap position `pos` and records the position.
  void place(std::vector<Entry>& heap, std::uint32_t pos, const Entry& e) {
    heap[pos] = e;
    slots_[e.task.value()].pos = pos;
  }
  // Restores heap order around position `pos` after its entry changed.
  void sift(std::vector<Entry>& heap, std::uint32_t pos);

  EntryOrder order_;
  std::vector<std::vector<Entry>> buckets_;  // by key
  std::vector<Slot> slots_;                  // by task id
  std::size_t size_ = 0;
  mutable std::vector<std::uint32_t> frontier_;  // reused by walk()
};

}  // namespace wcs::sched
