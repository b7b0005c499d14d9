#include "sched/sharded_index.h"

#include <sstream>

namespace wcs::sched {

template <typename Rank>
void BasicShardedTaskIndex<Rank>::reset(std::size_t num_tasks,
                                        std::size_t num_keys) {
  WCS_CHECK(num_tasks < kAbsent);  // 31-bit heap positions
  WCS_CHECK(num_keys <= kMaxKeys);
  for (Bucket& bucket : buckets_) {
    bucket.heap.clear();
    bucket.rank_total = 0;
  }
  buckets_.resize(num_keys);
  slots_.assign(num_tasks, kAbsent);
  keys_.assign(num_keys > 1 ? num_tasks : 0, 0);
  stale_.clear();
  stale_.reserve(num_tasks);
  size_ = 0;
}

template <typename Rank>
auto BasicShardedTaskIndex<Rank>::file(TaskId task, std::uint64_t key)
    -> Bucket& {
  WCS_CHECK_MSG(task.value() < slots_.size(),
                "sharded index: task " << task << " out of range");
  WCS_CHECK_MSG(key < num_keys(), "sharded index: key " << key
                                      << " out of range for " << task);
  WCS_CHECK_MSG(!contains(task), "sharded index: duplicate insert " << task);
  if (!keys_.empty()) keys_[task.value()] = static_cast<std::uint16_t>(key);
  ++size_;
  return buckets_[key];
}

template <typename Rank>
void BasicShardedTaskIndex<Rank>::insert(TaskId task, std::uint64_t key,
                                         Rank rank) {
  Bucket& bucket = file(task, key);
  bucket.heap.push_back(Entry{rank, task});
  bucket.rank_total += rank;
  sift(bucket.heap, static_cast<std::uint32_t>(bucket.heap.size() - 1));
}

template <typename Rank>
void BasicShardedTaskIndex<Rank>::erase(TaskId task) {
  WCS_CHECK_MSG(contains(task), "sharded index: erase of absent " << task);
  std::uint32_t& slot = slots_[task.value()];
  Bucket& bucket = buckets_[bucket_of(task)];
  std::vector<Entry>& heap = bucket.heap;
  const std::uint32_t pos = pos_of(slot);
  slot = kAbsent;  // drops the mark; refresh() skips the listed task
  bucket.rank_total -= heap[pos].rank;
  const Entry last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) {
    place(heap, pos, last);
    sift(heap, pos);
  }
  --size_;
}

template <typename Rank>
void BasicShardedTaskIndex<Rank>::update(TaskId task, std::uint64_t key,
                                         Rank rank) {
  WCS_CHECK_MSG(contains(task), "sharded index: update of absent " << task);
  WCS_CHECK_MSG(key < num_keys(), "sharded index: key " << key
                                      << " out of range for " << task);
  std::uint32_t& slot = slots_[task.value()];
  slot = pos_of(slot);  // filed now, so no longer stale
  if (bucket_of(task) != key) {
    erase(task);
    insert(task, key, rank);
    return;
  }
  Bucket& bucket = buckets_[key];
  std::vector<Entry>& heap = bucket.heap;
  if (heap[slot].rank == rank) return;
  bucket.rank_total += std::uint64_t{rank} - heap[slot].rank;
  heap[slot].rank = rank;
  sift(heap, slot);
}

template <typename Rank>
void BasicShardedTaskIndex<Rank>::sift(std::vector<Entry>& heap,
                                       std::uint32_t pos) {
  const Entry e = heap[pos];
  // Up while the entry outranks its parent...
  while (pos > 0 && order_(e, heap[(pos - 1) / 2])) {
    place(heap, pos, heap[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  // ...else down while a child outranks it.
  sift_down(heap, pos, e);
}

template <typename Rank>
void BasicShardedTaskIndex<Rank>::sift_down(std::vector<Entry>& heap,
                                            std::uint32_t pos, Entry e) {
  const auto n = static_cast<std::uint32_t>(heap.size());
  for (std::uint32_t c = 2 * pos + 1; c < n; c = 2 * pos + 1) {
    if (c + 1 < n && order_(heap[c + 1], heap[c])) ++c;
    if (!order_(heap[c], e)) break;
    place(heap, pos, heap[c]);
    pos = c;
  }
  place(heap, pos, e);
}

template <typename Rank>
std::uint64_t BasicShardedTaskIndex<Rank>::key_of(TaskId task) const {
  WCS_CHECK_MSG(contains(task), "sharded index: key_of absent " << task);
  return bucket_of(task);
}

template <typename Rank>
Rank BasicShardedTaskIndex<Rank>::rank_of(TaskId task) const {
  WCS_CHECK_MSG(contains(task), "sharded index: rank_of absent " << task);
  return buckets_[bucket_of(task)].heap[pos_of(slots_[task.value()])].rank;
}

template <typename Rank>
std::vector<std::string> BasicShardedTaskIndex<Rank>::structural_defects()
    const {
  std::vector<std::string> defects;
  std::size_t entries = 0;
  for (std::size_t key = 0; key < buckets_.size(); ++key) {
    const std::vector<Entry>& heap = buckets_[key].heap;
    std::uint64_t ranks = 0;
    for (std::size_t pos = 0; pos < heap.size(); ++pos) {
      ++entries;
      ranks += heap[pos].rank;
      const TaskId t = heap[pos].task;
      if (t.value() >= slots_.size() || bucket_of(t) != key ||
          pos_of(slots_[t.value()]) != pos) {
        std::ostringstream os;
        os << "entry (task " << t << ", key " << key << ", position " << pos
           << ") has no matching slot";
        defects.push_back(os.str());
      }
      if (pos > 0 && order_(heap[pos], heap[(pos - 1) / 2])) {
        std::ostringstream os;
        os << "heap order broken under key " << key << ": task " << t
           << " (rank " << heap[pos].rank << ") outranks its parent task "
           << heap[(pos - 1) / 2].task;
        defects.push_back(os.str());
      }
    }
    if (ranks != buckets_[key].rank_total) {
      std::ostringstream os;
      os << "rank total drifted under key " << key << ": counter "
         << buckets_[key].rank_total << ", sum of entry ranks " << ranks;
      defects.push_back(os.str());
    }
  }
  std::size_t present = 0;
  for (const std::uint32_t slot : slots_)
    if (pos_of(slot) != kAbsent) ++present;
  if (entries != size_ || present != size_) {
    std::ostringstream os;
    os << "size drifted: counter " << size_ << ", bucket entries " << entries
       << ", present slots " << present;
    defects.push_back(os.str());
  }
  // Stale list vs marks: refresh() only visits listed tasks, so a mark
  // off the list would never be re-keyed.
  std::vector<char> listed(slots_.size(), 0);
  for (TaskId t : stale_) {  // mark() indexed slots_, so t is in range
    listed[t.value()] = 1;
    const std::uint32_t slot = slots_[t.value()];
    if (pos_of(slot) == kAbsent && (slot & kStale)) {
      std::ostringstream os;
      os << "stale list names absent task " << t << " whose slot is marked";
      defects.push_back(os.str());
    }
  }
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    if (!(slots_[t] & kStale) || listed[t]) continue;
    std::ostringstream os;
    os << "task " << t << " is marked stale but not on the stale list";
    defects.push_back(os.str());
  }
  return defects;
}

// Worker-centric counts and storage affinity's byte ranks.
template class BasicShardedTaskIndex<std::uint32_t>;
template class BasicShardedTaskIndex<std::uint64_t>;

}  // namespace wcs::sched
