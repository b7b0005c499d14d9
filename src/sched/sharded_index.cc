#include "sched/sharded_index.h"

#include <sstream>

namespace wcs::sched {

void ShardedTaskIndex::reset(std::size_t num_tasks, std::size_t num_keys) {
  WCS_CHECK(num_tasks < kAbsent && num_keys <= kAbsent);  // 32-bit slots
  for (std::vector<Entry>& heap : buckets_) heap.clear();
  buckets_.resize(num_keys);
  slots_.assign(num_tasks, Slot{});
  size_ = 0;
}

void ShardedTaskIndex::insert(TaskId task, std::uint64_t key,
                              std::uint64_t rank) {
  WCS_CHECK_MSG(task.value() < slots_.size(),
                "sharded index: task " << task << " out of range");
  WCS_CHECK_MSG(key < num_keys(), "sharded index: key " << key
                                      << " out of range for " << task);
  WCS_CHECK_MSG(!contains(task), "sharded index: duplicate insert " << task);
  std::vector<Entry>& heap = buckets_[key];
  heap.push_back(Entry{rank, task});
  slots_[task.value()].key = static_cast<std::uint32_t>(key);
  sift(heap, static_cast<std::uint32_t>(heap.size() - 1));
  ++size_;
}

void ShardedTaskIndex::erase(TaskId task) {
  WCS_CHECK_MSG(contains(task), "sharded index: erase of absent " << task);
  Slot& slot = slots_[task.value()];
  std::vector<Entry>& heap = buckets_[slot.key];
  const std::uint32_t pos = slot.pos;
  slot = Slot{};
  const Entry last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) {
    place(heap, pos, last);
    sift(heap, pos);
  }
  --size_;
}

void ShardedTaskIndex::update(TaskId task, std::uint64_t key,
                              std::uint64_t rank) {
  WCS_CHECK_MSG(contains(task), "sharded index: update of absent " << task);
  WCS_CHECK_MSG(key < num_keys(), "sharded index: key " << key
                                      << " out of range for " << task);
  const Slot slot = slots_[task.value()];
  if (slot.key != key) {
    erase(task);
    insert(task, key, rank);
    return;
  }
  std::vector<Entry>& heap = buckets_[slot.key];
  if (heap[slot.pos].rank == rank) return;
  heap[slot.pos].rank = rank;
  sift(heap, slot.pos);
}

void ShardedTaskIndex::sift(std::vector<Entry>& heap, std::uint32_t pos) {
  const Entry e = heap[pos];
  // Up while the entry outranks its parent...
  while (pos > 0 && order_(e, heap[(pos - 1) / 2])) {
    place(heap, pos, heap[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  // ...else down while a child outranks it.
  const auto n = static_cast<std::uint32_t>(heap.size());
  for (std::uint32_t c = 2 * pos + 1; c < n; c = 2 * pos + 1) {
    if (c + 1 < n && order_(heap[c + 1], heap[c])) ++c;
    if (!order_(heap[c], e)) break;
    place(heap, pos, heap[c]);
    pos = c;
  }
  place(heap, pos, e);
}

std::uint64_t ShardedTaskIndex::key_of(TaskId task) const {
  WCS_CHECK_MSG(contains(task), "sharded index: key_of absent " << task);
  return slots_[task.value()].key;
}

std::uint64_t ShardedTaskIndex::rank_of(TaskId task) const {
  WCS_CHECK_MSG(contains(task), "sharded index: rank_of absent " << task);
  const Slot& slot = slots_[task.value()];
  return buckets_[slot.key][slot.pos].rank;
}

std::vector<std::string> ShardedTaskIndex::structural_defects() const {
  std::vector<std::string> defects;
  std::size_t entries = 0;
  for (std::size_t key = 0; key < buckets_.size(); ++key) {
    const std::vector<Entry>& heap = buckets_[key];
    for (std::size_t pos = 0; pos < heap.size(); ++pos) {
      ++entries;
      const TaskId t = heap[pos].task;
      if (t.value() >= slots_.size() || slots_[t.value()].key != key ||
          slots_[t.value()].pos != pos) {
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
  }
  std::size_t present = 0;
  for (const Slot& s : slots_)
    if (s.pos != kAbsent) ++present;
  if (entries != size_ || present != size_) {
    std::ostringstream os;
    os << "size drifted: counter " << size_ << ", bucket entries " << entries
       << ", present slots " << present;
    defects.push_back(os.str());
  }
  return defects;
}

}  // namespace wcs::sched
