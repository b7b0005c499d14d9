// Which of a task's files already sit at a site: the one quantity
// worker-centric's CalculateWeight() metrics, storage affinity's replica
// pick and XSufferage's transfer estimate rank tasks by (DESIGN.md
// §Performance architecture, layer 4). Each scheduler keeps its own
// per-(site, task) counters; what they share lives here, once:
//
//   TaskFileIndex  file -> tracked-task rows, so a cache event on file f
//                  touches exactly the live tasks that read f;
//   residency()    the brute-force per-task scan: rebuilds a counter on
//                  a crash or arrival re-add, and is the oracle behind
//                  naive weights, reference picks and the audits;
//   PendingBag     the unassigned-task set of the pull schedulers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/csr.h"
#include "common/ids.h"
#include "common/units.h"
#include "storage/file_cache.h"
#include "workload/job.h"

namespace wcs::sched {

// What of one task's input set one cache holds.
struct Residency {
  std::uint32_t files = 0;  // |F_t|: input files resident
  Bytes bytes = 0;          // their total size
  std::uint64_t refs = 0;   // sum of their reference counts r_i
};

// The per-task scan, O(|t|): the one place residency is computed from
// scratch.
[[nodiscard]] inline Residency residency(const storage::FileCache& cache,
                                         const workload::Job& job,
                                         TaskId task) {
  Residency r;
  for (FileId f : job.task(task).files) {
    if (!cache.contains(f)) continue;
    ++r.files;
    r.bytes += job.catalog.size(f);
    r.refs += cache.ref_count(f);
  }
  return r;
}

// Inverted file -> task index over one CSR pool. Rows are counted over
// EVERY task of the job but hold only the tracked ones, so an untracked
// task can be tracked later (crash re-add, open-system arrival) without
// overflowing its rows. Element motion is a vector's: track() appends to
// each row, untrack() moves the row's last task into the vacated slot.
class TaskFileIndex {
 public:
  // Sizes the rows for `job` (which must outlive the index) and tracks,
  // in task order, every task `live(task)` accepts.
  template <typename Live>
  void build(const workload::Job& job, Live live) {
    job_ = &job;
    rows_.reset(job.catalog.num_files());
    for (const workload::Task& t : job.tasks())
      for (FileId f : t.files) rows_.count(f.value());
    rows_.finalize();
    for (const workload::Task& t : job.tasks())
      if (live(t.id)) track(t.id);
  }

  void track(TaskId task) {
    for (FileId f : job_->task(task).files) rows_.push(f.value(), task);
  }
  // The task must be tracked.
  void untrack(TaskId task) {
    for (FileId f : job_->task(task).files) {
      const bool removed = rows_.erase_swap(f.value(), task);
      WCS_DCHECK(removed);
      (void)removed;
    }
  }

  // Tracked tasks that read `file`.
  [[nodiscard]] std::span<const TaskId> tasks_of(FileId file) const {
    return rows_.row(file.value());
  }

  // fn(file, task) for every file resident in `cache` (contents order)
  // and every tracked task reading it (row order): seeds a site's
  // counters in O(resident files * tasks per file).
  template <typename Fn>
  void for_each_resident(const storage::FileCache& cache, Fn fn) const {
    for (FileId f : cache.contents())
      for (TaskId t : tasks_of(f)) fn(f, t);
  }

 private:
  const workload::Job* job_ = nullptr;
  common::Csr<TaskId> rows_;
};

// Unassigned tasks: a membership flag per task id plus a dense list for
// scanning, each task's list position kept beside it. Removal swaps the
// list's last task into the vacated position.
class PendingBag {
 public:
  // Empty bag over task ids [0, num_tasks); insert() never reallocates.
  void reset(std::size_t num_tasks) {
    in_.assign(num_tasks, 0);
    pos_.resize(num_tasks);
    list_.clear();
    list_.reserve(num_tasks);
  }

  void insert(TaskId task) {
    WCS_CHECK(!contains(task));
    in_[task.value()] = 1;
    pos_[task.value()] = static_cast<std::uint32_t>(list_.size());
    list_.push_back(task);
  }
  void erase(TaskId task) {
    WCS_CHECK(contains(task));
    in_[task.value()] = 0;
    const std::uint32_t pos = pos_[task.value()];
    const TaskId last = list_.back();
    list_[pos] = last;
    pos_[last.value()] = pos;
    list_.pop_back();
  }

  [[nodiscard]] bool contains(TaskId task) const {
    return task.value() < in_.size() && in_[task.value()] != 0;
  }
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] auto begin() const { return list_.begin(); }
  [[nodiscard]] auto end() const { return list_.end(); }

 private:
  std::vector<char> in_;              // by task id
  std::vector<std::uint32_t> pos_;    // task id -> index in list_
  std::vector<TaskId> list_;
};

}  // namespace wcs::sched
