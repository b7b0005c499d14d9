// Core workload data model: files, tasks, jobs.
//
// A job is a Bag-of-Tasks (paper Sec. 2.2, assumption 1): independent
// tasks, each needing a set of input files. The file catalog records the
// size of every file; schedulers and the storage layer only ever see
// (task -> file set) plus sizes, which is exactly the information the
// paper's schedulers use.
//
// Storage is SoA/CSR: all file references live in one flat pool with a
// per-task offset table, and per-task compute costs are a parallel flat
// array. `Task` is therefore a 24-byte VIEW (id + span + mflop), not an
// owning record — at 1M tasks the whole job is three contiguous arrays
// instead of a million little vectors. Task ids are dense 0-based
// indexes assigned by add_task.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"

namespace wcs::workload {

class FileCatalog {
 public:
  FileCatalog() = default;

  // All files the same size (paper Sec. 2.2, assumption 8). The common
  // case by far — it is stored as (count, size), two words total, and
  // only materializes a per-file array if a heterogeneous size shows up
  // (the file-size ablation).
  FileCatalog(std::size_t num_files, Bytes uniform_size)
      : uniform_count_(num_files), uniform_size_(uniform_size) {}

  FileId add_file(Bytes size) {
    if (sizes_.empty()) {
      if (uniform_count_ == 0) uniform_size_ = size;
      if (size == uniform_size_) {
        return FileId(static_cast<FileId::underlying_type>(uniform_count_++));
      }
      materialize();
    }
    FileId id(static_cast<FileId::underlying_type>(sizes_.size()));
    sizes_.push_back(size);
    return id;
  }

  [[nodiscard]] Bytes size(FileId id) const {
    WCS_CHECK(id.valid() && id.value() < num_files());
    return sizes_.empty() ? uniform_size_ : sizes_[id.value()];
  }

  [[nodiscard]] std::size_t num_files() const {
    return sizes_.empty() ? uniform_count_ : sizes_.size();
  }

  [[nodiscard]] Bytes total_bytes() const {
    if (sizes_.empty()) {
      return static_cast<Bytes>(uniform_count_) * uniform_size_;
    }
    Bytes total = 0;
    for (Bytes b : sizes_) total += b;
    return total;
  }

  // True while sizes are stored compressed as (count, uniform size).
  [[nodiscard]] bool uniform() const { return sizes_.empty(); }

 private:
  void materialize() {
    sizes_.assign(uniform_count_, uniform_size_);
    uniform_count_ = 0;
  }

  std::size_t uniform_count_ = 0;
  Bytes uniform_size_ = 0;
  std::vector<Bytes> sizes_;  // empty == uniform mode
};

// A read-only view of one task's record inside a Job. Cheap to copy;
// the span points into the job's file pool and stays valid as long as
// the job is alive and no tasks are added.
struct Task {
  TaskId id;
  std::span<const FileId> files;  // input set; no duplicates
  double mflop = 0;               // compute cost in MFLOP

  [[nodiscard]] std::size_t num_files() const { return files.size(); }
};

struct Job;

// Iterable view over a job's tasks, yielding Task views by value:
// `for (const workload::Task& t : job.tasks())`.
class TaskRange {
 public:
  explicit TaskRange(const Job* job) : job_(job) {}

  class iterator {
   public:
    iterator(const Job* job, std::uint32_t i) : job_(job), i_(i) {}
    Task operator*() const;
    iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const Job* job_ = nullptr;
    std::uint32_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {job_, 0}; }
  [[nodiscard]] iterator end() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] Task operator[](std::size_t i) const;

 private:
  const Job* job_ = nullptr;
};

struct Job {
  FileCatalog catalog;

  // --- name -------------------------------------------------------------
  void set_name(std::string_view name) { name_ = name; }
  [[nodiscard]] std::string_view name() const { return name_; }

  // --- task construction ------------------------------------------------
  // Pre-size the SoA arrays (generators know both counts up front).
  void reserve_tasks(std::size_t tasks, std::size_t total_file_refs) {
    file_begin_.reserve(tasks + 1);
    mflop_.reserve(tasks);
    file_pool_.reserve(total_file_refs);
  }

  // Append a task; ids are dense 0-based in insertion order.
  TaskId add_task(std::span<const FileId> files, double mflop) {
    file_pool_.insert(file_pool_.end(), files.begin(), files.end());
    file_begin_.push_back(file_pool_.size());
    mflop_.push_back(mflop);
    return TaskId(static_cast<TaskId::underlying_type>(mflop_.size() - 1));
  }
  TaskId add_task(std::initializer_list<FileId> files, double mflop) {
    return add_task(std::span<const FileId>(files.begin(), files.size()),
                    mflop);
  }

  // --- accessors ---------------------------------------------------------
  [[nodiscard]] std::size_t num_tasks() const { return mflop_.size(); }

  [[nodiscard]] Task task(TaskId id) const {
    WCS_CHECK(id.valid() && id.value() < mflop_.size());
    const std::size_t i = id.value();
    return Task{id,
                std::span<const FileId>(file_pool_.data() + file_begin_[i],
                                        file_begin_[i + 1] - file_begin_[i]),
                mflop_[i]};
  }

  [[nodiscard]] TaskRange tasks() const { return TaskRange(this); }

  // Total bytes a task needs when nothing is cached.
  [[nodiscard]] Bytes task_bytes(TaskId id) const {
    Bytes total = 0;
    for (FileId f : task(id).files) total += catalog.size(f);
    return total;
  }

  // Total file references across all tasks (the CSR pool length).
  [[nodiscard]] std::size_t total_file_refs() const {
    return file_pool_.size();
  }

 private:
  std::string name_;
  // CSR over file references: task i's files are
  // file_pool_[file_begin_[i] .. file_begin_[i+1]).
  std::vector<std::uint64_t> file_begin_ = {0};
  std::vector<FileId> file_pool_;
  std::vector<double> mflop_;  // parallel to tasks
};

inline Task TaskRange::iterator::operator*() const {
  return job_->task(TaskId(i_));
}
inline TaskRange::iterator TaskRange::end() const {
  return {job_, static_cast<std::uint32_t>(job_->num_tasks())};
}
inline std::size_t TaskRange::size() const { return job_->num_tasks(); }
inline Task TaskRange::operator[](std::size_t i) const {
  return job_->task(TaskId(static_cast<TaskId::underlying_type>(i)));
}

// The paper's Table 2 characteristics, plus the data behind Figures 1/3.
struct JobStats {
  std::size_t num_tasks = 0;
  std::size_t distinct_files = 0;  // files referenced by at least one task
  std::size_t max_files_per_task = 0;
  std::size_t min_files_per_task = 0;
  double avg_files_per_task = 0;
  // refs_cdf.fraction_at_least(k): fraction of referenced files that are
  // accessed by >= k tasks (the y-axis of Figure 1/3 at x = k).
  ReverseCdf refs_cdf;
};

[[nodiscard]] JobStats compute_stats(const Job& job);

// Sanity checks every generator's output must pass: valid ids, no
// duplicate files within a task, nonempty tasks, positive compute cost.
void validate_job(const Job& job);

}  // namespace wcs::workload
