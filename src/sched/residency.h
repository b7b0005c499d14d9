// Which of a task's files already sit at a site: the one quantity
// worker-centric's CalculateWeight() metrics, storage affinity's replica
// pick and XSufferage's transfer estimate rank tasks by (DESIGN.md
// §Performance architecture, layer 4). It is modelled once, here:
//
//   ResidencyTable  the per-(site, task) counters all three schedulers
//                   read: the one place their layout lives;
//   TaskFileIndex   file -> tracked-task rows, so a cache event on file f
//                   touches exactly the live tasks that read f;
//   residency()     the brute-force per-task scan: rebuilds a task's
//                   counters on a re-add, and is the oracle behind naive
//                   weights, reference picks and the audits;
//   PendingBag      the unassigned-task set of the pull schedulers.
#pragma once

#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/csr.h"
#include "common/ids.h"
#include "common/units.h"
#include "sched/scheduler.h"
#include "storage/file_cache.h"
#include "workload/job.h"

namespace wcs::sched {

// What of one task's input set one cache holds.
struct Residency {
  std::uint32_t files = 0;  // |F_t|: input files resident
  Bytes bytes = 0;          // their total size
  std::uint64_t refs = 0;   // sum of their reference counts r_i
  bool operator==(const Residency&) const = default;
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

// Per-(site, task) residency counters over the tasks its owner tracks:
// |F_t| (`files`), ref_t (`refs`) and cached bytes (`bytes`), each a
// dense site-major column allocated only when the owner asks for it.
// Per (site, task) pair that is 4 B under overlap/rest (files), 12 B
// under combined (files + refs) and 8 B under storage affinity and
// XSufferage (bytes). A cache event moves the counters of every tracked
// task reading the file, O(1) each, so a tracked task's counters equal
// residency() against the live caches, which audit_collect() recounts.
// An untracked task's counters are stale until track().
class ResidencyTable {
 public:
  // Counter columns, or-ed into build()'s `columns`.
  enum Column : unsigned {
    kFiles = 1u << 0,  // u32 |F_t|: worker-centric
    kRefs = 1u << 1,   // u64 ref_t: the combined metric
    kBytes = 1u << 2,  // u64 cached bytes: storage affinity, XSufferage
  };

  // Sizes the requested columns for engine.job() over engine.num_sites()
  // sites (the engine must outlive the table), tracks in task order every
  // task `live(task)` accepts, and seeds their counters from the current
  // cache contents.
  template <typename Live>
  void build(const GridEngine& engine, unsigned columns, Live live) {
    engine_ = &engine;
    columns_ = columns;
    num_sites_ = engine.num_sites();
    num_tasks_ = engine.job().num_tasks();
    index_.build(engine.job(), live);
    const std::size_t pairs = num_sites_ * num_tasks_;
    files_.assign(has(kFiles) ? pairs : 0, 0);
    refs_.assign(has(kRefs) ? pairs : 0, 0);
    bytes_.assign(has(kBytes) ? pairs : 0, 0);
    for (std::size_t s = 0; s < num_sites_; ++s)
      index_.for_each_resident(cache_of(s), [&](FileId f, TaskId t) {
        add(at(s, t), insert_step(s, f));
      });
  }

  // Applies one cache event at `site` (the listener fires after the cache
  // mutated) to every tracked task reading `file`, in index row order,
  // calling touched(task, step) after that task's counters moved. `step`
  // is what the event added to each counter, modulo 2^n (an eviction adds
  // the negation of its insert's step), 0 in the columns not kept, so an
  // owner moves its own aggregates with the same +=. An access only bumps
  // r_i, so without a refs column it touches nothing.
  template <typename Touched>
  void on_cache_event(SiteId site, storage::CacheEvent event, FileId file,
                      Touched&& touched) {
    if (event == storage::CacheEvent::kAccessed && !has(kRefs)) return;
    const std::size_t s = site.value();
    Residency step{.refs = 1};  // kAccessed: r_i grew by exactly one
    if (event != storage::CacheEvent::kAccessed) step = insert_step(s, file);
    if (event == storage::CacheEvent::kEvicted)
      step = {0u - step.files, 0u - step.bytes, 0u - step.refs};
    for (TaskId t : index_.tasks_of(file)) {
      add(at(s, t), step);
      touched(t, step);
    }
  }

  // Rebuilds an untracked task's counters at every site from residency()
  // against the live caches, and tracks it again.
  void track(TaskId task) {
    for (std::size_t s = 0; s < num_sites_; ++s) {
      const std::size_t i = at(s, task);
      const Residency r = residency(cache_of(s), engine_->job(), task);
      if (has(kFiles)) files_[i] = r.files;
      if (has(kRefs)) refs_[i] = r.refs;
      if (has(kBytes)) bytes_[i] = r.bytes;
    }
    index_.track(task);
  }
  // Cache events stop touching `task`, which must be tracked.
  void untrack(TaskId task) { index_.untrack(task); }

  // A tracked task's counters at site index `site`. files() and bytes()
  // need their column; refs() reads 0 without one.
  [[nodiscard]] std::uint32_t files(std::size_t site, TaskId task) const {
    return files_[at(site, task)];
  }
  [[nodiscard]] std::uint64_t refs(std::size_t site, TaskId task) const {
    return has(kRefs) ? refs_[at(site, task)] : 0;
  }
  [[nodiscard]] Bytes bytes(std::size_t site, TaskId task) const {
    return bytes_[at(site, task)];
  }

  // Recounts every task `tracked(task)` accepts at every site against
  // residency() and appends an index-coherence violation for each
  // (site, task) whose kept counters drifted (others print the recount).
  template <typename Tracked>
  void audit_collect(Tracked tracked,
                     std::vector<audit::Violation>& out) const {
    for (std::size_t s = 0; s < num_sites_; ++s)
      for (std::size_t i = 0; i < num_tasks_; ++i) {
        const TaskId t(static_cast<TaskId::underlying_type>(i));
        if (!tracked(t)) continue;
        const Residency r = residency(cache_of(s), engine_->job(), t);
        const Residency live{has(kFiles) ? files(s, t) : r.files,
                             has(kBytes) ? bytes(s, t) : r.bytes,
                             has(kRefs) ? refs(s, t) : r.refs};
        if (live == r) continue;
        std::ostringstream os;
        os << "site " << s << " task " << t << " counters files/bytes/refs "
           << live.files << '/' << live.bytes << '/' << live.refs
           << " but the residency() recount finds " << r.files << '/'
           << r.bytes << '/' << r.refs;
        out.push_back(audit::Violation{"index-coherence", os.str()});
      }
  }

 private:
  [[nodiscard]] bool has(Column c) const { return (columns_ & c) != 0; }
  [[nodiscard]] std::size_t at(std::size_t site, TaskId task) const {
    return site * num_tasks_ + task.value();
  }
  [[nodiscard]] const storage::FileCache& cache_of(std::size_t site) const {
    return engine_->site_cache(
        SiteId(static_cast<SiteId::underlying_type>(site)));
  }
  // What inserting resident `file` at `site` adds to a reader's counters.
  // ref_count(file) is read after the mutation: on kAdded the
  // pre-existing count, on kEvicted the count accumulated while resident
  // (insert and evict do not change counts).
  [[nodiscard]] Residency insert_step(std::size_t site, FileId file) const {
    return {has(kFiles) ? 1u : 0u,
            has(kBytes) ? engine_->job().catalog.size(file) : 0,
            has(kRefs) ? cache_of(site).ref_count(file) : 0};
  }
  void add(std::size_t i, const Residency& step) {
    if (has(kFiles)) files_[i] += step.files;
    if (has(kRefs)) refs_[i] += step.refs;
    if (has(kBytes)) bytes_[i] += step.bytes;
  }

  const GridEngine* engine_ = nullptr;
  unsigned columns_ = 0;
  std::size_t num_sites_ = 0;
  std::size_t num_tasks_ = 0;
  TaskFileIndex index_;
  std::vector<std::uint32_t> files_;  // [site * num_tasks + task]
  std::vector<std::uint64_t> refs_;
  std::vector<Bytes> bytes_;
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
