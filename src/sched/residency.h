// Which of a task's files already sit at a site: the one quantity
// worker-centric's CalculateWeight() metrics, storage affinity's replica
// pick and XSufferage's transfer estimate rank tasks by (DESIGN.md
// §Performance architecture, layer 3). It is modelled once, here:
//
//   ResidencyTable  the per-(site, task) counters and decision index all
//                   three schedulers read: the one place they live;
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
#include <string>
#include <utility>
#include <vector>

#include "audit/checkers.h"
#include "common/check.h"
#include "common/csr.h"
#include "common/ids.h"
#include "common/units.h"
#include "sched/scheduler.h"
#include "sched/sharded_index.h"
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
// dense site-major column allocated only when the owner asks for it:
// 2 B a pair under overlap/rest (files, u16: build() refuses a task of
// more than 65,535 files), 10 B under combined (files + refs), 8 B
// under storage affinity and XSufferage (bytes). Cache events keep a
// tracked task's counters equal to residency() against the live caches
// (audit_collect() recounts them); an untracked task's counters are
// stale until track(). On request (fill_index) the table also keeps its
// owner's decision index: one BasicShardedTaskIndex<Rank> per site,
// filing the tracked tasks the owner wants under the (key, rank) its
// place(site, task) derives from the counters, re-keyed by refresh()
// once events marked them. With the index a pair allocates 8 B more
// (slot + stale-list reserve), 2 B for a key under several keys, and
// an 8-byte entry (16 B with 64-bit ranks) per filed task: 18 B under
// rest, 28 B under combined, 32 B under storage affinity.
//
// `Rank` is the index's rank type: 32-bit counts for worker-centric,
// 64-bit bytes for storage affinity.
template <typename Rank = std::uint32_t>
class BasicResidencyTable {
 public:
  using Index = BasicShardedTaskIndex<Rank>;

  BasicResidencyTable() = default;
  // The cache listeners build() installs hold the table's address.
  BasicResidencyTable(const BasicResidencyTable&) = delete;
  BasicResidencyTable& operator=(const BasicResidencyTable&) = delete;

  // Counter columns, or-ed into build()'s `columns`.
  enum Column : unsigned {
    kFiles = 1u << 0,  // u16 |F_t|: worker-centric
    kRefs = 1u << 1,   // u64 ref_t: the combined metric
    kBytes = 1u << 2,  // u64 cached bytes: storage affinity, XSufferage
  };

  // Sizes the requested columns for engine.job() over engine.num_sites()
  // sites, tracks in task order every task `live(task)` accepts, seeds
  // their counters from the current caches, and subscribes to each
  // site's cache through `engine`, the engine the owner is attached to
  // (it must outlive the table). Each event (fired after the mutation)
  // moves the counters of each tracked reader of the file and marks the
  // reader if indexed. Without a refs column an access touches nothing.
  // With a files column a task of more than 65,535 files is refused.
  template <typename Live>
  void build(GridEngine& engine, unsigned columns, Live live) {
    engine_ = &engine;
    columns_ = columns;
    if (has(kFiles))
      for (const workload::Task& t : engine.job().tasks())
        WCS_CHECK_MSG(t.files.size() <= UINT16_MAX,
                      "residency table: task " << t.id << " reads "
                          << t.files.size() << " files, more than the "
                          << UINT16_MAX << " its overlap counters hold");
    num_sites_ = engine.num_sites();
    num_tasks_ = engine.job().num_tasks();
    readers_.build(engine.job(), live);
    const std::size_t pairs = num_sites_ * num_tasks_;
    files_.assign(has(kFiles) ? pairs : 0, 0);
    refs_.assign(has(kRefs) ? pairs : 0, 0);
    bytes_.assign(has(kBytes) ? pairs : 0, 0);
    shards_.clear();
    for (std::size_t s = 0; s < num_sites_; ++s) {
      readers_.for_each_resident(cache_of(s), [&](FileId f, TaskId t) {
        add(at(s, t), insert_step(s, f));
      });
      engine.set_cache_listener(
          SiteId(static_cast<SiteId::underlying_type>(s)),
          [this, s](storage::CacheEvent e, FileId f) { on_event(s, e, f); });
    }
  }

  // Rebuilds an untracked task's counters at every site from residency()
  // against the live caches, and tracks it again.
  void track(TaskId task) {
    for (std::size_t s = 0; s < num_sites_; ++s) {
      const std::size_t i = at(s, task);
      const Residency r = residency(cache_of(s), engine_->job(), task);
      if (has(kFiles)) files_[i] = static_cast<std::uint16_t>(r.files);
      if (has(kRefs)) refs_[i] = r.refs;
      if (has(kBytes)) bytes_[i] = r.bytes;
    }
    readers_.track(task);
  }
  // Cache events stop touching `task` (tracked, and not indexed).
  void untrack(TaskId task) {
    WCS_DCHECK(!indexed(task));
    readers_.untrack(task);
  }

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
        const TaskId t = task_id(i);
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

  // --- Decision index ----------------------------------------------------
  // `place(site, task)` is the (key, rank) the owner files a task under
  // at site index `site`; `want(task)` is whether it files the task.

  // One index per site over keys [0, tenants * keys_per_tenant), tenant
  // t's tasks filed under [t * keys_per_tenant, (t + 1) *
  // keys_per_tenant) by `place`, ties as `prefer_high_id` selects
  // (BasicShardedTaskIndex::EntryOrder), filing every tracked task `want`
  // accepts, each bucket reserved to its population and heapified in
  // O(n) (BasicShardedTaskIndex::fill). Refuses a key space past the
  // index's 16-bit keys.
  template <typename Want, typename Place>
  void fill_index(std::size_t tenants, std::size_t keys_per_tenant,
                  bool prefer_high_id, Want want, Place place) {
    const std::size_t num_keys = tenants * keys_per_tenant;
    WCS_CHECK_MSG(num_keys <= Index::kMaxKeys,
                  "decision index: " << tenants << " tenants x "
                      << keys_per_tenant << " keys a tenant"
                      << (keys_per_tenant > 1
                              ? " (max task size " +
                                    std::to_string(keys_per_tenant - 1) +
                                    " + 1 under combined)"
                              : std::string())
                      << " need " << num_keys << " keys, more than the "
                      << Index::kMaxKeys << " an index holds");
    shards_.assign(num_sites_, Index(prefer_high_id));
    std::vector<std::size_t> per_key;
    for (std::size_t s = 0; s < num_sites_; ++s) {
      per_key.assign(num_keys, 0);
      for (std::size_t i = 0; i < num_tasks_; ++i)
        if (want(task_id(i))) ++per_key.at(place(s, task_id(i)).first);
      shards_[s].reset(num_tasks_, num_keys);
      for (std::size_t key = 0; key < num_keys; ++key)
        shards_[s].reserve(key, per_key[key]);
      shards_[s].fill(want, [&](TaskId task) { return place(s, task); });
    }
  }

  // Files a tracked, unindexed task at every site.
  template <typename Place>
  void index(TaskId task, Place place) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto [key, rank] = place(s, task);
      shards_[s].insert(task, key, rank);
    }
  }
  // Erases an indexed task at every site.
  void unindex(TaskId task) {
    for (Index& shard : shards_) shard.erase(task);
  }
  // Every site files the same tasks, so site 0 answers for all.
  [[nodiscard]] bool indexed(TaskId task) const {
    return !shards_.empty() && shards_[0].contains(task);
  }
  [[nodiscard]] std::size_t index_keys() const {
    return shards_.empty() ? 0 : shards_[0].num_keys();
  }

  // Re-keys the tasks cache events marked at `site`. Const: the index
  // caches the counters, and const decision and audit paths refresh it.
  template <typename Place>
  void refresh(std::size_t site, Place place) const {
    shards_[site].refresh([&](TaskId task) { return place(site, task); });
  }
  // Site index `site`'s decision index; refresh() it before reading it.
  [[nodiscard]] const Index& index_of(std::size_t site) const {
    return shards_.at(site);
  }
  // BasicShardedTaskIndex::walk over a refreshed site's index.
  template <typename Fn>
  void walk(std::size_t site, std::uint64_t key, Fn&& fn) const {
    shards_[site].walk(key, std::forward<Fn>(fn));
  }

  // Refreshes every site's index and appends a sharded-index violation
  // for each structural defect, wanted task missing, indexed task not
  // wanted, and entry whose key or rank differs from `place`.
  template <typename Want, typename Place>
  void audit_index(Want want, Place place,
                   std::vector<audit::Violation>& out) const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      refresh(s, place);
      const Index& shard = shards_[s];
      audit::ShardedIndexSnapshot snap;
      snap.label = "site " + std::to_string(s) + " index";
      snap.indexed = shard.size();
      snap.defects = shard.structural_defects();
      for (std::size_t i = 0; i < num_tasks_; ++i) {
        const TaskId t = task_id(i);
        const bool wanted = want(t);
        snap.expected += wanted ? 1 : 0;
        std::string defect;
        if (wanted != shard.contains(t)) {
          defect =
              wanted ? " wanted but not indexed" : " indexed but not wanted";
        } else if (wanted) {
          const auto [key, rank] = place(s, t);
          if (shard.key_of(t) != key || shard.rank_of(t) != rank)
            defect = " filed under key " + std::to_string(shard.key_of(t)) +
                     " / rank " + std::to_string(shard.rank_of(t)) +
                     " but its place is " + std::to_string(key) + " / " +
                     std::to_string(rank);
        }
        if (!defect.empty())
          snap.defects.push_back("task " + std::to_string(i) + defect);
      }
      audit::check_sharded_index(snap, out);
    }
  }

 private:
  // Applies one cache event at site index `s` (see build()).
  void on_event(std::size_t s, storage::CacheEvent event, FileId file) {
    if (event == storage::CacheEvent::kAccessed && !has(kRefs)) return;
    Residency step{.refs = 1};  // kAccessed: r_i grew by exactly one
    if (event != storage::CacheEvent::kAccessed) step = insert_step(s, file);
    if (event == storage::CacheEvent::kEvicted)
      step = {0u - step.files, 0u - step.bytes, 0u - step.refs};
    Index* shard = shards_.empty() ? nullptr : &shards_[s];
    for (TaskId t : readers_.tasks_of(file)) {
      add(at(s, t), step);
      if (shard != nullptr && shard->contains(t)) shard->mark(t);
    }
  }
  [[nodiscard]] static TaskId task_id(std::size_t i) {
    return TaskId(static_cast<TaskId::underlying_type>(i));
  }
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
  // Wraps modulo each cell's width, so an eviction's negated step
  // undoes its insert in the u16 files cells too.
  void add(std::size_t i, const Residency& step) {
    if (has(kFiles))
      files_[i] = static_cast<std::uint16_t>(files_[i] + step.files);
    if (has(kRefs)) refs_[i] += step.refs;
    if (has(kBytes)) bytes_[i] += step.bytes;
  }

  const GridEngine* engine_ = nullptr;
  unsigned columns_ = 0;
  std::size_t num_sites_ = 0;
  std::size_t num_tasks_ = 0;
  TaskFileIndex readers_;
  std::vector<std::uint16_t> files_;  // [site * num_tasks + task]
  std::vector<std::uint64_t> refs_;
  std::vector<Bytes> bytes_;
  // One decision index per site once fill_index() ran, else empty.
  // Mutable: refresh() re-keys from const paths (see there).
  mutable std::vector<Index> shards_;
};

// The table whose index (if any) ranks by 32-bit counts. Storage
// affinity ranks by bytes: BasicResidencyTable<Bytes>.
using ResidencyTable = BasicResidencyTable<>;

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
