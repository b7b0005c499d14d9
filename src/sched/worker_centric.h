// Worker-centric scheduling (the paper's contribution, Sec. 4).
//
// An idle worker requests a task; the scheduler scores every pending task
// for that worker's site with CalculateWeight() and picks one with
// ChooseTask(n):
//
//   overlap_t  = |F_t|                 (files of t already at the site)
//   rest_t     = 1 / (|t| - |F_t|)     (inverse of files still to move)
//   combined_t = ref_t/totalRef + rest_t/totalRest
//
// where ref_t = sum of past reference counts r_i over i in F_t, and
// totalRef/totalRest sum ref_t/rest_t over all pending tasks. The
// combined formula follows the paper's prose; the verbatim printed
// formula (ref_t/totalRef + totalRest/rest_t, which contradicts the
// prose — see DESIGN.md §1) is available as CombinedFormula::kVerbatim
// for the ablation bench.
//
// ChooseTask(n) takes the n best-weighted tasks and samples one with
// probability proportional to weight; n = 1 is the deterministic
// algorithms (overlap/rest/combined), n = 2 the randomized ones
// (rest.2/combined.2).
//
// Under several tenants (pull.h) a request is served from one tenant's
// part of the bag: the pending tasks, totalRef and totalRest above are
// that tenant's, and the draw comes from its own RNG stream. The
// tenants share every other structure.
//
// Complexity: the paper's algorithm is O(T * I) per request (scan all
// tasks, intersect file sets). Two incremental layers remove that:
//
//   1. per-(site, task) overlap/ref-sum counters in the residency table
//      the data-aware schedulers share (sched/residency.h), updated from
//      cache-change notifications for the pending tasks only, make one
//      weight evaluation O(1) (ref sums are kept only under combined,
//      the one metric that reads them);
//   2. the same table's per-site sharded index (sharded_index.h) — per
//      tenant, one heap ranked in weight order (overlap, rest) or one
//      heap per missing count |t| - |F_t| ranked by ref_t (combined), as
//      shard_place() files each pending task — resolves ChooseTask(n) by
//      a best-first walk of the served tenant's heaps that stops after
//      the top n instead of scanning the pending bag. Under combined it
//      also holds the normalizers: totalRef sums the rank totals and
//      totalRest rest_t over the bucket sizes of the tenant's heaps,
//      O(max |t|) per decision instead of O(T).
//
// A cache event costs O(1) per pending task sharing the file (the table
// moves the counters and marks the task); a decision re-keys its site's
// marked tasks once.
//
// The semantics are byte-identical at every layer: tests cross-check
// weights against residency(), the shared per-task scan; --audit
// recounts the counters and index entries, compares combined's totals
// with the O(|pending|) scan and every site's top-n with
// reference_candidates(), the flat scan kept as the decision oracle, as
// the property suite does after every operation of random
// interleavings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/inline_vec.h"
#include "common/rng.h"
#include "sched/pull.h"
#include "sched/residency.h"
#include "sched/sharded_index.h"

namespace wcs::sched {

enum class Metric { kOverlap, kRest, kCombined };

[[nodiscard]] const char* to_string(Metric metric);

enum class CombinedFormula {
  kProse,    // ref_t/totalRef + rest_t/totalRest (both bigger-is-better)
  kVerbatim  // ref_t/totalRef + totalRest/rest_t (as printed in the paper)
};

// Weight of a fully-resident task (|t| == |F_t|) under the rest metric,
// where the paper's 1/(|t|-|F_t|) is undefined. Any finite rest weight is
// at most 1, so 2 makes "nothing to transfer" strictly best.
inline constexpr double kFullOverlapRestWeight = 2.0;

struct WorkerCentricParams {
  Metric metric = Metric::kRest;
  int choose_n = 1;  // ChooseTask(n); >= 1
  CombinedFormula combined_formula = CombinedFormula::kProse;
  // Only consumed when choose_n >= 2: the RNG of a one-tenant run, and
  // the root of substream_seed(seed, tenant) under several tenants.
  std::uint64_t seed = 7;

  // Optional task replication once the bag is empty (paper Sec. 3.2:
  // replication is ORTHOGONAL to worker-centric scheduling — not needed
  // for balance, but can shave the tail). An idle worker with no pending
  // task receives a replica of the incomplete task with the fewest
  // missing files at its site; first finisher wins.
  bool replicate_when_idle = false;
  int max_replicas = 2;  // total concurrent instances per task
};

class WorkerCentricScheduler final : public PullScheduler {
 public:
  explicit WorkerCentricScheduler(const WorkerCentricParams& params);

  void on_job_submitted() override;
  void on_task_completed(TaskId task, WorkerId worker) override;
  // Open-system arrivals: each task enters the pending bag exactly like
  // a crash re-home (per-site counters rebuilt against the live cache,
  // index and file -> task row re-insertion), then starving workers are
  // fed.
  void on_tasks_arrived(const std::vector<TaskId>& tasks) override;
  [[nodiscard]] bool supports_arrivals() const override { return true; }

  // Invariant audit: cross-validates the residency table's counters
  // against residency() on the live cache, every site's index against
  // those counters, under combined every (site, tenant)'s index-derived
  // totals against the O(|pending|) scan, and candidates() against
  // reference_candidates(), bitwise.
  void audit_collect(std::vector<audit::Violation>& out) const override;

  // --- Introspection (tests, examples) ---------------------------------

  // CalculateWeight() of a pending task for a requesting worker at `site`,
  // from the incremental index, among its tenant's pending tasks. Task
  // must be pending.
  [[nodiscard]] double weight(SiteId site, TaskId task) const;

  // Same value computed naively from the site cache — O(T * I); the
  // property tests assert weight() == naive_weight() at every step.
  [[nodiscard]] double naive_weight(SiteId site, TaskId task) const;

  [[nodiscard]] bool is_pending(TaskId task) const {
    return pending_.contains(task);
  }
  [[nodiscard]] std::size_t overlap_cardinality(SiteId site,
                                                TaskId task) const;

  // (totalRef, totalRest) over `tenant`'s pending tasks for `site`, read
  // off its index under the combined metric (the one whose index holds
  // them). Tests cross-check this against the O(|pending|) scan the
  // combined metric used to pay on every choose_task().
  [[nodiscard]] std::pair<double, double> totals_of(
      SiteId site, std::uint32_t tenant = 0) const;

  // The combined metric's index rank of `task` at site index `site`:
  // ref_t, which must fit the index's 32-bit rank (a WCS_CHECK naming
  // the site and task refuses a larger one instead of wrapping it).
  [[nodiscard]] static std::uint32_t combined_rank(std::size_t site,
                                                   TaskId task,
                                                   std::uint64_t ref_t);

  // One ChooseTask(n) candidate: a pending task and its weight at the
  // requesting site.
  struct Candidate {
    double weight = 0;
    TaskId task;
  };

  // The top-n pending tasks of `tenant` ChooseTask(n) samples from at
  // `site`, best first by (weight desc, task id asc): the decision before
  // the RNG draw, resolved by the sharded index walk. Empty when nothing
  // of the tenant is pending.
  [[nodiscard]] std::vector<Candidate> candidates(
      SiteId site, std::uint32_t tenant = 0) const;

  // The same list from a brute-force scan of the whole pending bag: the
  // decision oracle shared by audit_collect() and the tests.
  [[nodiscard]] std::vector<Candidate> reference_candidates(
      SiteId site, std::uint32_t tenant = 0) const;

  // Resolves ChooseTask(n) for a worker at `site` WITHOUT assigning or
  // removing the task (bench hook). Consumes exactly the RNG draw the
  // real assignment would (none when the top-n has a single candidate).
  // Tenant 0 (a closed run's whole bag) must have a pending task.
  [[nodiscard]] TaskId peek_choice(SiteId site) {
    return choose_task(site, 0);
  }

 private:
  [[nodiscard]] std::string algorithm_name() const override;
  [[nodiscard]] std::size_t pending_of(std::uint32_t tenant) const override {
    return tenant_pending_[tenant];
  }
  void serve(WorkerId worker, std::uint32_t tenant) override;
  // Crash handling: lost tasks whose last instance died return to the
  // pending bag, with their index entries rebuilt against the live cache
  // state.
  void requeue(WorkerId worker, const std::vector<TaskId>& lost) override;
  // Replication phase (only when params_.replicate_when_idle): assigns a
  // replica to `worker` and returns true, or returns false.
  bool serve_empty(WorkerId worker) override;

  // Takes `task` out of the bag (and the residency table and its index)
  // and assigns it to `worker`.
  void assign_pending(TaskId task, WorkerId worker);
  // CalculateWeight() of a task with `overlap` of its `size` files at the
  // site and ref-sum `ref_sum`, given the site's totals: the one formula
  // behind the index (weight_of) and naive_weight().
  [[nodiscard]] double weight_from(std::uint32_t overlap, std::uint32_t size,
                                   std::uint64_t ref_sum, double total_ref,
                                   double total_rest) const;
  [[nodiscard]] double weight_of(std::size_t s, TaskId task,
                                 double total_ref, double total_rest) const {
    return weight_from(residency_.files(s, task), task_size_[task.value()],
                       residency_.refs(s, task), total_ref, total_rest);
  }
  // rest_t of a task with `missing` files still to transfer.
  [[nodiscard]] static double rest_weight(std::size_t missing) {
    return missing == 0 ? kFullOverlapRestWeight
                        : 1.0 / static_cast<double>(missing);
  }
  // Under combined, (totalRef, totalRest) over `tenant`'s pending tasks
  // for site `s`, read off its index after refreshing it: the rank
  // totals and sizes of the tenant's buckets (one per missing count).
  // Exact: both are integer counts, and totalRest sums the same terms in
  // the same order whenever it is read. Cross-validated against
  // scan_totals() in debug builds.
  [[nodiscard]] std::pair<double, double> totals(std::size_t s,
                                                 std::uint32_t tenant) const;
  // The same sums from an O(|pending|) scan: the audit's oracle.
  [[nodiscard]] std::pair<double, double> scan_totals(
      std::size_t s, std::uint32_t tenant) const;
  [[nodiscard]] std::uint32_t missing_of(std::size_t s, TaskId task) const {
    const std::uint32_t overlap = residency_.files(s, task);
    WCS_DCHECK_LE(overlap, task_size_[task.value()]);
    return task_size_[task.value()] - overlap;
  }
  // candidates(site, tenant), written into `out` (cleared first): the
  // index walk behind both candidates() and choose_task().
  void fill_candidates(SiteId site, std::uint32_t tenant,
                       std::vector<Candidate>& out) const;
  // ChooseTask(n): samples one of candidates(site, tenant) proportionally
  // to weight with the tenant's RNG, through the reused choice_buf_ /
  // weight_buf_.
  [[nodiscard]] TaskId choose_task(SiteId site, std::uint32_t tenant);

  // --- Sharded pending-task index (layer 2; see file comment) ----------
  // The residency table's `place`: (key, rank) of a pending task at site
  // `s`, its key offset by tenant_of(task) * keys_per_tenant_.
  // Combined: key = missing count, rank = ref_t (weight is strictly
  // increasing in ref_t at a fixed missing count; combined_rank() checks
  // it fits 32 bits). Overlap and rest: key 0, rank = |F_t|, resp.
  // UINT32_MAX - missing count, so one heap holds the weight order
  // itself.
  [[nodiscard]] auto shard_place() const {
    return [this](std::size_t s,
                  TaskId task) -> std::pair<std::uint64_t, std::uint32_t> {
      const std::uint64_t first =
          std::uint64_t{tenant_of(task)} * keys_per_tenant_;
      const std::uint32_t missing = missing_of(s, task);
      if (params_.metric == Metric::kCombined)
        return {first + missing,
                combined_rank(s, task, residency_.refs(s, task))};
      return {first, params_.metric == Metric::kOverlap
                         ? residency_.files(s, task)
                         : UINT32_MAX - missing};
    };
  }

  // Scans the incomplete tasks for the best replica to give `worker`.
  bool replicate_for(WorkerId worker);
  // Return a task to the pending bag, rebuilding its per-site counters.
  void re_add_pending(TaskId task);

  WorkerCentricParams params_;
  // ChooseTask(n)'s draws, one stream per tenant: Rng(seed) for one
  // tenant, Rng(substream_seed(seed, t)) for tenant t of several.
  std::vector<Rng> rngs_;
  // |F_t| (and ref_t under combined) per (site, task), exact for exactly
  // the pending bag: untracked on assignment, tracked again on a crash
  // re-add or an arrival. Its per-site index files exactly the pending
  // bag under shard_place() once refreshed: each tenant's tasks under
  // its own keys_per_tenant_ keys (max |t| + 1 under combined, else 1).
  ResidencyTable residency_;
  std::size_t keys_per_tenant_ = 1;
  std::vector<std::uint32_t> task_size_;  // |t| per task
  PendingBag pending_;
  std::vector<std::size_t> tenant_pending_;  // pending_ split by tenant
  // Replication bookkeeping (kept even when replication is off: the
  // engine reports completions regardless). Two inline slots cover every
  // paper configuration (max_replicas = 2); larger settings spill.
  std::vector<common::InlineVec<WorkerId, 2>> placements_;
  std::vector<char> completed_;
  // Decision scratch, reserved to n + 1 / n entries at construction, so a
  // warm ChooseTask(n) allocates nothing.
  std::vector<Candidate> choice_buf_;
  std::vector<double> weight_buf_;
};

}  // namespace wcs::sched
