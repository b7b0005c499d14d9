#include "sched/worker_centric.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "audit/checkers.h"

namespace wcs::sched {

const char* to_string(Metric metric) {
  switch (metric) {
    case Metric::kOverlap: return "overlap";
    case Metric::kRest: return "rest";
    case Metric::kCombined: return "combined";
  }
  return "?";
}

WorkerCentricScheduler::WorkerCentricScheduler(
    const WorkerCentricParams& params)
    : params_(params), rng_(params.seed) {
  WCS_CHECK_MSG(params.choose_n >= 1, "ChooseTask(n) needs n >= 1");
}

std::string WorkerCentricScheduler::name() const {
  std::string n = to_string(params_.metric);
  if (params_.metric == Metric::kCombined &&
      params_.combined_formula == CombinedFormula::kVerbatim)
    n += "~verbatim";
  if (params_.choose_n >= 2) {
    // Built as two appends: GCC 12's -Wrestrict false-positives on
    // `const char* + std::string&&` under -O2 (PR105651).
    n += '.';
    n += std::to_string(params_.choose_n);
  }
  if (params_.replicate_when_idle) n += "+repl";
  return n;
}

void WorkerCentricScheduler::on_job_submitted() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  build_index();
}

void WorkerCentricScheduler::build_index() {
  const workload::Job& job = engine().job();
  const std::size_t num_tasks = job.num_tasks();
  const std::size_t num_files = job.catalog.num_files();

  // CSR build: count row widths, finalize, fill in task order — each
  // row ends up in the same order the old per-file push_back produced.
  tasks_of_file_.reset(num_files);
  task_size_.assign(num_tasks, 0);
  std::uint32_t max_task_size = 0;
  for (const workload::Task& t : job.tasks()) {
    for (FileId f : t.files) tasks_of_file_.count(f.value());
    task_size_[t.id.value()] = static_cast<std::uint32_t>(t.files.size());
    max_task_size = std::max(max_task_size, task_size_[t.id.value()]);
  }
  tasks_of_file_.finalize();

  // Open-system runs: only tasks already arrived at t=0 start pending.
  // The CSR rows above were COUNTED over all tasks, so a later arrival
  // re-enters its rows through re_add_pending without overflowing them.
  // Closed runs (arrivals == nullptr) take the every-task path verbatim.
  const workload::ArrivalSchedule* arrivals = engine().arrivals();
  auto initially_pending = [arrivals](TaskId t) {
    return arrivals == nullptr || arrivals->arrival(t) <= 0;
  };
  for (const workload::Task& t : job.tasks())
    if (initially_pending(t.id))
      for (FileId f : t.files) tasks_of_file_.push(f.value(), t.id);

  pending_.assign(num_tasks, 0);
  pending_list_.clear();
  pending_list_.reserve(num_tasks);
  pending_pos_.resize(num_tasks);
  placements_.assign(num_tasks, {});
  completed_.assign(num_tasks, 0);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    TaskId id(static_cast<TaskId::underlying_type>(i));
    if (!initially_pending(id)) continue;
    pending_[i] = 1;
    pending_pos_[i] = static_cast<std::uint32_t>(pending_list_.size());
    pending_list_.push_back(id);
  }

  // Seed the per-site overlap/ref-sum counters from whatever the caches
  // already hold (usually nothing; tests may pre-warm), then subscribe to
  // incremental updates.
  sites_.assign(engine().num_sites(), SiteIndex{});
  shards_.assign(engine().num_sites(), ShardedTaskIndex{});
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    SiteIndex& idx = sites_[s];
    idx.overlap.assign(num_tasks, 0);
    idx.ref_sum.assign(num_tasks, 0);
    const storage::FileCache& cache = engine().site_cache(site);
    for (FileId f : cache.contents()) {
      auto refs = static_cast<std::uint64_t>(cache.ref_count(f));
      for (TaskId t : tasks_of_file_.row(f.value())) {
        ++idx.overlap[t.value()];
        idx.ref_sum[t.value()] += refs;
      }
    }
    // Seed the incremental aggregates over the initially-pending bag
    // (every task, in a closed run).
    idx.total_ref = 0;
    idx.missing_hist.assign(max_task_size + 1, 0);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (!pending_[t]) continue;
      idx.total_ref += idx.ref_sum[t];
      ++idx.missing_hist[task_size_[t] - idx.overlap[t]];
    }
    ShardedTaskIndex& shard = shards_[s];
    shard.reset(num_tasks, params_.metric == Metric::kCombined
                               ? max_task_size + std::size_t{1}
                               : 1);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (!pending_[t]) continue;
      TaskId id(static_cast<TaskId::underlying_type>(t));
      const auto [key, rank] = shard_place(idx, id);
      shard.insert(id, key, rank);
    }
    engine().set_cache_listener(
        site, [this, site](storage::CacheEvent e, FileId f) {
          on_cache_event(site, e, f);
        });
  }
}

void WorkerCentricScheduler::on_cache_event(SiteId site,
                                            storage::CacheEvent event,
                                            FileId file) {
  SiteIndex& idx = sites_[site.value()];
  // The listener fires after the cache mutated, so ref_count(file) is the
  // post-event value: on kAdded the pre-existing count, on kEvicted the
  // count accumulated while resident (insert/evict do not change counts).
  // The inverted index only holds PENDING tasks (trimmed in
  // remove_pending, restored in re_add_pending), so every task touched
  // here also updates the site's incremental totals — and is re-keyed in
  // the site's shard, which indexes exactly the pending bag.
  ShardedTaskIndex& shard = shards_[site.value()];
  switch (event) {
    case storage::CacheEvent::kAdded: {
      auto refs = static_cast<std::uint64_t>(
          engine().site_cache(site).ref_count(file));
      for (TaskId t : tasks_of_file_.row(file.value())) {
        const std::uint32_t missing = missing_of(idx, t);
        WCS_DCHECK(missing > 0);  // the file was not resident before
        --idx.missing_hist[missing];
        ++idx.missing_hist[missing - 1];
        ++idx.overlap[t.value()];
        idx.ref_sum[t.value()] += refs;
        idx.total_ref += refs;
        const auto [key, rank] = shard_place(idx, t);
        shard.update(t, key, rank);
      }
      break;
    }
    case storage::CacheEvent::kEvicted: {
      auto refs = static_cast<std::uint64_t>(
          engine().site_cache(site).ref_count(file));
      for (TaskId t : tasks_of_file_.row(file.value())) {
        WCS_DCHECK(idx.overlap[t.value()] > 0);
        const std::uint32_t missing = missing_of(idx, t);
        --idx.missing_hist[missing];
        ++idx.missing_hist[missing + 1];
        --idx.overlap[t.value()];
        idx.ref_sum[t.value()] -= refs;
        idx.total_ref -= refs;
        const auto [key, rank] = shard_place(idx, t);
        shard.update(t, key, rank);
      }
      break;
    }
    case storage::CacheEvent::kAccessed:
      // r_i was incremented by exactly one while the file is resident.
      // Only the combined metric ranks by ref_t, so only it re-files:
      // rank + 1 in the same bucket, a sift of usually 0-1 swaps.
      for (TaskId t : tasks_of_file_.row(file.value())) {
        idx.ref_sum[t.value()] += 1;
        idx.total_ref += 1;
        if (params_.metric == Metric::kCombined)
          shard.update(t, missing_of(idx, t), idx.ref_sum[t.value()]);
      }
      break;
  }
}

double WorkerCentricScheduler::rest_of(const SiteIndex& idx,
                                       TaskId task) const {
  WCS_DCHECK_LE(idx.overlap[task.value()], task_size_[task.value()]);
  const std::uint32_t missing = missing_of(idx, task);
  return missing == 0 ? kFullOverlapRestWeight
                      : 1.0 / static_cast<double>(missing);
}

std::pair<double, double> WorkerCentricScheduler::scan_totals(
    const SiteIndex& idx) const {
  double total_ref = 0;
  double total_rest = 0;
  for (TaskId t : pending_list_) {
    total_ref += static_cast<double>(idx.ref_sum[t.value()]);
    total_rest += rest_of(idx, t);
  }
  return {total_ref, total_rest};
}

double WorkerCentricScheduler::histogram_rest(const SiteIndex& idx) {
  // Every pending task with m files missing contributes rest_t = 1/m
  // (kFullOverlapRestWeight at m = 0). The histogram is as long as the
  // largest task's file list — a workload constant (~100 for Coadd)
  // independent of |pending|.
  double total_rest = 0;
  if (!idx.missing_hist.empty() && idx.missing_hist[0] > 0)
    total_rest += idx.missing_hist[0] * kFullOverlapRestWeight;
  for (std::size_t m = 1; m < idx.missing_hist.size(); ++m)
    if (idx.missing_hist[m] > 0)
      total_rest += static_cast<double>(idx.missing_hist[m]) /
                    static_cast<double>(m);
  return total_rest;
}

std::pair<double, double> WorkerCentricScheduler::totals(
    const SiteIndex& idx) const {
  const double total_rest = histogram_rest(idx);
#ifndef NDEBUG
  // Cross-validate against the pre-optimization O(|pending|) scan.
  const auto [scan_ref, scan_rest] = scan_totals(idx);
  WCS_DCHECK_EQ(scan_ref, static_cast<double>(idx.total_ref));
  WCS_DCHECK(std::abs(scan_rest - total_rest) <=
             1e-9 * std::max(1.0, std::abs(scan_rest)));
#endif
  return {static_cast<double>(idx.total_ref), total_rest};
}

std::pair<double, double> WorkerCentricScheduler::totals_of(
    SiteId site) const {
  return totals(sites_.at(site.value()));
}

double WorkerCentricScheduler::weight_of(const SiteIndex& idx, TaskId task,
                                         double total_ref,
                                         double total_rest) const {
  switch (params_.metric) {
    case Metric::kOverlap:
      return static_cast<double>(idx.overlap[task.value()]);
    case Metric::kRest:
      return rest_of(idx, task);
    case Metric::kCombined: {
      double ref_term =
          total_ref > 0
              ? static_cast<double>(idx.ref_sum[task.value()]) / total_ref
              : 0.0;
      double rest = rest_of(idx, task);
      if (params_.combined_formula == CombinedFormula::kProse)
        return ref_term + (total_rest > 0 ? rest / total_rest : 0.0);
      return ref_term + total_rest / rest;  // verbatim paper formula
    }
  }
  WCS_CHECK(false);
  return 0;
}

double WorkerCentricScheduler::weight(SiteId site, TaskId task) const {
  WCS_CHECK_MSG(is_pending(task), "weight() of non-pending task " << task);
  const SiteIndex& idx = sites_.at(site.value());
  auto [total_ref, total_rest] = totals(idx);
  return weight_of(idx, task, total_ref, total_rest);
}

double WorkerCentricScheduler::naive_weight(SiteId site, TaskId task) const {
  WCS_CHECK_MSG(is_pending(task), "naive_weight() of non-pending task");
  const workload::Job& job = engine().job();
  const storage::FileCache& cache = engine().site_cache(site);

  auto overlap_and_refs = [&](TaskId t) {
    std::size_t overlap = 0;
    std::uint64_t refs = 0;
    for (FileId f : job.task(t).files) {
      if (cache.contains(f)) {
        ++overlap;
        refs += cache.ref_count(f);
      }
    }
    return std::pair{overlap, refs};
  };
  auto rest_naive = [&](TaskId t) {
    auto [overlap, refs] = overlap_and_refs(t);
    (void)refs;
    std::size_t missing = job.task(t).files.size() - overlap;
    return missing == 0 ? kFullOverlapRestWeight
                        : 1.0 / static_cast<double>(missing);
  };

  switch (params_.metric) {
    case Metric::kOverlap:
      return static_cast<double>(overlap_and_refs(task).first);
    case Metric::kRest:
      return rest_naive(task);
    case Metric::kCombined: {
      double total_ref = 0;
      double total_rest = 0;
      for (TaskId t : pending_list_) {
        total_ref += static_cast<double>(overlap_and_refs(t).second);
        total_rest += rest_naive(t);
      }
      double ref_term =
          total_ref > 0
              ? static_cast<double>(overlap_and_refs(task).second) / total_ref
              : 0.0;
      double rest = rest_naive(task);
      if (params_.combined_formula == CombinedFormula::kProse)
        return ref_term + (total_rest > 0 ? rest / total_rest : 0.0);
      return ref_term + total_rest / rest;
    }
  }
  WCS_CHECK(false);
  return 0;
}

std::size_t WorkerCentricScheduler::overlap_cardinality(SiteId site,
                                                        TaskId task) const {
  return sites_.at(site.value()).overlap.at(task.value());
}

namespace {

using Candidate = WorkerCentricScheduler::Candidate;

// Top-n candidate buffer ordered by (weight desc, task id asc) — the
// ChooseTask(n) selection order. The reference scan offers every pending
// task, the live index walk only prefixes. n is tiny (1 or 2 in the
// paper), so insertion beats sorting T entries.
struct TopN {
  explicit TopN(std::size_t limit) : n(limit) { best.reserve(limit + 1); }

  static bool better(const Candidate& a, const Candidate& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.task < b.task;
  }

  // Returns false when the candidate did not make the buffer — in the
  // index walk that ends the current bucket (entries behind it are
  // ordered no-better under `better`).
  bool offer(Candidate c) {
    if (best.size() == n && !better(c, best.back())) return false;
    auto pos = std::upper_bound(best.begin(), best.end(), c, better);
    best.insert(pos, c);
    if (best.size() > n) best.pop_back();
    return true;
  }


  std::size_t n;
  std::vector<Candidate> best;
};

// Samples among the best-n proportionally to weight (uniform when all
// weights are zero — see Rng::weighted_index).
TaskId pick_from(const std::vector<Candidate>& best, Rng& rng) {
  if (best.size() == 1) return best[0].task;
  std::vector<double> weights;
  weights.reserve(best.size());
  for (const Candidate& c : best) weights.push_back(c.weight);
  return best[rng.weighted_index(weights)].task;
}

bool same_bits(const std::vector<Candidate>& a,
               const std::vector<Candidate>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Candidate& x, const Candidate& y) {
                      return x.task == y.task &&
                             std::bit_cast<std::uint64_t>(x.weight) ==
                                 std::bit_cast<std::uint64_t>(y.weight);
                    });
}

void describe(std::ostream& os, const std::vector<Candidate>& list) {
  os << '[' << std::setprecision(17);
  for (const Candidate& c : list) os << ' ' << c.task << '@' << c.weight;
  os << " ]";
}

}  // namespace

TaskId WorkerCentricScheduler::choose_task(SiteId site) {
  WCS_CHECK(!pending_list_.empty());
  return pick_from(candidates(site), rng_);
}

std::vector<Candidate> WorkerCentricScheduler::reference_candidates(
    SiteId site) const {
  const SiteIndex& idx = sites_.at(site.value());

  double total_ref = 0;
  double total_rest = 0;
  if (params_.metric == Metric::kCombined)
    std::tie(total_ref, total_rest) = totals(idx);

  TopN topn(std::min<std::size_t>(
      static_cast<std::size_t>(params_.choose_n), pending_list_.size()));
  for (TaskId t : pending_list_)
    topn.offer({weight_of(idx, t, total_ref, total_rest), t});
  return std::move(topn.best);
}

std::vector<Candidate> WorkerCentricScheduler::candidates(SiteId site) const {
  const SiteIndex& idx = sites_[site.value()];
  const ShardedTaskIndex& shard = shards_[site.value()];
  WCS_DCHECK_EQ(shard.size(), pending_list_.size());

  double total_ref = 0;
  double total_rest = 0;
  if (params_.metric == Metric::kCombined)
    std::tie(total_ref, total_rest) = totals(idx);

  TopN topn(std::min<std::size_t>(
      static_cast<std::size_t>(params_.choose_n), pending_list_.size()));
  // Along every walk the weight is non-increasing and ties come in the id
  // order `better` uses (sharded_index.h, equivalence invariant), so the
  // first rejected entry ends the walk. Overlap and rest have one bucket;
  // combined mixes a normalized ref term with the rest term, so no
  // missing count dominates and each bucket is walked (B <= max |t| + 1,
  // a workload constant).
  for (std::uint64_t key = 0; key < shard.num_keys(); ++key)
    shard.walk(key, [&](const ShardedTaskIndex::Entry& e) {
      return topn.offer(
          {weight_of(idx, e.task, total_ref, total_rest), e.task});
    });
  return std::move(topn.best);
}

void WorkerCentricScheduler::remove_pending(TaskId task) {
  WCS_CHECK(is_pending(task));
  pending_[task.value()] = 0;
  std::uint32_t pos = pending_pos_[task.value()];
  TaskId last = pending_list_.back();
  pending_list_[pos] = last;
  pending_pos_[last.value()] = pos;
  pending_list_.pop_back();
  // The task leaves every site's pending aggregates (and shard).
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteIndex& idx = sites_[s];
    idx.total_ref -= idx.ref_sum[task.value()];
    WCS_DCHECK(idx.missing_hist[missing_of(idx, task)] > 0);
    --idx.missing_hist[missing_of(idx, task)];
    shards_[s].erase(task);
  }
  // Trim the inverted index so cache events stop touching this task.
  for (FileId f : engine().job().task(task).files) {
    const bool removed = tasks_of_file_.erase_swap(f.value(), task);
    WCS_DCHECK(removed);
    (void)removed;
  }
}

void WorkerCentricScheduler::forget_starving(WorkerId worker) {
  std::erase(starving_, worker);
}

void WorkerCentricScheduler::on_worker_idle(WorkerId worker) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  forget_starving(worker);
  if (pending_list_.empty()) {
    // Bag is empty; optionally shave the tail by replicating. A worker
    // left without work is remembered: a crash elsewhere may refill the
    // bag, and feed_starving() then serves it.
    if (params_.replicate_when_idle && replicate_for(worker)) return;
    starving_.push_back(worker);
    return;
  }
  TaskId task = choose_task(engine().site_of(worker));
  remove_pending(task);
  placements_[task.value()].push_back(worker);
  engine().assign_task(task, worker);
}

bool WorkerCentricScheduler::replicate_for(WorkerId worker) {
  const workload::Job& job = engine().job();
  const storage::FileCache& cache =
      engine().site_cache(engine().site_of(worker));

  TaskId best = TaskId::invalid();
  std::size_t best_missing = SIZE_MAX;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (completed_[i]) continue;
    const auto& instances = placements_[i];
    if (instances.empty()) continue;  // never started (cannot happen late)
    if (instances.size() >= static_cast<std::size_t>(params_.max_replicas))
      continue;
    TaskId t(static_cast<TaskId::underlying_type>(i));
    if (instances.contains(worker)) continue;
    std::size_t missing = 0;
    for (FileId f : job.task(t).files)
      if (!cache.contains(f)) ++missing;
    // Fewest missing files (the rest metric's criterion applied to
    // replicas); ties to the highest id (assigned latest, most likely to
    // still be far from finishing).
    if (missing < best_missing ||
        (missing == best_missing && best.valid() && t > best)) {
      best_missing = missing;
      best = t;
    }
  }
  if (!best.valid()) return false;
  placements_[best.value()].push_back(worker);
  engine().assign_task(best, worker);
  return true;
}

void WorkerCentricScheduler::on_task_completed(TaskId task, WorkerId worker) {
  completed_[task.value()] = 1;
  auto& instances = placements_[task.value()];
  for (WorkerId w : instances) {
    if (w == worker) continue;
    engine().cancel_task(task, w);
  }
  instances.clear();
}

void WorkerCentricScheduler::re_add_pending(TaskId task) {
  WCS_CHECK(!is_pending(task));
  WCS_CHECK(!completed_[task.value()]);
  const workload::Job& job = engine().job();

  // Rebuild the per-site counters against the LIVE cache state (they went
  // stale the moment the task left the inverted index).
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    const storage::FileCache& cache = engine().site_cache(site);
    std::uint32_t overlap = 0;
    std::uint64_t refs = 0;
    for (FileId f : job.task(task).files) {
      if (cache.contains(f)) {
        ++overlap;
        refs += cache.ref_count(f);
      }
    }
    SiteIndex& idx = sites_[s];
    idx.overlap[task.value()] = overlap;
    idx.ref_sum[task.value()] = refs;
    // The task re-enters the site's pending aggregates (and shard).
    idx.total_ref += refs;
    ++idx.missing_hist[missing_of(idx, task)];
    const auto [key, rank] = shard_place(idx, task);
    shards_[s].insert(task, key, rank);
  }
  for (FileId f : job.task(task).files)
    tasks_of_file_.push(f.value(), task);

  pending_[task.value()] = 1;
  pending_pos_[task.value()] =
      static_cast<std::uint32_t>(pending_list_.size());
  pending_list_.push_back(task);
}

void WorkerCentricScheduler::feed_starving() {
  while (!pending_list_.empty() && !starving_.empty()) {
    WorkerId worker = starving_.front();
    starving_.pop_front();
    if (!engine().worker_alive(worker)) continue;
    TaskId task = choose_task(engine().site_of(worker));
    remove_pending(task);
    placements_[task.value()].push_back(worker);
    engine().assign_task(task, worker);
  }
}

void WorkerCentricScheduler::audit_collect(
    std::vector<audit::Violation>& out) const {
  const workload::Job& job = engine().job();
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const SiteId site(static_cast<SiteId::underlying_type>(s));
    const SiteIndex& idx = sites_[s];

    // Incremental aggregates vs the full scan over pending tasks (not
    // through totals(), which would re-run its own debug cross-check).
    const auto [scan_ref, scan_rest] = scan_totals(idx);

    audit::IndexTotalsSnapshot totals_snap;
    totals_snap.label = "site " + std::to_string(s);
    totals_snap.incremental_ref = static_cast<double>(idx.total_ref);
    totals_snap.incremental_rest = histogram_rest(idx);
    totals_snap.scanned_ref = scan_ref;
    totals_snap.scanned_rest = scan_rest;
    audit::check_index_coherence(totals_snap, out);

    // Per-task overlap/ref-sum counters vs a full recompute from the live
    // cache. O(files resident * tasks per file), the cost build_index()
    // pays once — affordable at audit-sweep frequency.
    const storage::FileCache& cache = engine().site_cache(site);
    std::vector<std::uint32_t> overlap(task_size_.size(), 0);
    std::vector<std::uint64_t> ref_sum(task_size_.size(), 0);
    for (FileId f : cache.contents()) {
      const auto refs = static_cast<std::uint64_t>(cache.ref_count(f));
      for (TaskId t : tasks_of_file_.row(f.value())) {
        ++overlap[t.value()];
        ref_sum[t.value()] += refs;
      }
    }
    for (TaskId t : pending_list_) {
      if (idx.overlap[t.value()] == overlap[t.value()] &&
          idx.ref_sum[t.value()] == ref_sum[t.value()])
        continue;
      std::ostringstream os;
      os << "site " << s << " task " << t << " index drifted: incremental"
         << " overlap " << idx.overlap[t.value()] << " / refSum "
         << idx.ref_sum[t.value()] << " vs recomputed "
         << overlap[t.value()] << " / " << ref_sum[t.value()]
         << " (task has " << job.task(t).files.size() << " files)";
      out.push_back(audit::Violation{"index-coherence", os.str()});
    }

    // Sharded-index coherence: the shard must hold exactly the pending
    // bag, with every entry keyed/ranked as the brute-force recompute
    // (`overlap`/`ref_sum` above, straight from the cache) dictates.
    const ShardedTaskIndex& shard = shards_[s];
    audit::ShardedIndexSnapshot shard_snap;
    shard_snap.label = "site " + std::to_string(s) + " shard";
    shard_snap.indexed = shard.size();
    shard_snap.expected = pending_list_.size();
    shard_snap.defects = shard.structural_defects();
    for (TaskId t : pending_list_) {
      if (!shard.contains(t)) {
        std::ostringstream os;
        os << "pending task " << t << " missing from the shard";
        shard_snap.defects.push_back(os.str());
        continue;
      }
      const auto [key, rank] =
          shard_place(t, overlap[t.value()], ref_sum[t.value()]);
      if (shard.key_of(t) != key || shard.rank_of(t) != rank) {
        std::ostringstream os;
        os << "task " << t << " filed under key " << shard.key_of(t)
           << " / rank " << shard.rank_of(t) << " but the rescan wants "
           << key << " / " << rank;
        shard_snap.defects.push_back(os.str());
      }
    }
    // Decision coherence: the index walk's top-n must equal the flat
    // scan's, bitwise, before any RNG draw.
    const std::vector<Candidate> live = candidates(site);
    const std::vector<Candidate> reference = reference_candidates(site);
    if (!same_bits(live, reference)) {
      std::ostringstream os;
      os << "ChooseTask(" << params_.choose_n << ") candidates ";
      describe(os, live);
      os << " differ from the reference scan ";
      describe(os, reference);
      shard_snap.defects.push_back(os.str());
    }
    audit::check_sharded_index(shard_snap, out);
  }
}

void WorkerCentricScheduler::on_worker_failed(
    WorkerId worker, const std::vector<TaskId>& lost) {
  forget_starving(worker);
  for (TaskId t : lost) {
    auto& instances = placements_[t.value()];
    instances.erase_value(worker);
    if (instances.empty() && !completed_[t.value()]) re_add_pending(t);
  }
  feed_starving();
}

void WorkerCentricScheduler::on_tasks_arrived(
    const std::vector<TaskId>& tasks) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  for (TaskId t : tasks) re_add_pending(t);
  feed_starving();
}

}  // namespace wcs::sched
