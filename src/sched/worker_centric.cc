#include "sched/worker_centric.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
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
    : params_(params) {
  WCS_CHECK_MSG(params.choose_n >= 1, "ChooseTask(n) needs n >= 1");
  // TopN inserts before it trims, so it holds up to n + 1 entries.
  choice_buf_.reserve(static_cast<std::size_t>(params.choose_n) + 1);
  weight_buf_.reserve(static_cast<std::size_t>(params.choose_n));
}

std::string WorkerCentricScheduler::algorithm_name() const {
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
  const workload::Job& job = engine().job();
  const std::size_t num_tasks = job.num_tasks();
  task_size_.assign(num_tasks, 0);
  std::uint32_t max_task_size = 0;
  for (const workload::Task& t : job.tasks()) {
    task_size_[t.id.value()] = static_cast<std::uint32_t>(t.files.size());
    max_task_size = std::max(max_task_size, task_size_[t.id.value()]);
  }

  // Open-system runs: only tasks already arrived at t=0 start pending;
  // a later arrival is tracked through re_add_pending. Closed runs
  // (arrivals == nullptr) start with every task pending. The table seeds
  // the pending tasks' counters from whatever the caches already hold
  // (usually nothing; tests may pre-warm).
  const workload::ArrivalSchedule* arrivals = engine().arrivals();
  auto initially_pending = [arrivals](TaskId t) {
    return arrivals == nullptr || arrivals->arrival(t) <= 0;
  };
  // Only the combined metric ranks by ref_t; the others keep no ref sums.
  const bool combined = params_.metric == Metric::kCombined;
  residency_.build(engine(),
                   ResidencyTable::kFiles | (combined ? ResidencyTable::kRefs
                                                      : 0u),
                   initially_pending);
  pending_.reset(num_tasks);
  tenant_pending_.assign(num_tenants(), 0);
  for (const workload::Task& t : job.tasks())
    if (initially_pending(t.id)) {
      pending_.insert(t.id);
      ++tenant_pending_[tenant_of(t.id)];
    }
  placements_.assign(num_tasks, {});
  completed_.assign(num_tasks, 0);
  // Adding a tenant must not perturb the draws of the others.
  rngs_.clear();
  rngs_.reserve(num_tenants());
  for (std::uint32_t t = 0; t < num_tenants(); ++t)
    rngs_.emplace_back(num_tenants() == 1 ? params_.seed
                                          : substream_seed(params_.seed, t));

  // File the bag in the index (the overlap / rest key is 0; combined
  // keys are missing counts), each tenant under its own keys.
  keys_per_tenant_ = combined ? max_task_size + std::size_t{1} : 1;
  residency_.fill_index(num_tenants(), keys_per_tenant_,
                        /*prefer_high_id=*/false,
                        [this](TaskId t) { return pending_.contains(t); },
                        shard_place());
}

std::pair<double, double> WorkerCentricScheduler::scan_totals(
    std::size_t s, std::uint32_t tenant) const {
  double total_ref = 0;
  double total_rest = 0;
  for (TaskId t : pending_) {
    if (tenant_of(t) != tenant) continue;
    total_ref += static_cast<double>(residency_.refs(s, t));
    total_rest += rest_weight(missing_of(s, t));
  }
  return {total_ref, total_rest};
}

std::pair<double, double> WorkerCentricScheduler::totals(
    std::size_t s, std::uint32_t tenant) const {
  residency_.refresh(s, shard_place());
  const ShardedTaskIndex& index = residency_.index_of(s);
  // Every pending task with m files missing contributes rest_t = 1/m
  // (kFullOverlapRestWeight at m = 0). A tenant has max |t| + 1 buckets,
  // a workload constant (~100 for Coadd) independent of |pending|.
  const std::size_t first = tenant * keys_per_tenant_;
  std::uint64_t ranks = 0;
  double total_rest = 0;
  for (std::size_t m = 0; m < keys_per_tenant_; ++m) {
    ranks += index.rank_total(first + m);
    const auto n = static_cast<double>(index.bucket_size(first + m));
    if (n > 0)
      total_rest += m == 0 ? n * kFullOverlapRestWeight
                           : n / static_cast<double>(m);
  }
  const auto total_ref = static_cast<double>(ranks);
#ifndef NDEBUG
  // Cross-validate against the O(|pending|) scan.
  const auto [scan_ref, scan_rest] = scan_totals(s, tenant);
  WCS_DCHECK_EQ(scan_ref, total_ref);
  WCS_DCHECK(std::abs(scan_rest - total_rest) <=
             1e-9 * std::max(1.0, std::abs(scan_rest)));
#endif
  return {total_ref, total_rest};
}

std::pair<double, double> WorkerCentricScheduler::totals_of(
    SiteId site, std::uint32_t tenant) const {
  WCS_CHECK_MSG(params_.metric == Metric::kCombined,
                "totals_of() under " << to_string(params_.metric)
                    << ": only combined's index holds totals");
  WCS_CHECK_LT(site.value(), engine().num_sites());
  WCS_CHECK_LT(tenant, num_tenants());
  return totals(site.value(), tenant);
}

std::uint32_t WorkerCentricScheduler::combined_rank(std::size_t site,
                                                    TaskId task,
                                                    std::uint64_t ref_t) {
  WCS_CHECK_MSG(ref_t <= UINT32_MAX,
                "combined index rank: site " << site << " task " << task
                    << " has ref_t " << ref_t
                    << ", more than the 32-bit rank holds");
  return static_cast<std::uint32_t>(ref_t);
}

double WorkerCentricScheduler::weight_from(std::uint32_t overlap,
                                           std::uint32_t size,
                                           std::uint64_t ref_sum,
                                           double total_ref,
                                           double total_rest) const {
  switch (params_.metric) {
    case Metric::kOverlap:
      return static_cast<double>(overlap);
    case Metric::kRest:
      return rest_weight(size - overlap);
    case Metric::kCombined: {
      double ref_term =
          total_ref > 0 ? static_cast<double>(ref_sum) / total_ref : 0.0;
      double rest = rest_weight(size - overlap);
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
  WCS_CHECK_LT(site.value(), engine().num_sites());
  double total_ref = 0;
  double total_rest = 0;
  if (params_.metric == Metric::kCombined)
    std::tie(total_ref, total_rest) = totals(site.value(), tenant_of(task));
  return weight_of(site.value(), task, total_ref, total_rest);
}

double WorkerCentricScheduler::naive_weight(SiteId site, TaskId task) const {
  WCS_CHECK_MSG(is_pending(task), "naive_weight() of non-pending task");
  const workload::Job& job = engine().job();
  const storage::FileCache& cache = engine().site_cache(site);

  auto size = [&](TaskId t) {
    return static_cast<std::uint32_t>(job.task(t).files.size());
  };
  double total_ref = 0;
  double total_rest = 0;
  if (params_.metric == Metric::kCombined) {
    for (TaskId t : pending_) {
      if (tenant_of(t) != tenant_of(task)) continue;
      const Residency r = residency(cache, job, t);
      total_ref += static_cast<double>(r.refs);
      total_rest += rest_weight(size(t) - r.files);
    }
  }
  const Residency r = residency(cache, job, task);
  return weight_from(r.files, size(task), r.refs, total_ref, total_rest);
}

std::size_t WorkerCentricScheduler::overlap_cardinality(SiteId site,
                                                        TaskId task) const {
  WCS_CHECK_LT(site.value(), engine().num_sites());
  return residency_.files(site.value(), task);
}

namespace {

using Candidate = WorkerCentricScheduler::Candidate;

// Top-n candidate buffer ordered by (weight desc, task id asc) — the
// ChooseTask(n) selection order — kept in a caller-owned vector, so a
// decision reuses its buffer. The reference scan offers every pending
// task, the live index walk only prefixes. n is tiny (1 or 2 in the
// paper), so insertion beats sorting T entries.
struct TopN {
  TopN(std::vector<Candidate>& out, std::size_t limit) : n(limit), best(out) {
    best.clear();
  }

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
  std::vector<Candidate>& best;
};

// Samples among the best-n proportionally to weight (uniform when all
// weights are zero — see Rng::weighted_index); `weights` is scratch.
TaskId pick_from(const std::vector<Candidate>& best,
                 std::vector<double>& weights, Rng& rng) {
  if (best.size() == 1) return best[0].task;
  weights.clear();
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

TaskId WorkerCentricScheduler::choose_task(SiteId site,
                                           std::uint32_t tenant) {
  WCS_CHECK(pending_of(tenant) > 0);
  fill_candidates(site, tenant, choice_buf_);
  return pick_from(choice_buf_, weight_buf_, rngs_[tenant]);
}

std::vector<Candidate> WorkerCentricScheduler::reference_candidates(
    SiteId site, std::uint32_t tenant) const {
  const std::size_t s = site.value();
  WCS_CHECK_LT(s, engine().num_sites());
  WCS_CHECK_LT(tenant, num_tenants());

  double total_ref = 0;
  double total_rest = 0;
  if (params_.metric == Metric::kCombined)
    std::tie(total_ref, total_rest) = totals(s, tenant);

  std::vector<Candidate> out;
  TopN topn(out, std::min<std::size_t>(
                     static_cast<std::size_t>(params_.choose_n),
                     pending_of(tenant)));
  for (TaskId t : pending_)
    if (tenant_of(t) == tenant)
      topn.offer({weight_of(s, t, total_ref, total_rest), t});
  return out;
}

std::vector<Candidate> WorkerCentricScheduler::candidates(
    SiteId site, std::uint32_t tenant) const {
  WCS_CHECK_LT(tenant, num_tenants());
  std::vector<Candidate> out;
  fill_candidates(site, tenant, out);
  return out;
}

void WorkerCentricScheduler::fill_candidates(
    SiteId site, std::uint32_t tenant, std::vector<Candidate>& out) const {
  const std::size_t s = site.value();
  residency_.refresh(s, shard_place());

  double total_ref = 0;
  double total_rest = 0;
  if (params_.metric == Metric::kCombined)
    std::tie(total_ref, total_rest) = totals(s, tenant);

  TopN topn(out, std::min<std::size_t>(
                     static_cast<std::size_t>(params_.choose_n),
                     pending_of(tenant)));
  // Along every walk the weight is non-increasing and ties come in the id
  // order `better` uses (sharded_index.h, equivalence invariant), so the
  // first rejected entry ends the walk. Overlap and rest have one bucket
  // a tenant; combined mixes a normalized ref term with the rest term, so
  // no missing count dominates and each of the tenant's buckets is walked
  // (B <= max |t| + 1, a workload constant).
  const std::uint64_t first = std::uint64_t{tenant} * keys_per_tenant_;
  for (std::uint64_t key = first; key < first + keys_per_tenant_; ++key)
    residency_.walk(s, key, [&](const ShardedTaskIndex::Entry& e) {
      return topn.offer(
          {weight_of(s, e.task, total_ref, total_rest), e.task});
    });
}

void WorkerCentricScheduler::assign_pending(TaskId task, WorkerId worker) {
  pending_.erase(task);
  --tenant_pending_[tenant_of(task)];
  residency_.unindex(task);
  residency_.untrack(task);  // cache events stop touching it
  placements_[task.value()].push_back(worker);
  engine().assign_task(task, worker);
}

void WorkerCentricScheduler::serve(WorkerId worker, std::uint32_t tenant) {
  assign_pending(choose_task(engine().site_of(worker), tenant), worker);
}

bool WorkerCentricScheduler::serve_empty(WorkerId worker) {
  // The bag is empty; optionally shave the tail by replicating.
  if (!params_.replicate_when_idle) return false;
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  return replicate_for(worker);
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
    const std::size_t missing =
        job.task(t).files.size() - residency(cache, job, t).files;
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
  // Rebuild the per-site counters against the LIVE cache state (they went
  // stale the moment the task left the table); the task then re-enters
  // every site's index.
  residency_.track(task);
  residency_.index(task, shard_place());
  pending_.insert(task);
  ++tenant_pending_[tenant_of(task)];
}

void WorkerCentricScheduler::audit_collect(
    std::vector<audit::Violation>& out) const {
  const auto pending = [this](TaskId t) { return pending_.contains(t); };
  residency_.audit_collect(pending, out);
  // Every site's index vs the counters the table's audit above recounts:
  // it must file exactly the pending bag, as shard_place() keys it.
  residency_.audit_index(pending, shard_place(), out);
  for (std::size_t s = 0; s < engine().num_sites(); ++s)
    for (std::uint32_t tenant = 0; tenant < num_tenants(); ++tenant) {
      std::string label = "site " + std::to_string(s);
      if (num_tenants() > 1) label += " tenant " + std::to_string(tenant);
      // Under combined, the index-derived totals vs the full scan over
      // the tenant's pending tasks: the always-on promotion of totals()'
      // debug check (which, in a debug build, fails first).
      if (params_.metric == Metric::kCombined) {
        audit::IndexTotalsSnapshot totals_snap;
        totals_snap.label = label;
        std::tie(totals_snap.index_ref, totals_snap.index_rest) =
            totals(s, tenant);
        std::tie(totals_snap.scanned_ref, totals_snap.scanned_rest) =
            scan_totals(s, tenant);
        audit::check_index_coherence(totals_snap, out);
      }

      // Decision coherence: the index walk's top-n must equal the flat
      // scan's, bitwise, before any RNG draw.
      const SiteId site(static_cast<SiteId::underlying_type>(s));
      const std::vector<Candidate> live = candidates(site, tenant);
      const std::vector<Candidate> reference =
          reference_candidates(site, tenant);
      if (same_bits(live, reference)) continue;
      std::ostringstream os;
      os << label << " ChooseTask(" << params_.choose_n << ") candidates ";
      describe(os, live);
      os << " differ from the reference scan ";
      describe(os, reference);
      out.push_back(audit::Violation{"sharded-index", os.str()});
    }
}

void WorkerCentricScheduler::requeue(WorkerId worker,
                                     const std::vector<TaskId>& lost) {
  for (TaskId t : lost) {
    auto& instances = placements_[t.value()];
    instances.erase_value(worker);
    if (instances.empty() && !completed_[t.value()]) re_add_pending(t);
  }
}

void WorkerCentricScheduler::on_tasks_arrived(
    const std::vector<TaskId>& tasks) {
  {
    obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
    for (TaskId t : tasks) re_add_pending(t);
  }
  feed_starving();
}

}  // namespace wcs::sched
