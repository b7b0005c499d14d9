// Sharded pending-task index (sched/sharded_index.h): structural unit
// tests, the audit checker, and — the load-bearing part — property tests
// that replay random interleavings of cache adds/evictions, assignments,
// completions, and worker failures through ONE live scheduler and, after
// every operation, compare its decision for every site (worker-centric
// candidates()) or every live worker (storage affinity replica_pick())
// bitwise with the brute-force oracle (reference_candidates() /
// reference_pick()) through audit_collect(), the same comparison --audit
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/checkers.h"
#include "common/alloc_stats.h"
#include "fake_engine.h"
#include "grid/experiment.h"
#include "sched/sharded_index.h"
#include "sched/storage_affinity.h"
#include "sched/worker_centric.h"
#include "workload/coadd.h"

namespace wcs::sched {
namespace {

using testing::FakeEngine;
using testing::make_job;

TaskId tid(unsigned v) { return TaskId(v); }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- ShardedTaskIndex structural tests ---------------------------------

// Every task filed under `key`, in walk order.
std::vector<TaskId> walk_all(const ShardedTaskIndex& idx, std::uint64_t key) {
  std::vector<TaskId> order;
  idx.walk(key, [&](const ShardedTaskIndex::Entry& e) {
    order.push_back(e.task);
    return true;
  });
  return order;
}

TEST(ShardedTaskIndex, InsertEraseUpdateMaintainBuckets) {
  ShardedTaskIndex idx;
  idx.reset(8, /*num_keys=*/8);
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.num_keys(), 8u);

  idx.insert(tid(0), /*key=*/3);
  idx.insert(tid(1), /*key=*/3);
  idx.insert(tid(2), /*key=*/7);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(walk_all(idx, 3), (std::vector<TaskId>{tid(0), tid(1)}));
  EXPECT_EQ(walk_all(idx, 7), (std::vector<TaskId>{tid(2)}));
  EXPECT_TRUE(idx.contains(tid(1)));
  EXPECT_FALSE(idx.contains(tid(5)));
  EXPECT_EQ(idx.key_of(tid(2)), 7u);

  // Re-keying moves between buckets; the vacated bucket walks empty.
  idx.update(tid(2), /*key=*/3);
  EXPECT_TRUE(walk_all(idx, 7).empty());
  EXPECT_EQ(walk_all(idx, 3), (std::vector<TaskId>{tid(0), tid(1), tid(2)}));
  EXPECT_EQ(idx.key_of(tid(2)), 3u);
  // A no-op update leaves everything in place.
  idx.update(tid(2), /*key=*/3);
  EXPECT_EQ(idx.size(), 3u);
  // A rank-only update re-orders within the bucket.
  idx.update(tid(1), /*key=*/3, /*rank=*/4);
  EXPECT_EQ(walk_all(idx, 3), (std::vector<TaskId>{tid(1), tid(0), tid(2)}));
  EXPECT_TRUE(idx.structural_defects().empty());

  idx.erase(tid(0));
  idx.erase(tid(1));
  idx.erase(tid(2));
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(walk_all(idx, 3).empty());
  EXPECT_TRUE(idx.structural_defects().empty());
}

TEST(ShardedTaskIndex, BucketOrderIsRankDescThenLowId) {
  ShardedTaskIndex idx;
  idx.reset(4, /*num_keys=*/2);
  idx.insert(tid(2), /*key=*/1, /*rank=*/5);
  idx.insert(tid(0), /*key=*/1, /*rank=*/9);
  idx.insert(tid(3), /*key=*/1, /*rank=*/5);
  idx.insert(tid(1), /*key=*/1, /*rank=*/9);

  // rank 9 before rank 5; within a rank, ascending id (the flat
  // ChooseTask tie-break).
  EXPECT_EQ(walk_all(idx, 1),
            (std::vector<TaskId>{tid(0), tid(1), tid(2), tid(3)}));
}

TEST(ShardedTaskIndex, PreferHighIdReversesTieOrder) {
  ShardedTaskIndex idx(/*prefer_high_id=*/true);
  idx.reset(4, /*num_keys=*/5);
  for (unsigned t : {1u, 3u, 0u, 2u}) idx.insert(tid(t), /*key=*/4);

  // Equal ranks, descending id: the storage-affinity replica tie-break.
  EXPECT_EQ(walk_all(idx, 4),
            (std::vector<TaskId>{tid(3), tid(2), tid(1), tid(0)}));
}

TEST(ShardedTaskIndex, WalkStopsWhenTheVisitorDeclines) {
  ShardedTaskIndex idx;
  idx.reset(6, /*num_keys=*/1);
  for (unsigned t = 0; t < 6; ++t) idx.insert(tid(t), 0, /*rank=*/t % 3);
  std::vector<TaskId> seen;
  idx.walk(0, [&](const ShardedTaskIndex::Entry& e) {
    seen.push_back(e.task);
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<TaskId>{tid(2), tid(5), tid(1)}));
}

TEST(ShardedTaskIndex, WalkAndRankSiftsAllocateNothingOnceWarm) {
  if (!common::alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  ShardedTaskIndex idx;
  idx.reset(64, /*num_keys=*/2);
  for (unsigned t = 0; t < 64; ++t) idx.insert(tid(t), t % 2, t % 5);
  std::size_t visited = 0;
  auto full_walks = [&] {
    for (std::uint64_t key = 0; key < 2; ++key)
      idx.walk(key, [&](const ShardedTaskIndex::Entry&) {
        ++visited;
        return true;
      });
  };
  full_walks();  // sizes the frontier buffer
  const common::AllocSnapshot before = common::alloc_snapshot();
  for (unsigned round = 0; round < 100; ++round) {
    full_walks();
    const TaskId t = tid(round % 64);
    idx.update(t, idx.key_of(t), idx.rank_of(t) + 1);  // kAccessed
  }
  const common::AllocSnapshot after = common::alloc_snapshot();
  EXPECT_EQ(common::allocations_between(before, after), 0u);
  EXPECT_EQ(visited, 101u * 64u);
}

TEST(ShardedTaskIndex, ResetDropsEverything) {
  ShardedTaskIndex idx;
  idx.reset(2, /*num_keys=*/3);
  idx.insert(tid(0), 1);
  idx.insert(tid(1), 2);
  idx.reset(5, /*num_keys=*/10);
  EXPECT_TRUE(idx.empty());
  EXPECT_FALSE(idx.contains(tid(0)));
  EXPECT_TRUE(walk_all(idx, 1).empty());
  idx.insert(tid(4), 9, 3);
  EXPECT_EQ(idx.rank_of(tid(4)), 3u);
  EXPECT_TRUE(idx.structural_defects().empty());
}

TEST(ShardedTaskIndex, OutOfRangeKeyThrows) {
  // The bucket array is dense, so a key past reset()'s bound is refused
  // instead of silently growing it.
  ShardedTaskIndex idx;
  idx.reset(4, /*num_keys=*/3);
  EXPECT_THROW(idx.insert(tid(0), /*key=*/3), std::logic_error);
  EXPECT_FALSE(idx.contains(tid(0)));
  idx.insert(tid(0), /*key=*/2, /*rank=*/5);
  EXPECT_THROW(idx.update(tid(0), /*key=*/1u << 30), std::logic_error);
  // A refused update leaves the entry where it was.
  EXPECT_EQ(idx.key_of(tid(0)), 2u);
  EXPECT_EQ(idx.rank_of(tid(0)), 5u);
  EXPECT_TRUE(idx.structural_defects().empty());
}

// --- ShardedTaskIndex differential test --------------------------------
//
// About 100k seeded mixed operations — insert, erase, key moves of +-1
// (the kAdded / kEvicted re-key), rank + 1 (the combined kAccessed
// path), arbitrary rank raises and drops — against a std::set of
// (key, rank, id). After every operation each bucket's full walk must
// equal the oracle's order and the structure must report no defect.

void run_index_differential(bool prefer_high_id, std::uint64_t seed) {
  constexpr std::size_t kTasks = 48;
  constexpr std::uint64_t kKeys = 6;
  std::mt19937_64 rng(seed);
  ShardedTaskIndex idx(prefer_high_id);
  idx.reset(kTasks, kKeys);

  using Filed = std::tuple<std::uint64_t, std::uint64_t, unsigned>;
  std::set<Filed> oracle;  // (key, rank, id)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> where(kTasks);
  std::vector<char> present(kTasks, 0);

  auto file = [&](unsigned t, std::uint64_t key, std::uint64_t rank) {
    if (present[t]) {
      oracle.erase({where[t].first, where[t].second, t});
      idx.update(tid(t), key, rank);
    } else {
      idx.insert(tid(t), key, rank);
    }
    oracle.insert({key, rank, t});
    where[t] = {key, rank};
    present[t] = 1;
  };
  auto expected_walk = [&](std::uint64_t key) {
    std::vector<std::pair<std::uint64_t, unsigned>> v;
    for (const auto& [k, rank, t] : oracle)
      if (k == key) v.emplace_back(rank, t);
    std::sort(v.begin(), v.end(), [&](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return prefer_high_id ? a.second > b.second : a.second < b.second;
    });
    std::vector<TaskId> order;
    for (const auto& [rank, t] : v) order.push_back(tid(t));
    return order;
  };

  for (int step = 0; step < 100000; ++step) {
    const auto t = static_cast<unsigned>(rng() % kTasks);
    const unsigned op = static_cast<unsigned>(rng() % 100);
    if (!present[t]) {
      file(t, rng() % kKeys, rng() % 8);
    } else if (op < 20) {
      idx.erase(tid(t));
      oracle.erase({where[t].first, where[t].second, t});
      present[t] = 0;
    } else if (op < 45) {
      const auto [key, rank] = where[t];
      const std::uint64_t moved =
          (op % 2 == 0 && key + 1 < kKeys) || key == 0 ? key + 1 : key - 1;
      file(t, moved, rank + rng() % 3);
    } else if (op < 75) {
      file(t, where[t].first, where[t].second + 1);
    } else if (op < 95) {
      file(t, where[t].first, rng() % 12);
    } else {
      file(t, where[t].first, where[t].second);  // no-op update
    }

    ASSERT_EQ(idx.size(), oracle.size()) << "step " << step;
    for (std::uint64_t key = 0; key < kKeys; ++key)
      ASSERT_EQ(walk_all(idx, key), expected_walk(key))
          << "step " << step << " key " << key;
    if (present[t]) {
      ASSERT_EQ(idx.key_of(tid(t)), where[t].first) << "step " << step;
      ASSERT_EQ(idx.rank_of(tid(t)), where[t].second) << "step " << step;
    }
    const std::vector<std::string> defects = idx.structural_defects();
    ASSERT_TRUE(defects.empty()) << "step " << step << ": " << defects[0];
  }
}

TEST(ShardedTaskIndex, DifferentialLowIdTies) {
  run_index_differential(/*prefer_high_id=*/false, 0x5EED1);
}
TEST(ShardedTaskIndex, DifferentialHighIdTies) {
  run_index_differential(/*prefer_high_id=*/true, 0x5EED2);
}

TEST(ShardedIndexAudit, CheckerFlagsCountMismatchAndDefects) {
  audit::ShardedIndexSnapshot snap;
  snap.label = "test shard";
  snap.indexed = 2;
  snap.expected = 3;
  snap.defects.push_back("task #7 filed under the wrong key");

  std::vector<audit::Violation> out;
  audit::check_sharded_index(snap, out);
  ASSERT_EQ(out.size(), 2u);
  for (const audit::Violation& v : out) EXPECT_EQ(v.checker, "sharded-index");

  // A coherent snapshot reports nothing.
  out.clear();
  snap.indexed = 3;
  snap.defects.clear();
  audit::check_sharded_index(snap, out);
  EXPECT_TRUE(out.empty());
}

// --- Worker-centric property test --------------------------------------
//
// Random interleavings of {cache add (with LRU eviction pressure),
// peek, assign, complete, worker failure}: after every operation the
// audit must be clean — every site's bucket-walk top-n equals the flat
// scan's — and every decision must come from that top-n.

workload::Job random_job(std::mt19937_64& rng, std::size_t num_tasks,
                         std::size_t num_files) {
  std::vector<std::vector<unsigned>> sets(num_tasks);
  for (auto& files : sets) {
    const std::size_t k = 1 + rng() % 4;
    std::set<unsigned> chosen;
    while (chosen.size() < k)
      chosen.insert(static_cast<unsigned>(rng() % num_files));
    files.assign(chosen.begin(), chosen.end());
  }
  return make_job(std::move(sets), num_files);
}

// audit_collect() compares the live decision with the oracle; any
// violation (or any index defect) fails the step.
void expect_no_violations(const Scheduler& sched, int step) {
  std::vector<audit::Violation> v;
  sched.audit_collect(v);
  ASSERT_TRUE(v.empty()) << "step " << step << ": [" << v.front().checker
                         << "] " << v.front().message;
}

bool among(const std::vector<WorkerCentricScheduler::Candidate>& list,
           TaskId task) {
  return std::any_of(list.begin(), list.end(),
                     [&](const auto& c) { return c.task == task; });
}

void run_worker_centric_property(Metric metric, int choose_n,
                                 CombinedFormula formula,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t num_tasks = 36;
  const std::size_t num_files = 48;
  const std::size_t num_sites = 3;
  const std::size_t workers_per_site = 2;
  const std::size_t num_workers = num_sites * workers_per_site;
  const workload::Job job = random_job(rng, num_tasks, num_files);

  // Small capacity: adds overflow constantly, exercising kEvicted re-keys.
  FakeEngine eng(job, num_sites, workers_per_site, /*capacity=*/10);

  WorkerCentricParams params;
  params.metric = metric;
  params.choose_n = choose_n;
  params.combined_formula = formula;
  WorkerCentricScheduler sched(params);

  // Pre-warm a few files so build_index() seeds non-trivial counters.
  for (int i = 0; i < 8; ++i) {
    SiteId s(static_cast<SiteId::underlying_type>(rng() % num_sites));
    FileId f(static_cast<FileId::underlying_type>(rng() % num_files));
    eng.add_file(s, f);
  }
  sched.attach(eng);
  sched.on_job_submitted();
  expect_no_violations(sched, /*step=*/-1);

  std::vector<std::pair<TaskId, WorkerId>> live;  // assigned, not done
  for (int step = 0; step < 600; ++step) {
    const unsigned op = static_cast<unsigned>(rng() % 100);
    if (op < 45) {
      SiteId s(static_cast<SiteId::underlying_type>(rng() % num_sites));
      FileId f(static_cast<FileId::underlying_type>(rng() % num_files));
      eng.add_file(s, f);
    } else if (op < 60) {
      if (sched.pending_count() == 0) continue;
      // A decision without assignment: the RNG draw lands in the top-n.
      SiteId s(static_cast<SiteId::underlying_type>(rng() % num_sites));
      const auto top = sched.candidates(s);
      ASSERT_EQ(top.size(), std::min<std::size_t>(
                                static_cast<std::size_t>(choose_n),
                                sched.pending_count()));
      ASSERT_TRUE(among(top, sched.peek_choice(s))) << "step " << step;
    } else if (op < 85) {
      if (sched.pending_count() == 0) continue;
      WorkerId w(static_cast<WorkerId::underlying_type>(rng() % num_workers));
      const auto top = sched.reference_candidates(eng.site_of(w));
      const std::size_t before = eng.assignments.size();
      sched.on_worker_idle(w);
      ASSERT_EQ(eng.assignments.size(), before + 1);
      ASSERT_EQ(eng.assignments.back().second, w);
      ASSERT_TRUE(among(top, eng.assignments.back().first))
          << "step " << step;
      live.push_back(eng.assignments.back());
    } else if (op < 93) {
      if (live.empty()) continue;
      const std::size_t i = rng() % live.size();
      const auto [t, w] = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      sched.on_task_completed(t, w);
    } else {
      if (live.empty()) continue;
      // Crash a worker that holds work; its tasks return to the bag with
      // counters rebuilt from the live caches (the re_add_pending path).
      const WorkerId w = live[rng() % live.size()].second;
      std::vector<TaskId> lost;
      std::erase_if(live, [&](const std::pair<TaskId, WorkerId>& inst) {
        if (inst.second != w) return false;
        lost.push_back(inst.first);
        return true;
      });
      sched.on_worker_failed(w, lost);
    }
    expect_no_violations(sched, step);
  }
}

TEST(ShardedIndexProperty, OverlapChooseOne) {
  run_worker_centric_property(Metric::kOverlap, 1, CombinedFormula::kProse,
                              0xA11CE);
}
TEST(ShardedIndexProperty, OverlapChooseTwo) {
  run_worker_centric_property(Metric::kOverlap, 2, CombinedFormula::kProse,
                              0xB0B);
}
TEST(ShardedIndexProperty, RestChooseOne) {
  run_worker_centric_property(Metric::kRest, 1, CombinedFormula::kProse,
                              0xC4B1E);
}
TEST(ShardedIndexProperty, RestChooseTwo) {
  run_worker_centric_property(Metric::kRest, 2, CombinedFormula::kProse,
                              0xD0D0);
}
TEST(ShardedIndexProperty, CombinedChooseOne) {
  run_worker_centric_property(Metric::kCombined, 1, CombinedFormula::kProse,
                              0xE66);
}
TEST(ShardedIndexProperty, CombinedChooseTwo) {
  run_worker_centric_property(Metric::kCombined, 2, CombinedFormula::kProse,
                              0xF00D);
}
TEST(ShardedIndexProperty, CombinedVerbatimChooseTwo) {
  run_worker_centric_property(Metric::kCombined, 2,
                              CombinedFormula::kVerbatim, 0xFEED);
}

// --- Storage-affinity property tests -----------------------------------
//
// Every idle request must hand out exactly reference_pick(worker) as
// computed just before it, and after every operation the audit (which
// compares replica_pick() with reference_pick() for every live worker)
// must be clean.

// Asks `worker` for work and checks the hand-out against the oracle.
void idle_matches_oracle(StorageAffinityScheduler& sched, FakeEngine& eng,
                         WorkerId worker, int step) {
  const TaskId expected = sched.reference_pick(worker);
  const std::size_t before = eng.assignments.size();
  sched.on_worker_idle(worker);
  if (!expected.valid()) {
    ASSERT_EQ(eng.assignments.size(), before) << "step " << step;
    return;
  }
  ASSERT_EQ(eng.assignments.size(), before + 1) << "step " << step;
  ASSERT_EQ(eng.assignments.back(), std::make_pair(expected, worker))
      << "step " << step;
}

TEST(ShardedIndexProperty, StorageAffinityReplicaPicksMatchFlat) {
  std::mt19937_64 rng(20260805);
  const std::size_t num_tasks = 30;
  const std::size_t num_files = 40;
  const std::size_t num_sites = 3;
  const std::size_t workers_per_site = 2;
  const std::size_t num_workers = num_sites * workers_per_site;
  const workload::Job job = random_job(rng, num_tasks, num_files);

  FakeEngine eng(job, num_sites, workers_per_site, /*capacity=*/12);
  StorageAffinityScheduler sched{StorageAffinityParams{}};
  sched.attach(eng);
  sched.on_job_submitted();
  expect_no_violations(sched, /*step=*/-1);

  std::set<unsigned> dead;
  int kills = 0;
  auto random_alive_worker = [&] {
    unsigned w;
    do {
      w = static_cast<unsigned>(rng() % num_workers);
    } while (dead.count(w));
    return WorkerId(static_cast<WorkerId::underlying_type>(w));
  };

  for (int step = 0; step < 500; ++step) {
    const unsigned op = static_cast<unsigned>(rng() % 100);
    if (op < 40) {
      SiteId s(static_cast<SiteId::underlying_type>(rng() % num_sites));
      FileId f(static_cast<FileId::underlying_type>(rng() % num_files));
      eng.add_file(s, f);
    } else if (op < 75) {
      // Idle worker asks for a replica: the hot path under comparison.
      idle_matches_oracle(sched, eng, random_alive_worker(), step);
    } else if (op < 92) {
      // Complete some incomplete task with a live instance (first
      // finisher wins; siblings are cancelled).
      TaskId victim = TaskId::invalid();
      const std::size_t start = rng() % num_tasks;
      for (std::size_t i = 0; i < num_tasks; ++i) {
        TaskId t(
            static_cast<TaskId::underlying_type>((start + i) % num_tasks));
        if (!sched.completed(t) && !sched.placements(t).empty()) {
          victim = t;
          break;
        }
      }
      if (!victim.valid()) continue;
      const auto inst = sched.placements(victim);
      const std::vector<WorkerId> siblings(inst.begin() + 1, inst.end());
      const std::size_t before = eng.cancellations.size();
      sched.on_task_completed(victim, inst.front());
      ASSERT_EQ(eng.cancellations.size(), before + siblings.size());
      for (std::size_t i = 0; i < siblings.size(); ++i)
        ASSERT_EQ(eng.cancellations[before + i],
                  std::make_pair(victim, siblings[i]));
    } else if (kills < 2) {
      const WorkerId w = random_alive_worker();
      dead.insert(static_cast<unsigned>(w.value()));
      eng.dead_workers.insert(w);
      std::vector<TaskId> lost;
      for (std::size_t i = 0; i < num_tasks; ++i) {
        TaskId t(static_cast<TaskId::underlying_type>(i));
        if (sched.completed(t)) continue;
        const auto& inst = sched.placements(t);
        if (std::find(inst.begin(), inst.end(), w) != inst.end())
          lost.push_back(t);
      }
      sched.on_worker_failed(w, lost);
      ++kills;
    }
    expect_no_violations(sched, step);
  }
  EXPECT_GT(sched.replications(), 0u);
}

TEST(ShardedIndexProperty, StorageAffinityOrphanPickupMatchesFlat) {
  // Total-outage corner: the last instance of a task dies while every
  // other worker is down, so the task is parked in the orphan set until
  // some worker goes idle again; the oracle's lowest-id-first scan over
  // empty placements must agree.
  std::mt19937_64 rng(7);
  const workload::Job job = random_job(rng, /*num_tasks=*/3, /*num_files=*/6);
  FakeEngine eng(job, /*num_sites=*/1, /*workers_per_site=*/2, 10);

  StorageAffinityScheduler sched{StorageAffinityParams{}};
  sched.attach(eng);
  sched.on_job_submitted();
  expect_no_violations(sched, /*step=*/-1);

  auto lost_on = [&](WorkerId w) {
    std::vector<TaskId> lost;
    for (unsigned i = 0; i < 3; ++i) {
      const auto& inst = sched.placements(tid(i));
      if (!sched.completed(tid(i)) &&
          std::find(inst.begin(), inst.end(), w) != inst.end())
        lost.push_back(tid(i));
    }
    return lost;
  };

  // Kill worker 0 (its tasks re-place onto worker 1), then worker 1 with
  // no live worker left: everything becomes an orphan.
  const WorkerId w0(0u), w1(1u);
  eng.dead_workers.insert(w0);
  sched.on_worker_failed(w0, lost_on(w0));
  expect_no_violations(sched, /*step=*/-2);

  eng.dead_workers.insert(w1);
  auto lost1 = lost_on(w1);
  ASSERT_FALSE(lost1.empty());
  sched.on_worker_failed(w1, lost1);
  expect_no_violations(sched, /*step=*/-3);

  // Both workers recover and drain the orphans lowest-id-first. From the
  // second pickup on, a replicable task (the first orphan, now on w0)
  // coexists with the remaining orphans: w1 must still take an orphan.
  eng.dead_workers.erase(w0);
  eng.dead_workers.erase(w1);
  ASSERT_GE(lost1.size(), 2u);
  std::sort(lost1.begin(), lost1.end());
  for (std::size_t i = 0; i < lost1.size(); ++i) {
    const WorkerId w = i % 2 == 0 ? w0 : w1;
    ASSERT_EQ(sched.replica_pick(w), lost1[i]);
    idle_matches_oracle(sched, eng, w, static_cast<int>(i));
    expect_no_violations(sched, static_cast<int>(i));
  }
  EXPECT_EQ(sched.replications(), 0u);  // orphan pickups are not replicas

  // With the orphans drained, the next request is a replica.
  idle_matches_oracle(sched, eng, w0, /*step=*/-4);
  expect_no_violations(sched, /*step=*/-4);
  EXPECT_EQ(sched.replications(), 1u);
}

// --- End-to-end eviction-churn stress under --audit --------------------
//
// A full simulation with tight caches (constant eviction) AND worker
// churn (crash/recover, re_add_pending/orphan traffic). The audited run
// compares every decision with the flat-scan oracle on every sweep (a
// violation aborts the run) and must land on the unaudited run's totals
// bit for bit.

TEST(ShardedIndexStress, EvictionChurnUnderAuditMatchesFlat) {
  workload::CoaddParams cp;
  cp.num_tasks = 200;
  cp.seed = 99;
  const workload::Workload wl{workload::generate_coadd(cp)};

  grid::GridConfig c;
  c.tiers.num_sites = 4;
  c.tiers.workers_per_site = 3;
  c.capacity_files = 1000;  // tight: constant eviction churn
  c.churn = grid::GridConfig::ChurnParams{
      .mean_uptime_s = 4 * 3600.0, .mean_downtime_s = 1800.0, .seed = 17};
  c.audit_interval_events = 2000;  // sweep often

  sched::SchedulerSpec specs[3];
  specs[0].algorithm = sched::Algorithm::kStorageAffinity;
  specs[1].algorithm = sched::Algorithm::kRest;
  specs[1].choose_n = 2;
  specs[2].algorithm = sched::Algorithm::kCombined;

  for (const sched::SchedulerSpec& spec : specs) {
    SCOPED_TRACE(spec.name());
    c.audit = true;
    const auto audited = grid::run_once(c, wl, spec, /*seed=*/3);
    c.audit = false;
    const auto plain = grid::run_once(c, wl, spec, /*seed=*/3);
    EXPECT_EQ(audited.tasks_completed, wl.job.num_tasks());
    EXPECT_EQ(bits(audited.makespan_s), bits(plain.makespan_s));
    EXPECT_EQ(audited.tasks_completed, plain.tasks_completed);
    EXPECT_EQ(audited.events_executed, plain.events_executed);
    EXPECT_EQ(audited.total_file_transfers(), plain.total_file_transfers());
    EXPECT_EQ(bits(audited.total_bytes_transferred()),
              bits(plain.total_bytes_transferred()));
  }
}

}  // namespace
}  // namespace wcs::sched
