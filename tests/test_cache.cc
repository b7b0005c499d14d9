// Unit tests for storage::FileCache: eviction policies, pinning,
// persistent reference counts, listener events. The unit cases account
// over a uniform overlap-0 block map, so they pin the paper's file-count
// capacity laws (Table 1) on the block accounting; the differential test
// at the end also covers overlapping extents against a brute-force
// reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "common/units.h"
#include "storage/block_store.h"
#include "storage/file_cache.h"

namespace wcs::storage {
namespace {

FileId F(unsigned v) { return FileId(v); }

// 2,000 paper-sized 25 MB files on the default 1 MB block grid:
// disjoint 25-block extents.
const BlockMap& paper_files() {
  static const BlockMap map(workload::FileCatalog(2000, megabytes(25.0)),
                            BlockStoreParams{});
  return map;
}

TEST(FileCache, InsertAndContains) {
  FileCache c(paper_files(), 3, EvictionPolicy::kLru);
  EXPECT_FALSE(c.contains(F(1)));
  c.insert(F(1));
  EXPECT_TRUE(c.contains(F(1)));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.capacity(), 3u);
}

TEST(FileCache, DoubleInsertThrows) {
  FileCache c(paper_files(), 3, EvictionPolicy::kLru);
  c.insert(F(1));
  EXPECT_THROW(c.insert(F(1)), std::logic_error);
}

TEST(FileCache, CapacityEnforced) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  c.insert(F(1));
  c.insert(F(2));
  c.insert(F(3));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(FileCache, LruEvictsLeastRecentlyUsed) {
  FileCache c(paper_files(), 3, EvictionPolicy::kLru);
  c.insert(F(1));
  c.insert(F(2));
  c.insert(F(3));
  c.record_access(F(1));  // 1 becomes most recent; 2 is now LRU
  c.insert(F(4));
  EXPECT_TRUE(c.contains(F(1)));
  EXPECT_FALSE(c.contains(F(2)));
  EXPECT_TRUE(c.contains(F(3)));
  EXPECT_TRUE(c.contains(F(4)));
}

TEST(FileCache, FifoIgnoresAccessRecency) {
  FileCache c(paper_files(), 3, EvictionPolicy::kFifo);
  c.insert(F(1));
  c.insert(F(2));
  c.insert(F(3));
  c.record_access(F(1));  // FIFO does not move 1
  c.insert(F(4));
  EXPECT_FALSE(c.contains(F(1)));
  EXPECT_TRUE(c.contains(F(2)));
}

TEST(FileCache, MinRefEvictsLowestRefCount) {
  FileCache c(paper_files(), 3, EvictionPolicy::kMinRef);
  c.insert(F(1));
  c.insert(F(2));
  c.insert(F(3));
  c.record_access(F(1));
  c.record_access(F(1));
  c.record_access(F(3));
  c.insert(F(4));  // F(2) has 0 refs -> evicted
  EXPECT_FALSE(c.contains(F(2)));
  EXPECT_TRUE(c.contains(F(1)));
  EXPECT_TRUE(c.contains(F(3)));
}

TEST(FileCache, MinRefTieBreaksByLowestId) {
  FileCache c(paper_files(), 2, EvictionPolicy::kMinRef);
  c.insert(F(5));
  c.insert(F(2));
  c.insert(F(9));  // 5 and 2 both 0 refs; evict lowest id = 2
  EXPECT_TRUE(c.contains(F(5)));
  EXPECT_FALSE(c.contains(F(2)));
}

TEST(FileCache, PinnedFilesSurviveEviction) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  c.insert(F(1));
  c.pin(F(1));
  c.insert(F(2));
  c.insert(F(3));  // must evict 2, not pinned 1
  EXPECT_TRUE(c.contains(F(1)));
  EXPECT_FALSE(c.contains(F(2)));
  EXPECT_TRUE(c.contains(F(3)));
}

TEST(FileCache, PinsNest) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  c.insert(F(1));
  c.pin(F(1));
  c.pin(F(1));
  c.unpin(F(1));
  EXPECT_TRUE(c.pinned(F(1)));
  c.unpin(F(1));
  EXPECT_FALSE(c.pinned(F(1)));
}

TEST(FileCache, UnpinWithoutPinThrows) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  c.insert(F(1));
  EXPECT_THROW(c.unpin(F(1)), std::logic_error);
}

TEST(FileCache, PinAbsentFileThrows) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  EXPECT_THROW(c.pin(F(1)), std::logic_error);
}

TEST(FileCache, AllPinnedInsertThrows) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  c.insert(F(1));
  c.insert(F(2));
  c.pin(F(1));
  c.pin(F(2));
  EXPECT_THROW(c.insert(F(3)), std::logic_error);
}

TEST(FileCache, AccessAbsentFileThrows) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  EXPECT_THROW(c.record_access(F(1)), std::logic_error);
}

TEST(FileCache, RefCountsPersistAcrossEviction) {
  FileCache c(paper_files(), 1, EvictionPolicy::kLru);
  c.insert(F(1));
  c.record_access(F(1));
  c.record_access(F(1));
  c.insert(F(2));  // evicts 1
  EXPECT_FALSE(c.contains(F(1)));
  EXPECT_EQ(c.ref_count(F(1)), 2u);  // survives eviction (Sec. 4.2)
  c.insert(F(1));
  EXPECT_EQ(c.ref_count(F(1)), 2u);
  c.record_access(F(1));
  EXPECT_EQ(c.ref_count(F(1)), 3u);
}

TEST(FileCache, RefCountZeroForUnknownFile) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  EXPECT_EQ(c.ref_count(F(77)), 0u);
}

TEST(FileCache, ContentsSnapshot) {
  FileCache c(paper_files(), 3, EvictionPolicy::kLru);
  c.insert(F(4));
  c.insert(F(9));
  auto contents = c.contents();
  std::sort(contents.begin(), contents.end());
  EXPECT_EQ(contents, (std::vector<FileId>{F(4), F(9)}));
}

TEST(FileCache, ListenerSeesAllEventsInOrder) {
  FileCache c(paper_files(), 2, EvictionPolicy::kLru);
  std::vector<std::pair<CacheEvent, FileId>> events;
  c.set_listener([&](CacheEvent e, FileId f) { events.emplace_back(e, f); });
  c.insert(F(1));
  c.record_access(F(1));
  c.insert(F(2));
  c.insert(F(3));  // evicts 1
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0], (std::pair{CacheEvent::kAdded, F(1)}));
  EXPECT_EQ(events[1], (std::pair{CacheEvent::kAccessed, F(1)}));
  EXPECT_EQ(events[2], (std::pair{CacheEvent::kAdded, F(2)}));
  EXPECT_EQ(events[3], (std::pair{CacheEvent::kEvicted, F(1)}));
  EXPECT_EQ(events[4], (std::pair{CacheEvent::kAdded, F(3)}));
}

TEST(FileCache, ListenerRefCountTimingContract) {
  // The worker-centric incremental index depends on: at kAdded time the
  // count is the pre-existing one; kAccessed fires after the increment;
  // at kEvicted time the count reflects everything accumulated while
  // resident.
  FileCache c(paper_files(), 1, EvictionPolicy::kLru);
  std::vector<std::size_t> counts;
  c.set_listener([&](CacheEvent, FileId f) { counts.push_back(c.ref_count(f)); });
  c.insert(F(1));          // kAdded: 0
  c.record_access(F(1));   // kAccessed: 1
  c.insert(F(2));          // kEvicted F1: 1, then kAdded F2: 0
  EXPECT_EQ(counts, (std::vector<std::size_t>{0, 1, 1, 0}));
}

TEST(FileCache, EvictionCounterAccumulates) {
  FileCache c(paper_files(), 1, EvictionPolicy::kFifo);
  for (unsigned i = 0; i < 10; ++i) c.insert(F(i));
  EXPECT_EQ(c.evictions(), 9u);
}

TEST(FileCache, ZeroCapacityRejected) {
  EXPECT_THROW(FileCache(paper_files(), 0, EvictionPolicy::kLru),
               std::logic_error);
}

TEST(FileCache, PolicyNames) {
  EXPECT_STREQ(to_string(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(to_string(EvictionPolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(EvictionPolicy::kMinRef), "minref");
}

class CachePolicyParam : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(CachePolicyParam, NeverExceedsCapacityUnderChurn) {
  FileCache c(paper_files(), 16, GetParam());
  for (unsigned i = 0; i < 500; ++i) {
    if (!c.contains(F(i % 40))) c.insert(F(i % 40));
    c.record_access(F(i % 40));
    EXPECT_LE(c.size(), 16u);
  }
}

TEST_P(CachePolicyParam, PinnedNeverEvictedUnderChurn) {
  FileCache c(paper_files(), 8, GetParam());
  c.insert(F(1000));
  c.pin(F(1000));
  for (unsigned i = 0; i < 200; ++i)
    if (!c.contains(F(i))) c.insert(F(i));
  EXPECT_TRUE(c.contains(F(1000)));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CachePolicyParam,
                         ::testing::Values(EvictionPolicy::kLru,
                                           EvictionPolicy::kFifo,
                                           EvictionPolicy::kMinRef));

// --- Differential test against a brute-force reference model -------------

using Event = std::pair<CacheEvent, FileId>;

// The cache's contract restated as plainly as possible: a list for the
// eviction order, maps for refs and pins, and block sets recounted from
// the extents on every question.
class ReferenceCache {
 public:
  ReferenceCache(const BlockMap& blocks, std::size_t capacity_files,
                 EvictionPolicy policy)
      : blocks_(blocks),
        policy_(policy),
        capacity_blocks_(capacity_files * blocks.blocks_per_file_max()) {}

  bool contains(FileId f) const {
    return std::find(order_.begin(), order_.end(), f) != order_.end();
  }
  std::size_t ref_count(FileId f) const {
    auto it = refs_.find(f);
    return it == refs_.end() ? 0 : it->second;
  }
  bool pinned(FileId f) const { return pins_.count(f) > 0; }

  std::uint64_t physical_blocks() const { return union_of(order_, {}); }
  std::uint64_t pinned_blocks() const { return union_of(pinned_files(), {}); }

  // What insert(f) needs: every unpinned resident may go, so f fits iff
  // the pinned extents plus f's fit.
  bool has_insert_room(FileId f) const {
    return union_of(pinned_files(), f) <= capacity_blocks_;
  }

  void insert(FileId f, std::vector<Event>& events) {
    while (union_of(order_, f) > capacity_blocks_) {
      const FileId victim = pick_victim();
      order_.remove(victim);
      events.emplace_back(CacheEvent::kEvicted, victim);
    }
    order_.push_back(f);
    events.emplace_back(CacheEvent::kAdded, f);
  }

  void access(FileId f, std::vector<Event>& events) {
    ++refs_[f];
    if (policy_ == EvictionPolicy::kLru) {
      order_.remove(f);
      order_.push_back(f);
    }
    events.emplace_back(CacheEvent::kAccessed, f);
  }

  void pin(FileId f) { ++pins_[f]; }
  void unpin(FileId f) {
    if (--pins_[f] == 0) pins_.erase(f);
  }

  std::vector<FileId> contents() const {
    std::vector<FileId> out(order_.begin(), order_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::list<FileId> pinned_files() const {
    std::list<FileId> out;
    for (FileId f : order_)
      if (pinned(f)) out.push_back(f);
    return out;
  }

  // |union of the extents of `files` (plus `extra` when valid)|.
  std::uint64_t union_of(const std::list<FileId>& files, FileId extra) const {
    std::set<std::uint64_t> covered;
    auto add = [&](FileId f) {
      const BlockMap::Extent e = blocks_.extent(f);
      for (std::uint32_t i = 0; i < e.count; ++i) covered.insert(e.first + i);
    };
    for (FileId f : files) add(f);
    if (extra.valid()) add(extra);
    return covered.size();
  }

  FileId pick_victim() const {
    FileId victim = FileId::invalid();
    for (FileId f : order_) {
      if (pinned(f)) continue;
      if (policy_ != EvictionPolicy::kMinRef) return f;
      if (!victim.valid() || ref_count(f) < ref_count(victim) ||
          (ref_count(f) == ref_count(victim) && f < victim))
        victim = f;
    }
    return victim;
  }

  const BlockMap& blocks_;
  EvictionPolicy policy_;
  std::uint64_t capacity_blocks_;
  std::list<FileId> order_;  // front = next eviction candidate
  std::map<FileId, std::size_t> refs_;
  std::map<FileId, std::size_t> pins_;
};

struct DiffCase {
  EvictionPolicy policy;
  double overlap;
  bool sparse = false;  // clustered ids on a large catalog
};

// Names the case in test listings (the default printer would dump the
// struct's bytes, padding included).
void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << to_string(c.policy) << " at overlap " << c.overlap;
  if (c.sparse) *os << ", sparse ids";
}

class CacheDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CacheDifferential, MatchesReferenceModelStepByStep) {
  const DiffCase c = GetParam();
  // Dense cases draw uniformly from 48 files. Sparse cases draw 90% of
  // their ids from three 200-id clusters (one ends the catalog in its
  // partial last record page) and 10% uniformly from 60,000 files, so
  // the cache's record pages are carved out of id order, most pages stay
  // null, and the page table grows through several chunks.
  const unsigned files = c.sparse ? 60000 : 48;
  constexpr std::size_t kCapacity = 6;
  constexpr unsigned kClusterIds = 200;
  const unsigned clusters[] = {1000, 30100, 59800};
  BlockStoreParams params;
  params.content_overlap = c.overlap;
  const BlockMap blocks(workload::FileCatalog(files, megabytes(25.0)),
                        params);
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    FileCache cache(blocks, kCapacity, c.policy);
    ReferenceCache ref(blocks, kCapacity, c.policy);
    std::vector<Event> got;
    std::vector<Event> want;
    cache.set_listener(
        [&](CacheEvent e, FileId f) { got.emplace_back(e, f); });
    std::mt19937 rng(seed);
    // Ids whose refs and pins are compared after every step: all of a
    // dense catalog; the clusters, every id drawn so far and a stride of
    // mostly never-drawn ids (null pages) of a sparse one.
    std::set<unsigned> probes;
    if (c.sparse) {
      for (unsigned base : clusters)
        for (unsigned g = base; g < base + kClusterIds; ++g) probes.insert(g);
      for (unsigned g = 0; g < files; g += 1009) probes.insert(g);
    } else {
      for (unsigned g = 0; g < files; ++g) probes.insert(g);
    }
    auto draw = [&]() -> unsigned {
      if (!c.sparse) return static_cast<unsigned>(rng() % files);
      if (rng() % 10 == 0) return static_cast<unsigned>(rng() % files);
      const unsigned base = clusters[rng() % 3];
      return base + static_cast<unsigned>(rng() % kClusterIds);
    };
    for (int step = 0; step < 1500; ++step) {
      const FileId f(static_cast<FileId::underlying_type>(draw()));
      probes.insert(f.value());
      const unsigned op = rng() % 8;
      if (!ref.contains(f)) {
        if (op < 4) {  // try_insert
          const bool room = ref.has_insert_room(f);
          ASSERT_EQ(cache.has_insert_room(f), room) << "step " << step;
          ASSERT_EQ(cache.try_insert(f), room) << "step " << step;
          if (room) ref.insert(f, want);
        } else if (ref.has_insert_room(f)) {  // insert
          cache.insert(f);
          ref.insert(f, want);
        }
      } else if (op < 3) {
        cache.record_access(f);
        ref.access(f, want);
      } else if (op < 5) {
        cache.pin(f);
        ref.pin(f);
      } else if (ref.pinned(f)) {
        cache.unpin(f);
        ref.unpin(f);
      }
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_EQ(cache.contents(), ref.contents()) << "step " << step;
      ASSERT_EQ(cache.size(), ref.contents().size());
      ASSERT_EQ(cache.physical_blocks(), ref.physical_blocks())
          << "step " << step;
      ASSERT_EQ(cache.pinned_blocks(), ref.pinned_blocks())
          << "step " << step;
      for (unsigned g : probes) {
        ASSERT_EQ(cache.ref_count(F(g)), ref.ref_count(F(g)));
        if (ref.contains(F(g))) {
          ASSERT_EQ(cache.pinned(F(g)), ref.pinned(F(g)));
        }
      }
    }
    std::vector<audit::Violation> violations;
    const audit::CacheAuditSnapshot snap = cache.audit_snapshot("diff");
    audit::check_cache_coherence(snap, violations);
    audit::check_block_store(cache.block_audit_snapshot("diff"), violations);
    EXPECT_TRUE(violations.empty());
    EXPECT_GT(cache.evictions(), 0u);
    // A one-page first chunk (capacity 6) then doubles: more than 31
    // carved pages means at least six chunks.
    if (c.sparse) {
      EXPECT_GT(snap.carved_pages, 31u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndOverlaps, CacheDifferential,
    ::testing::Values(DiffCase{EvictionPolicy::kLru, 0.0},
                      DiffCase{EvictionPolicy::kFifo, 0.0},
                      DiffCase{EvictionPolicy::kMinRef, 0.0},
                      DiffCase{EvictionPolicy::kLru, 0.5},
                      DiffCase{EvictionPolicy::kFifo, 0.5},
                      DiffCase{EvictionPolicy::kMinRef, 0.5},
                      DiffCase{EvictionPolicy::kLru, 0.0, true},
                      DiffCase{EvictionPolicy::kFifo, 0.5, true},
                      DiffCase{EvictionPolicy::kMinRef, 0.5, true}),
    [](const ::testing::TestParamInfo<DiffCase>& param_info) {
      return std::string(to_string(param_info.param.policy)) +
             (param_info.param.overlap > 0 ? "_overlap50" : "_disjoint") +
             (param_info.param.sparse ? "_sparse" : "");
    });

}  // namespace
}  // namespace wcs::storage
