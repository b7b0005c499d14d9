// Unit tests for storage::FileCache: eviction policies, pinning,
// persistent reference counts, listener events. Every cache accounts
// over a uniform overlap-0 block map, so these pin the paper's
// file-count capacity laws (Table 1) on the block accounting.
#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace wcs::storage
