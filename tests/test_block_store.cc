// Block-level data plane: BlockMap layout laws, FileCache block
// refcount accounting, one live cache checked against the block-store
// and cache-coherence oracles after every operation (with the paper's
// whole-file laws asserted at content overlap 0), the block cache
// mirrored against a whole-file reference model at overlap 0, and an
// end-to-end dedup run (docs/data-plane.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "common/rng.h"
#include "common/units.h"
#include "grid/experiment.h"
#include "storage/block_store.h"
#include "storage/file_cache.h"
#include "workload/coadd.h"

namespace wcs::storage {
namespace {

// 24 MB files on a 1 MB grid at overlap 0.5: n = 24, stride = 12, each
// file shares exactly 12 blocks with each adjacent neighbour and none
// with anything farther (neighbour span 1).
workload::FileCatalog uniform_catalog(std::size_t files = 40,
                                      double mb = 24.0) {
  return workload::FileCatalog(files, megabytes(mb));
}

BlockStoreParams overlap_params(double overlap) {
  BlockStoreParams p;
  p.block_size = megabytes(1.0);
  p.content_overlap = overlap;
  return p;
}

TEST(BlockMapLayout, DisjointUniformExtents) {
  auto catalog = uniform_catalog(10, 25.0);
  BlockMap map(catalog, overlap_params(0.0));
  EXPECT_FALSE(map.shared());
  EXPECT_EQ(map.num_files(), 10u);
  EXPECT_EQ(map.blocks(FileId(0)), 25u);
  EXPECT_EQ(map.num_blocks(), 250u);
  EXPECT_EQ(map.neighbour_span(), 0u);
  for (std::uint32_t f = 0; f < 10; ++f) {
    const BlockMap::Extent e = map.extent(FileId(f));
    EXPECT_EQ(e.first, static_cast<std::uint64_t>(f) * 25u);
    EXPECT_EQ(e.count, 25u);
    EXPECT_EQ(map.file_bytes(FileId(f)), catalog.size(FileId(f)));
  }
}

TEST(BlockMapLayout, DisjointTailBlockCarriesTheRemainder) {
  // 25.5 MB files: 26 blocks, the last holding 0.5 MB — file_bytes must
  // stay EXACT so a fetch moves the catalog size byte for byte.
  auto catalog = uniform_catalog(4, 25.5);
  BlockMap map(catalog, overlap_params(0.0));
  EXPECT_EQ(map.blocks(FileId(0)), 26u);
  EXPECT_EQ(map.block_bytes(FileId(0), 24), megabytes(1.0));
  EXPECT_EQ(map.block_bytes(FileId(0), 25), megabytes(0.5));
  EXPECT_EQ(map.file_bytes(FileId(0)), catalog.size(FileId(0)));
}

TEST(BlockMapLayout, OverlappingExtentsSlideByStride) {
  auto catalog = uniform_catalog(10, 24.0);
  BlockMap map(catalog, overlap_params(0.5));
  EXPECT_TRUE(map.shared());
  EXPECT_EQ(map.stride(), 12u);
  EXPECT_EQ(map.neighbour_span(), 1u);
  EXPECT_EQ(map.extent(FileId(0)).first, 0u);
  EXPECT_EQ(map.extent(FileId(1)).first, 12u);
  EXPECT_EQ(map.extent(FileId(2)).first, 24u);
  // 9 strides + one full extent.
  EXPECT_EQ(map.num_blocks(), 9u * 12u + 24u);
  // Shared mode rounds content to block granularity: every block is a
  // full block_size.
  EXPECT_EQ(map.file_bytes(FileId(3)), megabytes(24.0));
  EXPECT_EQ(map.block_bytes(FileId(3), 23), megabytes(1.0));
}

TEST(BlockMapLayout, HeterogeneousCatalogGetsDisjointExtents) {
  workload::FileCatalog catalog;
  catalog.add_file(megabytes(2.0));
  catalog.add_file(megabytes(0.5));
  catalog.add_file(megabytes(3.5));
  // Overlap is a uniform sliding-window notion; heterogeneous catalogs
  // must come out disjoint even when it is set.
  BlockMap map(catalog, overlap_params(0.5));
  EXPECT_FALSE(map.shared());
  EXPECT_EQ(map.extent(FileId(0)).first, 0u);
  EXPECT_EQ(map.extent(FileId(0)).count, 2u);
  EXPECT_EQ(map.extent(FileId(1)).first, 2u);
  EXPECT_EQ(map.extent(FileId(1)).count, 1u);
  EXPECT_EQ(map.extent(FileId(2)).first, 3u);
  EXPECT_EQ(map.extent(FileId(2)).count, 4u);
  EXPECT_EQ(map.num_blocks(), 7u);
  for (std::uint32_t f = 0; f < 3; ++f)
    EXPECT_EQ(map.file_bytes(FileId(f)), catalog.size(FileId(f)));
}

TEST(BlockMapLayout, ZeroByteFileOccupiesOneEmptyBlock) {
  workload::FileCatalog catalog;
  catalog.add_file(megabytes(1.0));
  catalog.add_file(0);
  BlockMap map(catalog, overlap_params(0.0));
  EXPECT_EQ(map.extent(FileId(1)).count, 1u);
  EXPECT_EQ(map.file_bytes(FileId(1)), 0u);
  EXPECT_EQ(map.block_bytes(FileId(1), 0), 0u);
}

TEST(BlockMapLayout, BlockCountPastUint32IsRefused) {
  // 5e9 one-byte blocks do not fit a 32-bit extent length: the map must
  // refuse the layout with a message, not wrap the count.
  workload::FileCatalog catalog(1, 5'000'000'000ULL);
  BlockStoreParams params;
  params.block_size = 1;
  try {
    BlockMap map(catalog, params);
    FAIL() << "a 5e9-block extent was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("5000000000 blocks"),
              std::string::npos)
        << e.what();
  }
}

TEST(FileCacheBlocks, SharedBlocksAreHeldOnceAndEvictionFreesExclusive) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 2, EvictionPolicy::kLru);
  EXPECT_EQ(cache.capacity_blocks(), 48u);  // 2 files x 24 blocks

  cache.insert(FileId(0));
  EXPECT_EQ(cache.physical_blocks(), 24u);
  cache.insert(FileId(1));  // shares 12 blocks with f0
  EXPECT_EQ(cache.physical_blocks(), 36u);
  // f2's exclusive tail still fits: THREE files resident in a cache
  // whose whole-file capacity is two — the dedup payoff.
  cache.insert(FileId(2));
  EXPECT_EQ(cache.physical_blocks(), 48u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // f3 needs 12 exclusive blocks; evicting LRU-head f0 frees only ITS
  // exclusive 12 (the 12 shared with f1 stay behind).
  cache.insert(FileId(3));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains(FileId(0)));
  EXPECT_TRUE(cache.contains(FileId(1)));
  EXPECT_EQ(cache.physical_blocks(), 48u);
}

TEST(FileCacheBlocks, MissingBytesCountsOnlyUncoveredBlocks) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 4, EvictionPolicy::kLru);

  EXPECT_EQ(cache.missing_bytes(FileId(2)), megabytes(24.0));
  cache.insert(FileId(1));
  // f2 shares 12 of its 24 blocks with resident f1.
  EXPECT_EQ(cache.missing_bytes(FileId(2)), megabytes(12.0));
  EXPECT_EQ(cache.missing_bytes(FileId(0)), megabytes(12.0));
  // Distance 2: no sharing.
  EXPECT_EQ(cache.missing_bytes(FileId(3)), megabytes(24.0));
  cache.insert(FileId(3));
  // f2 now covered from both sides: nothing to move.
  EXPECT_EQ(cache.missing_bytes(FileId(2)), 0u);
  EXPECT_EQ(cache.missing_bytes(FileId(1)), 0u);  // resident
  EXPECT_EQ(cache.file_bytes(FileId(2)), megabytes(24.0));
}

TEST(FileCacheBlocks, PinnedBlockCounterTracksPinTransitions) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 4, EvictionPolicy::kLru);

  cache.insert(FileId(0));
  cache.insert(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 0u);
  cache.pin(FileId(0));
  EXPECT_EQ(cache.pinned_blocks(), 24u);
  cache.pin(FileId(1));  // 12 of f1's blocks already pinned via f0
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  cache.pin(FileId(1));  // nested pin: no transition
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  cache.unpin(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  cache.unpin(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 24u);
  cache.unpin(FileId(0));
  EXPECT_EQ(cache.pinned_blocks(), 0u);
}

TEST(FileCacheBlocks, InsertRoomIsExactAgainstPinnedCoverage) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 2, EvictionPolicy::kLru);

  cache.insert(FileId(0));
  cache.pin(FileId(0));
  cache.insert(FileId(1));
  cache.pin(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  // f2 shares 12 pinned blocks with f1: worst case 36 + 12 = 48 <= 48.
  EXPECT_TRUE(cache.has_insert_room(FileId(2)));
  EXPECT_TRUE(cache.try_insert(FileId(2)));
  // f4 shares nothing pinned: 48 + 24 > 48 even after evicting f2.
  EXPECT_FALSE(cache.has_insert_room(FileId(4)));
  EXPECT_FALSE(cache.try_insert(FileId(4)));
  EXPECT_TRUE(cache.contains(FileId(2)));  // failed try left state alone
}

// Violations the two brute-force oracles find in a live cache: the
// block-store recount (union of resident / pinned extents vs the
// incremental counters) and the cache-coherence recount (slot table vs
// the eviction order and the resident count).
std::vector<audit::Violation> oracle_violations(const FileCache& cache) {
  std::vector<audit::Violation> out;
  audit::check_block_store(cache.block_audit_snapshot("churn"), out);
  audit::check_cache_coherence(cache.audit_snapshot("churn"), out);
  return out;
}

// One live cache per (overlap, seed, policy) under random
// insert/access/pin/unpin churn, checked against both oracles after
// EVERY operation. At content overlap 0 the block accounting must also
// obey the paper's whole-file laws, asserted inline: physical blocks =
// files x blocks-per-file; insert room iff a file slot is free or an
// unpinned resident can go; and an insert evicts only at size ==
// capacity, exactly one file.
TEST(FileCacheBlocks, AuditSnapshotMatchesIncrementalCounters) {
  auto catalog = uniform_catalog(60, 25.0);
  for (double overlap : {0.0, 0.5}) {
    BlockMap map(catalog, overlap_params(overlap));
    const bool whole_file_laws = !map.shared();
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
      for (auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo,
                          EvictionPolicy::kMinRef}) {
        SCOPED_TRACE("overlap " + std::to_string(overlap) + ", seed " +
                     std::to_string(seed) + ", " + to_string(policy));
        FileCache cache(map, 5, policy);
        std::size_t evicted = 0;  // by the current operation
        cache.set_listener([&](CacheEvent e, FileId) {
          if (e == CacheEvent::kEvicted) ++evicted;
        });
        Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(policy));
        std::vector<int> pins(catalog.num_files(), 0);
        for (int op = 0; op < 3000; ++op) {
          const FileId f(static_cast<FileId::underlying_type>(
              rng.index(catalog.num_files())));
          const bool room = cache.has_insert_room(f);
          if (whole_file_laws) {
            bool unpinned_resident = false;
            for (FileId r : cache.contents())
              unpinned_resident = unpinned_resident || !cache.pinned(r);
            ASSERT_EQ(room, cache.size() < cache.capacity() ||
                                unpinned_resident);
          }
          const std::size_t size_before = cache.size();
          evicted = 0;
          switch (rng.index(4)) {
            case 0:
              if (!cache.contains(f)) {
                ASSERT_EQ(cache.try_insert(f), room);
                if (whole_file_laws && room) {
                  ASSERT_EQ(evicted,
                            size_before == cache.capacity() ? 1u : 0u);
                }
              }
              break;
            case 1:
              if (cache.contains(f)) cache.record_access(f);
              break;
            case 2:
              if (cache.contains(f) && pins[f.value()] < 2) {
                cache.pin(f);
                ++pins[f.value()];
              }
              break;
            default:
              if (pins[f.value()] > 0) {
                cache.unpin(f);
                --pins[f.value()];
              }
              break;
          }
          const std::vector<audit::Violation> violations =
              oracle_violations(cache);
          ASSERT_TRUE(violations.empty())
              << "op " << op << ": " << violations.front().message;
          if (whole_file_laws) {
            ASSERT_EQ(cache.physical_blocks(), cache.size() * 25u);
          }
        }
      }
    }
  }
}

// The paper's whole-file cache as a reference model: capacity in files,
// pinned files never evicted, victim = first unpinned file in eviction
// order (LRU: accesses refresh recency; FIFO: insertion order) or, for
// MinRef, the unpinned file with the fewest past references (lowest id
// on ties).
class WholeFileCache {
 public:
  WholeFileCache(std::size_t capacity, EvictionPolicy policy)
      : capacity_(capacity), policy_(policy) {}

  bool contains(FileId f) const {
    return std::find(order_.begin(), order_.end(), f) != order_.end();
  }
  bool has_insert_room(FileId) const {
    return order_.size() < capacity_ || pick_victim().valid();
  }
  bool try_insert(FileId f) {
    if (!has_insert_room(f)) return false;
    if (order_.size() == capacity_) {
      const FileId victim = pick_victim();
      order_.erase(std::find(order_.begin(), order_.end(), victim));
      victims_.push_back(victim);
    }
    order_.push_back(f);
    return true;
  }
  void record_access(FileId f) {
    ++refs_[f];
    if (policy_ == EvictionPolicy::kLru) {
      order_.erase(std::find(order_.begin(), order_.end(), f));
      order_.push_back(f);
    }
  }
  void pin(FileId f) { ++pins_[f]; }
  void unpin(FileId f) { --pins_[f]; }

  std::vector<FileId> contents() const {
    std::vector<FileId> out(order_.begin(), order_.end());
    std::sort(out.begin(), out.end());
    return out;
  }
  const std::vector<FileId>& victims() const { return victims_; }

 private:
  FileId pick_victim() const {
    FileId victim = FileId::invalid();
    for (FileId f : order_) {
      if (pins_.count(f) && pins_.at(f) > 0) continue;
      if (policy_ != EvictionPolicy::kMinRef) return f;
      const std::size_t r = refs_.count(f) ? refs_.at(f) : 0;
      const std::size_t best =
          victim.valid() && refs_.count(victim) ? refs_.at(victim) : 0;
      if (!victim.valid() || r < best || (r == best && f < victim)) {
        victim = f;
      }
    }
    return victim;
  }

  std::size_t capacity_;
  EvictionPolicy policy_;
  std::vector<FileId> order_;  // eviction order, head first
  std::map<FileId, std::size_t> refs_;
  std::map<FileId, int> pins_;
  std::vector<FileId> victims_;
};

// The equivalence gate behind the block data plane: at content overlap
// 0 on a uniform catalog, the block cache makes IDENTICAL decisions to
// the paper's whole-file cache under arbitrary insert/access/pin/unpin
// churn — same residents, same victims in the same order, same room
// answers.
TEST(FileCacheBlocks, MirroredChurnMatchesWholeFileAtOverlapZero) {
  auto catalog = uniform_catalog(60, 25.0);
  BlockMap map(catalog, overlap_params(0.0));
  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo,
                        EvictionPolicy::kMinRef}) {
      WholeFileCache whole(5, policy);
      FileCache block(map, 5, policy);
      std::vector<FileId> block_victims;
      block.set_listener([&](CacheEvent e, FileId f) {
        if (e == CacheEvent::kEvicted) block_victims.push_back(f);
      });

      Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(policy));
      std::vector<int> pins(catalog.num_files(), 0);
      for (int op = 0; op < 3000; ++op) {
        const FileId f(static_cast<FileId::underlying_type>(
            rng.index(catalog.num_files())));
        ASSERT_EQ(whole.contains(f), block.contains(f));
        ASSERT_EQ(whole.has_insert_room(f), block.has_insert_room(f));
        switch (rng.index(4)) {
          case 0:
            if (!whole.contains(f)) {
              ASSERT_EQ(whole.try_insert(f), block.try_insert(f));
            }
            break;
          case 1:
            if (whole.contains(f)) {
              whole.record_access(f);
              block.record_access(f);
            }
            break;
          case 2:
            if (whole.contains(f) && pins[f.value()] < 2) {
              whole.pin(f);
              block.pin(f);
              ++pins[f.value()];
            }
            break;
          default:
            if (pins[f.value()] > 0) {
              whole.unpin(f);
              block.unpin(f);
              --pins[f.value()];
            }
            break;
        }
      }
      EXPECT_EQ(whole.contents(), block.contents());
      EXPECT_EQ(whole.victims().size(), block.evictions());
      EXPECT_EQ(whole.victims(), block_victims);
      // Disjoint extents: the block books must read exactly
      // files x blocks-per-file.
      EXPECT_EQ(block.physical_blocks(), block.size() * 25u);
      std::vector<audit::Violation> violations;
      audit::check_block_store(block.block_audit_snapshot("mirror"),
                               violations);
      EXPECT_TRUE(violations.empty());
    }
  }
}

TEST(BlockStoreIntegration, DedupRunAuditsCleanAndSavesBytes) {
  workload::CoaddParams cp;
  cp.num_tasks = 200;
  cp.seed = 20260808;
  const workload::Workload wl{workload::generate_coadd(cp)};

  grid::GridConfig c;
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 3000;
  c.audit = true;  // block-store checker sweeps the live run
  ASSERT_TRUE(c.block_store.has_value());
  c.block_store->content_overlap = 0.5;

  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  const auto r = grid::run_once(c, wl, spec, /*seed=*/7);
  EXPECT_EQ(r.tasks_completed, 200u);
  EXPECT_GT(r.total_bytes_saved(), 0.0);
  EXPECT_GT(r.dedup_ratio(), 1.0);
}

}  // namespace
}  // namespace wcs::storage
