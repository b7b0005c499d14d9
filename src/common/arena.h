// Per-simulation page arena for node-sized allocations.
//
// NodeArena owns a pool of fixed-size pages and hands out 16-byte-
// aligned blocks from size-class freelists with a monotonic bump path:
// an allocation first tries the freelist of its size class, then bumps
// the current page, then (page exhausted) advances to the next pooled
// page or maps a fresh one. Blocks larger than the small-object ceiling
// fall through to operator new and are tracked separately.
//
// reset() requires every allocation to have been returned and then
// rewinds the bump pointer over the SAME pages, so a simulation that is
// re-run (e.g. run_seeds) reuses its pages instead of going back to the
// system allocator — the arena-reuse property test asserts the replayed
// run is byte-identical.
//
// ArenaAlloc<T> adapts the arena to the STL allocator protocol so
// node-based containers (std::map / std::set / std::unordered_map) can
// place their nodes in the arena. All propagate_on_* traits are false
// and allocators compare equal only when they share an arena, which is
// the safe configuration for containers that outlive swaps/moves across
// arenas (we never do that: each FlowManager owns its arena).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace wcs::common {

class NodeArena {
 public:
  struct Stats {
    std::size_t pages = 0;              // pages ever mapped (pooled)
    std::size_t page_bytes = 0;         // size of one page
    std::uint64_t total_allocations = 0;
    std::uint64_t live_allocations = 0;
    std::uint64_t freelist_hits = 0;
    std::uint64_t large_allocations = 0;  // > kMaxSmall, via operator new
    std::uint64_t large_live = 0;
    std::uint64_t resets = 0;
    [[nodiscard]] std::size_t bytes_reserved() const {
      return pages * page_bytes;
    }
  };

  explicit NodeArena(std::size_t page_bytes = 64 * 1024)
      : page_bytes_(page_bytes) {
    WCS_CHECK(page_bytes_ >= kMaxSmall);
    stats_.page_bytes = page_bytes_;
  }

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  ~NodeArena() {
    for (std::byte* page : pages_) ::operator delete(page);
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    WCS_DCHECK(align <= kAlign);
    (void)align;
    if (bytes > kMaxSmall) return allocate_large(bytes);
    const std::size_t cls = size_class(bytes);
    ++stats_.total_allocations;
    ++stats_.live_allocations;
    if (FreeBlock* head = freelists_[cls]) {
      freelists_[cls] = head->next;
      ++stats_.freelist_hits;
      return head;
    }
    const std::size_t want = (cls + 1) * kAlign;
    if (bump_ + want > bump_end_) next_page();
    std::byte* p = bump_;
    bump_ += want;
    return p;
  }

  void deallocate(void* p, std::size_t bytes, std::size_t /*align*/) {
    if (p == nullptr) return;
    if (bytes > kMaxSmall) {
      ::operator delete(p);
      --stats_.large_live;
      --stats_.live_allocations;
      return;
    }
    const std::size_t cls = size_class(bytes);
    auto* block = static_cast<FreeBlock*>(p);
    block->next = freelists_[cls];
    freelists_[cls] = block;
    --stats_.live_allocations;
  }

  // Rewind the bump path over the pooled pages. Every allocation must
  // already have been returned; pages are NOT released to the system.
  void reset() {
    WCS_CHECK_MSG(stats_.live_allocations == 0,
                  "arena reset with " << stats_.live_allocations
                                      << " live allocations");
    for (FreeBlock*& head : freelists_) head = nullptr;
    cursor_ = 0;
    if (pages_.empty()) {
      bump_ = bump_end_ = nullptr;
    } else {
      bump_ = pages_[0];
      bump_end_ = bump_ + page_bytes_;
      cursor_ = 1;
    }
    ++stats_.resets;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Accounting invariants, for the memory-layout audit checker.
  [[nodiscard]] std::vector<std::string> structural_defects() const {
    std::vector<std::string> defects;
    if (stats_.pages != pages_.size()) {
      std::ostringstream os;
      os << "arena reports " << stats_.pages << " pages but pool holds "
         << pages_.size();
      defects.push_back(os.str());
    }
    if (stats_.live_allocations > stats_.total_allocations) {
      std::ostringstream os;
      os << "arena live count " << stats_.live_allocations
         << " exceeds total " << stats_.total_allocations;
      defects.push_back(os.str());
    }
    if (stats_.large_live > stats_.large_allocations) {
      std::ostringstream os;
      os << "arena large-live count " << stats_.large_live
         << " exceeds large total " << stats_.large_allocations;
      defects.push_back(os.str());
    }
    // Freelist blocks must lie inside pooled pages; walk each list (a
    // cycle or stray pointer would loop forever, so bound the walk by
    // the number of blocks a page pool could ever have produced).
    const std::uint64_t max_blocks =
        pages_.empty() ? 0
                       : pages_.size() * (page_bytes_ / kAlign) + 1;
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      std::uint64_t walked = 0;
      for (FreeBlock* b = freelists_[cls]; b != nullptr; b = b->next) {
        if (++walked > max_blocks) {
          std::ostringstream os;
          os << "arena freelist for class " << cls
             << " is longer than the page pool could produce (cycle?)";
          defects.push_back(os.str());
          break;
        }
        if (!owns(b)) {
          std::ostringstream os;
          os << "arena freelist for class " << cls
             << " holds a block outside the page pool";
          defects.push_back(os.str());
          break;
        }
      }
    }
    return defects;
  }

  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMaxSmall = 512;

 private:
  static constexpr std::size_t kNumClasses = kMaxSmall / kAlign;

  struct FreeBlock {
    FreeBlock* next = nullptr;
  };

  static std::size_t size_class(std::size_t bytes) {
    // bytes in (0, kMaxSmall] -> class index; class c serves
    // (c+1)*kAlign bytes. A zero-byte request shares class 0.
    return bytes == 0 ? 0 : (bytes - 1) / kAlign;
  }

  void next_page() {
    if (cursor_ < pages_.size()) {
      bump_ = pages_[cursor_++];
    } else {
      auto* page = static_cast<std::byte*>(::operator new(page_bytes_));
      pages_.push_back(page);
      ++stats_.pages;
      cursor_ = pages_.size();
      bump_ = page;
    }
    bump_end_ = bump_ + page_bytes_;
  }

  void* allocate_large(std::size_t bytes) {
    ++stats_.total_allocations;
    ++stats_.live_allocations;
    ++stats_.large_allocations;
    ++stats_.large_live;
    return ::operator new(bytes);
  }

  [[nodiscard]] bool owns(const void* p) const {
    for (const std::byte* page : pages_) {
      if (p >= page && p < page + page_bytes_) return true;
    }
    return false;
  }

  std::size_t page_bytes_ = 0;
  std::vector<std::byte*> pages_;
  std::size_t cursor_ = 0;  // next pooled page the bump path will use
  std::byte* bump_ = nullptr;
  std::byte* bump_end_ = nullptr;
  FreeBlock* freelists_[kNumClasses] = {};
  Stats stats_;
};

// STL allocator over a NodeArena. The arena must outlive every
// container (and every node) bound to it.
template <typename T>
class ArenaAlloc {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  explicit ArenaAlloc(NodeArena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    arena_->deallocate(p, n * sizeof(T), alignof(T));
  }

  [[nodiscard]] NodeArena* arena() const { return arena_; }

  friend bool operator==(const ArenaAlloc& a, const ArenaAlloc& b) {
    return a.arena_ == b.arena_;
  }

 private:
  NodeArena* arena_ = nullptr;
};

}  // namespace wcs::common
