// Two-level table of per-id records that stores only the pages its ids
// touch.
//
// A dense std::vector<T> over an id universe costs sizeof(T) per id
// whether or not an id is ever used. PagedTable splits the universe into
// pages of kPageIds consecutive ids. A directory holds one page pointer
// per page, null until an id of that page is first touched. Pages are
// carved from chunks that never move, and each page is value-initialized
// (zeroed, for the plain records this holds) when it is carved, so a
// record's address stays valid for the table's lifetime. The first chunk
// holds as many pages as the owner expects to need; each later chunk
// doubles, capped at the pages not yet carved. A table that touches P of
// its pages therefore makes one directory allocation plus O(log P) chunk
// allocations, and never more than the universe's pages in all. The
// chunk bookkeeping is a fixed array, so growing it allocates nothing
// beyond the chunk itself.
//
// Readers use find(), which returns null for an id whose page was never
// touched (the owner reads that as a zero record). Only touch() carves.
// for_each() walks the carved pages in directory order, which visits ids
// in ascending order.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace wcs::common {

template <typename T>
class PagedTable {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  static constexpr std::size_t kPageIds = 128;
  static constexpr std::size_t kPageBytes = kPageIds * sizeof(T);

  // Laws the auditor checks (audit::check_cache_coherence for FileCache).
  struct AuditCounts {
    std::size_t directory_pages = 0;  // non-null directory entries
    std::size_t carved_pages = 0;     // pages carved from the chunks
    std::size_t stray_pages = 0;      // entries not at a carved page
    std::size_t shared_pages = 0;     // entries at a page another holds
  };

  // A directory for ids [0, ids) with every page absent; releases any
  // earlier pages. The first chunk will hold `first_chunk_pages` pages,
  // clamped to [1, pages of the universe].
  void reset(std::size_t ids, std::size_t first_chunk_pages) {
    const std::size_t pages = (ids + kPageIds - 1) / kPageIds;
    // Doubling chunks from one page cover 2^kMaxChunks - 1 pages.
    WCS_CHECK_MSG(pages < (std::size_t{1} << kMaxChunks),
                  "paged table of " << ids << " ids is too large");
    dir_.assign(pages, nullptr);
    ids_ = ids;
    for (Chunk& c : chunks_) c = Chunk{};
    num_chunks_ = 0;
    last_used_ = 0;
    carved_ = 0;
    first_chunk_pages_ = std::clamp<std::size_t>(
        first_chunk_pages, 1, std::max<std::size_t>(pages, 1));
  }

  // True until reset() with a non-empty universe.
  [[nodiscard]] bool empty() const { return dir_.empty(); }
  [[nodiscard]] std::size_t chunks() const { return num_chunks_; }

  // The record of `id`, or null when its page was never touched (or id
  // is out of range).
  [[nodiscard]] const T* find(std::size_t id) const {
    if (id >= ids_) return nullptr;
    const T* page = dir_[id / kPageIds];
    return page == nullptr ? nullptr : page + id % kPageIds;
  }

  // The record of an id whose page has been touched.
  [[nodiscard]] T& operator[](std::size_t id) {
    WCS_DCHECK(find(id) != nullptr);
    return dir_[id / kPageIds][id % kPageIds];
  }
  [[nodiscard]] const T& operator[](std::size_t id) const {
    WCS_DCHECK(find(id) != nullptr);
    return dir_[id / kPageIds][id % kPageIds];
  }

  // The record of `id`, carving its page first if it has none.
  T& touch(std::size_t id) {
    WCS_DCHECK(id < ids_);
    T*& page = dir_[id / kPageIds];
    if (page == nullptr) page = carve();
    return page[id % kPageIds];
  }

  // fn(id, record) for every id of every carved page, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t p = 0; p < dir_.size(); ++p) {
      const T* page = dir_[p];
      if (page == nullptr) continue;
      const std::size_t first = p * kPageIds;
      const std::size_t n = std::min(kPageIds, ids_ - first);
      for (std::size_t i = 0; i < n; ++i) fn(first + i, page[i]);
    }
  }

  // Recounts for the auditor: every non-null directory entry must point
  // at the start of a distinct carved page, and there must be as many
  // such entries as carved pages.
  [[nodiscard]] AuditCounts audit() const {
    AuditCounts a;
    a.carved_pages = carved_;
    std::vector<char> seen(carved_, 0);
    for (const T* page : dir_) {
      if (page == nullptr) continue;
      ++a.directory_pages;
      const std::size_t idx = carve_index(page);
      if (idx == kNoPage) {
        ++a.stray_pages;
      } else if (seen[idx]++ != 0) {
        ++a.shared_pages;
      }
    }
    return a;
  }

  // Test hook for audit() detection tests: overwrite the directory entry
  // of `id`'s page.
  void set_page_for_test(std::size_t id, T* page) {
    dir_[id / kPageIds] = page;
  }

 private:
  static constexpr std::size_t kMaxChunks = 32;
  static constexpr std::size_t kNoPage = ~std::size_t{0};

  struct Chunk {
    std::unique_ptr<std::byte[]> mem;  // uninitialized until carved
    std::size_t pages = 0;
  };

  T* carve() {
    if (num_chunks_ == 0 || last_used_ == chunks_[num_chunks_ - 1].pages) {
      WCS_CHECK(num_chunks_ < kMaxChunks);
      const std::size_t pages =
          num_chunks_ == 0
              ? first_chunk_pages_
              : std::min(2 * chunks_[num_chunks_ - 1].pages,
                         dir_.size() - carved_);
      // Default-initialized bytes: a page costs memory only once carved.
      chunks_[num_chunks_++] = Chunk{
          std::unique_ptr<std::byte[]>(new std::byte[pages * kPageBytes]),
          pages};
      last_used_ = 0;
    }
    std::byte* raw =
        chunks_[num_chunks_ - 1].mem.get() + last_used_++ * kPageBytes;
    ++carved_;
    T* page = reinterpret_cast<T*>(raw);
    std::uninitialized_value_construct_n(page, kPageIds);
    return page;
  }

  // Position of `page` in carve order, or kNoPage when it is not the
  // start of a carved page. std::less orders pointers into different
  // chunks; the result depends only on which page `page` is.
  [[nodiscard]] std::size_t carve_index(const T* page) const {
    const std::less<const T*> before;
    std::size_t base = 0;  // pages carved from earlier chunks
    for (std::size_t c = 0; c < num_chunks_; ++c) {
      const auto* begin = reinterpret_cast<const T*>(chunks_[c].mem.get());
      const std::size_t used =
          c + 1 == num_chunks_ ? last_used_ : chunks_[c].pages;
      if (!before(page, begin) && before(page, begin + used * kPageIds)) {
        const auto offset = static_cast<std::size_t>(page - begin);
        return offset % kPageIds == 0 ? base + offset / kPageIds : kNoPage;
      }
      base += used;
    }
    return kNoPage;
  }

  std::vector<T*> dir_;  // one entry per kPageIds ids; null until touched
  std::size_t ids_ = 0;
  std::array<Chunk, kMaxChunks> chunks_{};
  std::size_t num_chunks_ = 0;
  std::size_t last_used_ = 0;  // pages carved from the newest chunk
  std::size_t carved_ = 0;
  std::size_t first_chunk_pages_ = 1;
};

}  // namespace wcs::common
