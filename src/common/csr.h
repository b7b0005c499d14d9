// Compressed-sparse-row table with mutable row ends.
//
// Replaces vector<vector<V>> inverted indexes (tasks-of-file tables)
// with three flat arrays: row offsets, row cursors, and one element
// pool. Rows are sized in a counting pass, then filled; afterwards each
// row supports O(1) swap-erase and bounded push_back (re-adding after a
// worker failure), which is exactly the mutation set the schedulers
// perform. A row can never grow past the capacity it was counted with —
// the schedulers re-add only elements they previously removed.
//
// Offsets and cursors are 32-bit (8 B per row instead of 16): finalize()
// refuses a pool of 2^32 or more elements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace wcs::common {

template <typename V>
class Csr {
 public:
  // Start a counting pass for `rows` empty rows.
  void reset(std::size_t rows) {
    begin_.assign(rows + 1, 0);
    end_.assign(rows, 0);
    pool_.clear();
  }

  // Counting pass: declare one future element in `row`.
  void count(std::size_t row) {
    WCS_CHECK_MSG(begin_[row + 1] < kMaxPool,
                  "CSR row " << row << " exceeds 32-bit offsets");
    ++begin_[row + 1];
  }

  // Turn the counts into offsets and allocate the pool. All rows start
  // empty; fill with push().
  void finalize() {
    std::uint64_t total = 0;
    for (std::size_t r = 1; r < begin_.size(); ++r) {
      total += begin_[r];
      WCS_CHECK_MSG(total <= kMaxPool, "CSR pool of " << total
                                           << " elements exceeds 32-bit "
                                              "offsets");
      begin_[r] = static_cast<std::uint32_t>(total);
    }
    pool_.resize(total);
    for (std::size_t r = 0; r + 1 < begin_.size(); ++r) end_[r] = begin_[r];
  }

  void push(std::size_t row, V v) {
    WCS_DCHECK(end_[row] < begin_[row + 1]);
    pool_[end_[row]++] = v;
  }

  [[nodiscard]] std::span<const V> row(std::size_t r) const {
    return {pool_.data() + begin_[r], end_[r] - begin_[r]};
  }
  [[nodiscard]] std::span<V> row(std::size_t r) {
    return {pool_.data() + begin_[r], end_[r] - begin_[r]};
  }

  // Swap-remove the first occurrence of `v` in row `r` (same element
  // motion as `*it = vec.back(); vec.pop_back();` on a vector). Returns
  // whether anything was removed.
  bool erase_swap(std::size_t r, const V& v) {
    V* first = pool_.data() + begin_[r];
    V* last = pool_.data() + end_[r];
    for (V* it = first; it != last; ++it) {
      if (*it == v) {
        *it = *(last - 1);
        --end_[r];
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t rows() const {
    return begin_.empty() ? 0 : begin_.size() - 1;
  }
  [[nodiscard]] std::size_t row_size(std::size_t r) const {
    return end_[r] - begin_[r];
  }
  [[nodiscard]] std::size_t row_capacity(std::size_t r) const {
    return begin_[r + 1] - begin_[r];
  }

  // Slot-aliasing invariant for the audit checker: every row cursor
  // must sit inside its row's [begin, begin_next] window.
  [[nodiscard]] bool row_bounds_sound() const {
    for (std::size_t r = 0; r + 1 < begin_.size(); ++r) {
      if (end_[r] < begin_[r] || end_[r] > begin_[r + 1]) return false;
    }
    return true;
  }

 private:
  static constexpr std::uint64_t kMaxPool = 0xffffffffu;

  std::vector<std::uint32_t> begin_;  // rows + 1 offsets into pool_
  std::vector<std::uint32_t> end_;    // per-row fill cursor
  std::vector<V> pool_;
};

}  // namespace wcs::common
