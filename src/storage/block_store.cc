#include "storage/block_store.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wcs::storage {

namespace {

// ceil(size / block) for a nonempty file; zero-byte files still occupy
// one (empty) block so every file has a nonempty extent. Extent lengths
// are 32-bit, so a file/block ratio past that range is refused rather
// than wrapped (file sizes can come from trace files).
std::uint32_t block_count(Bytes size, Bytes block) {
  if (size == 0) return 1;
  const Bytes n = size / block + (size % block != 0 ? 1 : 0);
  WCS_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                "a " << size << "-byte file spans " << n << " blocks of "
                     << block << " bytes; at most "
                     << std::numeric_limits<std::uint32_t>::max()
                     << " blocks per file are supported (raise the block "
                        "size)");
  return static_cast<std::uint32_t>(n);
}

}  // namespace

BlockMap::BlockMap(const workload::FileCatalog& catalog,
                   const BlockStoreParams& params)
    : params_(params), num_files_(catalog.num_files()) {
  WCS_CHECK_MSG(params_.block_size > 0, "block size must be positive");
  WCS_CHECK_MSG(params_.content_overlap >= 0.0 &&
                    params_.content_overlap < 1.0,
                "content overlap must be in [0, 1), got "
                    << params_.content_overlap);
  uniform_ = catalog.uniform();
  if (num_files_ == 0) {
    blocks_ = stride_ = 1;
    return;
  }
  if (uniform_) {
    const Bytes size = catalog.size(FileId(0));
    blocks_ = block_count(size, params_.block_size);
    const auto shared_blocks = static_cast<std::uint32_t>(
        std::llround(params_.content_overlap * blocks_));
    stride_ = blocks_ > shared_blocks ? blocks_ - shared_blocks : 1;
    if (stride_ == 0) stride_ = 1;
    tail_bytes_ = size - static_cast<Bytes>(blocks_ - 1) * params_.block_size;
    num_blocks_ =
        static_cast<std::uint64_t>(num_files_ - 1) * stride_ + blocks_;
    return;
  }
  // Heterogeneous catalog: disjoint extents, one prefix-sum table.
  first_.reserve(num_files_ + 1);
  tail_.reserve(num_files_);
  first_.push_back(0);
  for (std::size_t i = 0; i < num_files_; ++i) {
    const FileId f(static_cast<FileId::underlying_type>(i));
    const Bytes size = catalog.size(f);
    const std::uint32_t n = block_count(size, params_.block_size);
    first_.push_back(first_.back() + n);
    tail_.push_back(size == 0
                        ? 0
                        : size - static_cast<Bytes>(n - 1) *
                                     params_.block_size);
  }
  num_blocks_ = first_.back();
}

BlockMap::Extent BlockMap::extent(FileId f) const {
  WCS_CHECK_MSG(f.valid() && f.value() < num_files_,
                "file " << f << " outside the block map ("
                        << num_files_ << " files)");
  if (uniform_)
    return {static_cast<std::uint64_t>(f.value()) * stride_, blocks_};
  return {first_[f.value()],
          static_cast<std::uint32_t>(first_[f.value() + 1] -
                                     first_[f.value()])};
}

Bytes BlockMap::block_bytes(FileId f, std::uint32_t index) const {
  const Extent e = extent(f);
  WCS_CHECK(index < e.count);
  if (shared()) return params_.block_size;  // content rounded up to blocks
  if (index + 1 < e.count) return params_.block_size;
  return uniform_ ? tail_bytes_ : tail_[f.value()];
}

Bytes BlockMap::file_bytes(FileId f) const {
  const Extent e = extent(f);
  if (shared()) return static_cast<Bytes>(e.count) * params_.block_size;
  const Bytes tail = uniform_ ? tail_bytes_ : tail_[f.value()];
  return static_cast<Bytes>(e.count - 1) * params_.block_size + tail;
}

std::uint64_t BlockMap::max_resident_files(
    std::uint64_t capacity_blocks) const {
  if (!uniform_) return capacity_blocks;  // disjoint, >= 1 block each
  if (capacity_blocks < blocks_) return 0;
  return 1 + (capacity_blocks - blocks_) / stride_;
}

std::uint32_t BlockMap::blocks_per_file_max() const {
  if (uniform_ || num_files_ == 0) return blocks_;
  std::uint32_t best = 0;
  for (std::size_t i = 0; i < num_files_; ++i)
    best = std::max(best,
                    static_cast<std::uint32_t>(first_[i + 1] - first_[i]));
  return best;
}

}  // namespace wcs::storage
