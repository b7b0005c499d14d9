// FNV-1a over 64-bit words (each fed as 8 little-endian bytes), for
// tests that pin a generated structure to a constant recorded once.
#pragma once

#include <cstdint>

namespace wcs::testing {

class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace wcs::testing
