// Output check: every simulation a run executes is one operation, and it
// fails when it throws or when its result differs from what is expected.
//
//   - always: every task completed;
//   - always: the result equals the first result of the same simulation
//     in this run, bit for bit (repeat passes and traced passes must not
//     change a simulation's outcome);
//   - at kDefaultSeed: the result equals the digest pinned below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metrics/results.h"

namespace perfbench {

// What a simulation's result is compared on. Doubles are compared by
// their bits.
struct Digest {
  std::uint64_t tasks_completed = 0;
  std::uint64_t events = 0;
  std::uint64_t file_transfers = 0;
  std::uint64_t bytes_bits = 0;     // demand + replication bytes
  std::uint64_t makespan_bits = 0;  // makespan_s

  bool operator==(const Digest&) const = default;
};

[[nodiscard]] Digest digest_of(const wcs::metrics::RunResult& result);

// The pinned default-seed digest of simulation `sim` of `workload`, or
// nullptr when none is pinned.
[[nodiscard]] const Digest* pinned_digest(const std::string& workload,
                                          std::size_t sim);

// Empty when `got` passes, else why it fails. `pinned` and `first` may
// be null.
[[nodiscard]] std::string check_output(const Digest& got,
                                       std::size_t num_tasks,
                                       const Digest* pinned,
                                       const Digest* first);

// One line of the pin table in output_check.cc, for re-pinning.
[[nodiscard]] std::string pin_line(const std::string& workload,
                                   std::size_t sim, const Digest& digest);

// Attempted/failed bookkeeping for one run of one workload.
class RunCheck {
 public:
  RunCheck(std::string workload, std::uint64_t seed, std::size_t num_sims);

  void record(std::size_t sim, std::size_t num_tasks, const Digest& got);
  void record_failure(std::size_t sim, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::string workload_;
  bool pinned_seed_ = false;
  std::vector<std::optional<Digest>> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
