#include "output_check.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "workloads.h"

namespace perfbench {

namespace {

struct Pin {
  const char* workload;
  std::size_t sim;
  Digest digest;
};

// Default-seed results, one row per simulation (regenerate with
// `run.py --print-pins`; a change that alters simulation results must
// say so and re-pin).
constexpr Pin kPins[] = {
    {"paper_closed", 0, {6000u, 178015u, 82170u, 0x427de4ad76e80000u, 0x413256653e223bcau}},  // storage-affinity
    {"paper_closed", 1, {6000u, 182482u, 82236u, 0x427dead306f00000u, 0x4132579011f458e7u}},  // overlap
    {"paper_closed", 2, {6000u, 138404u, 60197u, 0x4275e64852140000u, 0x412ca72f9068f948u}},  // rest
    {"paper_closed", 3, {6000u, 138754u, 60372u, 0x4275f694a5500000u, 0x412cd6fb85db6090u}},  // combined
    {"paper_closed", 4, {6000u, 138392u, 60191u, 0x4275e5b944fc0000u, 0x412ccffbc68f6a57u}},  // rest.2
    {"paper_closed", 5, {6000u, 137534u, 59762u, 0x4275bdc51cc80000u, 0x412c83099ae6a693u}},  // combined.2
    {"wide_flows", 0, {4000u, 161202u, 74441u, 0x427b14dbbea40000u, 0x410a8f1171f537f5u}},  // rest
    {"open_dedup", 0, {3000u, 405987u, 190267u, 0x4283949b71960000u, 0x41448abf30bde33du}},  // rest.2
    {"open_dedup", 1, {3000u, 405315u, 189995u, 0x42838f6634fe0000u, 0x414490ce8e62a54eu}},  // combined
};

}  // namespace

Digest digest_of(const wcs::metrics::RunResult& result) {
  Digest d;
  d.tasks_completed = result.tasks_completed;
  d.events = result.events_executed;
  d.file_transfers = result.total_file_transfers();
  d.bytes_bits = std::bit_cast<std::uint64_t>(
      result.total_bytes_transferred() + result.bytes_replicated);
  d.makespan_bits = std::bit_cast<std::uint64_t>(result.makespan_s);
  return d;
}

const Digest* pinned_digest(const std::string& workload, std::size_t sim) {
  for (const Pin& p : kPins)
    if (workload == p.workload && sim == p.sim) return &p.digest;
  return nullptr;
}

std::string check_output(const Digest& got, std::size_t num_tasks,
                         const Digest* pinned, const Digest* first) {
  if (got.tasks_completed != num_tasks)
    return std::to_string(got.tasks_completed) + " of " +
           std::to_string(num_tasks) + " tasks completed";
  if (first != nullptr && got != *first)
    return "result differs from this simulation's first result in the run";
  if (pinned != nullptr && got != *pinned)
    return "result differs from the pinned default-seed result";
  return {};
}

std::string pin_line(const std::string& workload, std::size_t sim,
                     const Digest& d) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %zu, {%" PRIu64 "u, %" PRIu64 "u, %" PRIu64
                "u, 0x%016" PRIx64 "u, 0x%016" PRIx64 "u}},",
                workload.c_str(), sim, d.tasks_completed, d.events,
                d.file_transfers, d.bytes_bits, d.makespan_bits);
  return buf;
}

RunCheck::RunCheck(std::string workload, std::uint64_t seed,
                   std::size_t num_sims)
    : workload_(std::move(workload)),
      pinned_seed_(seed == kDefaultSeed),
      first_(num_sims) {}

void RunCheck::record(std::size_t sim, std::size_t num_tasks,
                      const Digest& got) {
  ++attempted_;
  const Digest* first = first_[sim] ? &*first_[sim] : nullptr;
  const Digest* pinned = pinned_seed_ ? pinned_digest(workload_, sim) : nullptr;
  const std::string why = check_output(got, num_tasks, pinned, first);
  if (!first_[sim]) first_[sim] = got;
  if (why.empty()) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: %s simulation %zu failed the output check: %s\n",
               workload_.c_str(), sim, why.c_str());
}

void RunCheck::record_failure(std::size_t sim, const std::string& why) {
  ++attempted_;
  ++failed_;
  std::fprintf(stderr, "perfbench: %s simulation %zu failed: %s\n",
               workload_.c_str(), sim, why.c_str());
}

}  // namespace perfbench
