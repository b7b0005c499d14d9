#include "workload/job.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace wcs::workload {

JobStats compute_stats(const Job& job) {
  JobStats stats;
  stats.num_tasks = job.num_tasks();
  // Dense per-file reference counts (file ids are catalog indexes).
  std::vector<std::size_t> refs(job.catalog.num_files(), 0);
  std::size_t total_files = 0;
  stats.min_files_per_task = stats.num_tasks == 0 ? 0 : SIZE_MAX;
  for (const Task& t : job.tasks()) {
    stats.max_files_per_task =
        std::max(stats.max_files_per_task, t.files.size());
    stats.min_files_per_task =
        std::min(stats.min_files_per_task, t.files.size());
    total_files += t.files.size();
    for (FileId f : t.files) ++refs[f.value()];
  }
  stats.avg_files_per_task =
      stats.num_tasks ? static_cast<double>(total_files) /
                            static_cast<double>(stats.num_tasks)
                      : 0.0;
  for (std::size_t count : refs) {
    if (count == 0) continue;
    ++stats.distinct_files;
    stats.refs_cdf.add(count);
  }
  return stats;
}

void validate_job(const Job& job) {
  // One mark bit per catalog file, set while its task is checked and
  // cleared right after (a task's bits are the only ones set, so its
  // words are zeroed whole): each task is checked in list order in O(its
  // files), with one allocation per call however many tasks the job has.
  const std::size_t num_files = job.catalog.num_files();
  std::vector<std::uint64_t> seen((num_files + 63) / 64, 0);
  for (const Task& t : job.tasks()) {
    WCS_CHECK_MSG(!t.files.empty(), "task " << t.id << " has no input files");
    WCS_CHECK_MSG(t.mflop > 0, "task " << t.id << " has no compute cost");
    for (FileId f : t.files) {
      WCS_CHECK_MSG(f.valid() && f.value() < num_files,
                    "task " << t.id << " references unknown file " << f);
      const std::uint64_t bit = std::uint64_t{1} << (f.value() % 64);
      std::uint64_t& word = seen[f.value() / 64];
      WCS_CHECK_MSG((word & bit) == 0,
                    "task " << t.id << " references file " << f << " twice");
      word |= bit;
    }
    for (FileId f : t.files) seen[f.value() / 64] = 0;
  }
}

}  // namespace wcs::workload
