#include "workload/generators.h"

#include <numeric>

#include "common/rng.h"
#include "workload/unchecked.h"

namespace wcs::workload {

namespace {

Job make_job(std::string_view name, const GeneratorParams& p,
             std::vector<std::vector<FileId>> file_sets,
             std::size_t catalog_size) {
  Job job;
  job.set_name(name);
  job.catalog = FileCatalog(catalog_size, p.file_size);
  std::size_t total_refs = 0;
  for (const auto& files : file_sets) total_refs += files.size();
  job.reserve_tasks(file_sets.size(), total_refs);
  for (const std::vector<FileId>& files : file_sets)
    job.add_task(files,
                 p.mflop_per_file * static_cast<double>(files.size()));
  return job;
}

Job checked(Job job) {
  validate_job(job);
  return job;
}

// Draws `files_per_task` distinct files per task, redrawing a repeat. `seen`
// marks the current task's picks and is cleared after each task, so the
// draws are exactly those of a per-task set without its allocations.
template <typename Draw>
std::vector<std::vector<FileId>> distinct_picks(const GeneratorParams& p,
                                                Draw draw) {
  std::vector<std::vector<FileId>> sets(p.num_tasks);
  std::vector<char> seen(p.num_files, 0);
  for (auto& set : sets) {
    set.reserve(p.files_per_task);
    while (set.size() < p.files_per_task) {
      const std::size_t f = draw();
      if (seen[f] != 0) continue;
      seen[f] = 1;
      set.push_back(FileId(static_cast<FileId::underlying_type>(f)));
    }
    for (FileId f : set) seen[f.value()] = 0;
  }
  return sets;
}

}  // namespace

Job unchecked::uniform(const GeneratorParams& p) {
  WCS_CHECK(p.files_per_task <= p.num_files);
  Rng rng(p.seed);
  return make_job("uniform", p,
                  distinct_picks(p, [&] { return rng.index(p.num_files); }),
                  p.num_files);
}

Job unchecked::zipf(const GeneratorParams& p, double exponent) {
  WCS_CHECK(p.files_per_task <= p.num_files);
  Rng rng(p.seed);
  const ZipfCdf file_zipf(p.num_files, exponent);
  return make_job("zipf", p,
                  distinct_picks(p, [&] { return file_zipf.sample(rng) - 1; }),
                  p.num_files);
}

Job unchecked::partitioned(const GeneratorParams& p) {
  std::vector<std::vector<FileId>> sets(p.num_tasks);
  std::size_t next = 0;
  for (auto& set : sets) {
    set.reserve(p.files_per_task);
    for (std::size_t i = 0; i < p.files_per_task; ++i)
      set.push_back(FileId(static_cast<FileId::underlying_type>(next++)));
  }
  return make_job("partitioned", p, std::move(sets), next);
}

Job generate_uniform(const GeneratorParams& p) {
  return checked(unchecked::uniform(p));
}

Job generate_zipf(const GeneratorParams& p, double exponent) {
  return checked(unchecked::zipf(p, exponent));
}

Job generate_partitioned(const GeneratorParams& p) {
  return checked(unchecked::partitioned(p));
}

Job generate_sliding_window(std::size_t num_tasks, std::size_t width,
                            std::size_t stride, Bytes file_size,
                            double mflop_per_file) {
  WCS_CHECK(width > 0);
  GeneratorParams p;
  p.num_tasks = num_tasks;
  p.file_size = file_size;
  p.mflop_per_file = mflop_per_file;
  std::vector<std::vector<FileId>> sets(num_tasks);
  std::size_t catalog = 0;
  for (std::size_t t = 0; t < num_tasks; ++t) {
    sets[t].reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      std::size_t f = t * stride + i;
      catalog = std::max(catalog, f + 1);
      sets[t].push_back(FileId(static_cast<FileId::underlying_type>(f)));
    }
  }
  return checked(make_job("sliding-window", p, std::move(sets), catalog));
}

}  // namespace wcs::workload
