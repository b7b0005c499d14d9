#include "workload/registry.h"

#include <utility>

#include "common/check.h"
#include "workload/trace.h"
#include "workload/unchecked.h"

namespace wcs::workload {

namespace {

struct Entry {
  std::string name;
  std::string summary;
  GeneratorBuilder build;
};

std::vector<Entry>& entries() {
  static std::vector<Entry> registry;
  return registry;
}

const Entry* find_entry(const std::string& name) {
  for (const Entry& e : entries())
    if (e.name == name) return &e;
  return nullptr;
}

// Closed builtins share one wrapper: build the bag, then stamp
// single-tenant arrivals if the spec asks for an open run.
Workload closed_bag(Job job, const GeneratorSpec& spec) {
  Workload wl;
  wl.job = std::move(job);
  stamp_arrivals(wl, spec.open);
  return wl;
}

}  // namespace

void register_generator(const std::string& name, const std::string& summary,
                        GeneratorBuilder builder) {
  WCS_CHECK_MSG(!name.empty(), "generator name must be non-empty");
  WCS_CHECK_MSG(builder != nullptr, "generator " << name << " has no builder");
  WCS_CHECK_MSG(find_entry(name) == nullptr,
                "generator " << name << " registered twice");
  entries().push_back({name, summary, std::move(builder)});
}

bool has_generator(const std::string& name) {
  return find_entry(name) != nullptr;
}

std::vector<std::string> generator_names() {
  std::vector<std::string> names;
  names.reserve(entries().size());
  for (const Entry& e : entries()) names.push_back(e.name);
  return names;
}

const std::string& generator_summary(const std::string& name) {
  const Entry* e = find_entry(name);
  WCS_CHECK_MSG(e != nullptr, "unknown generator " << name);
  return e->summary;
}

Workload build_workload(const GeneratorSpec& spec) {
  const Entry* e = find_entry(spec.generator);
  WCS_CHECK_MSG(e != nullptr, "unknown workload generator '"
                                  << spec.generator
                                  << "' (see generator_names())");
  Workload wl = e->build(spec);
  validate_job(wl.job);
  validate_arrivals(wl.arrivals, wl.job);
  return wl;
}

void register_builtin_generators() {
  if (has_generator("coadd")) return;  // idempotent
  register_generator(
      "coadd", "synthetic Coadd, the paper's Table 2 / Figure 3 workload",
      [](const GeneratorSpec& spec) {
        return closed_bag(unchecked::coadd(spec.coadd), spec);
      });
  register_generator(
      "uniform", "unstructured sharing: uniform draws from one catalog",
      [](const GeneratorSpec& spec) {
        return closed_bag(unchecked::uniform(spec.synthetic), spec);
      });
  register_generator(
      "zipf", "skewed popularity: Zipf-ranked file draws",
      [](const GeneratorSpec& spec) {
        return closed_bag(unchecked::zipf(spec.synthetic, spec.zipf_exponent),
                          spec);
      });
  register_generator(
      "partitioned", "zero sharing: disjoint per-task input sets",
      [](const GeneratorSpec& spec) {
        return closed_bag(unchecked::partitioned(spec.synthetic), spec);
      });
  register_generator(
      "trace", "replay a saved workload trace file (trace_path)",
      [](const GeneratorSpec& spec) {
        WCS_CHECK_MSG(!spec.trace_path.empty(),
                      "trace generator needs trace_path");
        return load_workload(spec.trace_path);
      });
  register_generator(
      "multi-tenant",
      "per-tenant Coadd bag streams with Poisson/diurnal/bursty arrivals",
      [](const GeneratorSpec& spec) {
        return unchecked::multi_tenant(spec.coadd, spec.open);
      });
}

}  // namespace wcs::workload
