#include "workload/open.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "workload/unchecked.h"

namespace wcs::workload {

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kAtT0:
      return "t0";
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
    case ArrivalProcess::kBursty:
      return "bursty";
  }
  return "unknown";
}

ArrivalProcess parse_arrival_process(const std::string& name) {
  if (name == "t0") return ArrivalProcess::kAtT0;
  if (name == "poisson") return ArrivalProcess::kPoisson;
  if (name == "diurnal") return ArrivalProcess::kDiurnal;
  if (name == "bursty") return ArrivalProcess::kBursty;
  WCS_CHECK_MSG(false, "unknown arrival process '"
                           << name << "' (want t0|poisson|diurnal|bursty)");
  return ArrivalProcess::kAtT0;
}

namespace {

// Bounded draw from a Pareto tail with exponent alpha, scaled so the
// mean lands on `mean`: x = xm / U^(1/alpha), E[x] = alpha*xm/(alpha-1).
double pareto_gap(Rng& rng, double mean, double alpha) {
  const double xm = mean * (alpha - 1.0) / alpha;
  const double u = 1.0 - rng.uniform_real(0, 1);  // (0, 1]
  // Cap at 1000x the mean: the un-capped tail is so heavy that a single
  // draw can dwarf the whole experiment horizon.
  return std::min(xm / std::pow(u, 1.0 / alpha), 1000.0 * mean);
}

void append_poisson(std::vector<double>& out, std::size_t count, Rng& rng,
                    double mean_gap) {
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(1.0 / mean_gap);
    out.push_back(t);
  }
}

void append_diurnal(std::vector<double>& out, std::size_t count, Rng& rng,
                    const OpenParams& p) {
  // Inhomogeneous Poisson by thinning against the peak rate.
  const double base_rate = 1.0 / p.mean_interarrival_s;
  const double peak_rate = base_rate * (1.0 + p.diurnal_amplitude);
  double t = 0;
  while (out.size() < count) {
    t += rng.exponential(peak_rate);
    const double rate =
        base_rate *
        (1.0 + p.diurnal_amplitude * std::sin(2.0 * std::acos(-1.0) * t /
                                              p.diurnal_period_s));
    if (rng.uniform_real(0, peak_rate) < rate) out.push_back(t);
  }
}

void append_bursty(std::vector<double>& out, std::size_t count, Rng& rng,
                   const OpenParams& p) {
  // Geometric burst sizes around mean_burst_size; gaps between bursts
  // are heavy-tailed and sized so the long-run mean gap per task stays
  // mean_interarrival_s.
  const double intra_gap = p.mean_interarrival_s / 20.0;
  const double inter_gap_mean =
      std::max(p.mean_interarrival_s,
               p.mean_burst_size * (p.mean_interarrival_s - intra_gap));
  const double continue_p = 1.0 - 1.0 / std::max(1.0, p.mean_burst_size);
  double t = 0;
  while (out.size() < count) {
    t += pareto_gap(rng, inter_gap_mean, p.burst_alpha);
    out.push_back(t);
    std::size_t burst = 1;
    while (out.size() < count && burst < 1000 && rng.bernoulli(continue_p)) {
      t += rng.exponential(1.0 / intra_gap);
      out.push_back(t);
      ++burst;
    }
  }
}

}  // namespace

std::vector<double> draw_arrivals(std::size_t count, const OpenParams& params,
                                  std::uint32_t tenant) {
  std::vector<double> out;
  out.reserve(count);
  if (params.process == ArrivalProcess::kAtT0) {
    out.assign(count, 0.0);
    return out;
  }
  WCS_CHECK_MSG(params.mean_interarrival_s > 0,
                "mean_interarrival_s must be positive");
  Rng rng(substream_seed(params.seed, tenant));
  switch (params.process) {
    case ArrivalProcess::kAtT0:
      break;  // handled above
    case ArrivalProcess::kPoisson:
      append_poisson(out, count, rng, params.mean_interarrival_s);
      break;
    case ArrivalProcess::kDiurnal:
      WCS_CHECK(params.diurnal_amplitude >= 0 && params.diurnal_amplitude < 1);
      append_diurnal(out, count, rng, params);
      break;
    case ArrivalProcess::kBursty:
      WCS_CHECK(params.burst_alpha > 1);
      append_bursty(out, count, rng, params);
      break;
  }
  out.resize(count);
  return out;
}

Workload unchecked::multi_tenant(const CoaddParams& bag,
                                const OpenParams& open) {
  std::vector<TenantInfo> tenants = open.tenants;
  if (tenants.empty()) tenants.push_back({"tenant0", 1});
  const std::size_t k = tenants.size();
  for (std::size_t i = 0; i < k; ++i)
    if (tenants[i].name.empty())
      tenants[i].name = "tenant" + std::to_string(i);

  Workload wl;
  wl.job.set_name("multi-tenant");
  wl.arrivals.tenants = tenants;
  for (std::size_t t = 0; t < k; ++t) {
    // Per-tenant bag from its own substream; explicit tasks_per_tenant
    // keeps tenant t's bag independent of the roster size.
    std::size_t n = open.tasks_per_tenant;
    if (n == 0) n = bag.num_tasks / k + (t < bag.num_tasks % k ? 1 : 0);
    WCS_CHECK_MSG(n > 0, "tenant " << tenants[t].name << " has no tasks");
    CoaddParams p = bag;
    p.num_tasks = n;
    p.seed = substream_seed(open.seed, 0x10000u + t);
    const Job tenant_bag = unchecked::coadd(p);

    const std::vector<double> times =
        draw_arrivals(tenant_bag.num_tasks(), open, static_cast<std::uint32_t>(t));

    // Append the bag: files keep per-tenant id ranges in tenant order,
    // task ids stay per-tenant contiguous blocks. Both are what makes
    // tenants 1..N byte-stable when tenant N+1 joins.
    const FileId::underlying_type file_offset =
        static_cast<FileId::underlying_type>(wl.job.catalog.num_files());
    for (std::size_t f = 0; f < tenant_bag.catalog.num_files(); ++f)
      wl.job.catalog.add_file(tenant_bag.catalog.size(
          FileId(static_cast<FileId::underlying_type>(f))));
    std::vector<FileId> shifted;
    for (const Task& task : tenant_bag.tasks()) {
      shifted.clear();
      shifted.reserve(task.files.size());
      for (FileId f : task.files)
        shifted.push_back(FileId(f.value() + file_offset));
      wl.job.add_task(shifted, task.mflop);
      wl.arrivals.arrival_s.push_back(times[task.id.value()]);
      wl.arrivals.tenant_of.push_back(static_cast<std::uint32_t>(t));
    }
  }
  return wl;
}

Workload generate_multi_tenant(const CoaddParams& bag,
                               const OpenParams& open) {
  Workload wl = unchecked::multi_tenant(bag, open);
  validate_job(wl.job);
  validate_arrivals(wl.arrivals, wl.job);
  return wl;
}

void stamp_arrivals(Workload& workload, const OpenParams& open) {
  WCS_CHECK_MSG(open.tenants.size() <= 1,
                "stamp_arrivals is single-tenant; use the multi-tenant "
                "generator for tenant rosters");
  if (open.process == ArrivalProcess::kAtT0) return;  // stays closed
  workload.arrivals.arrival_s =
      draw_arrivals(workload.job.num_tasks(), open, /*tenant=*/0);
  workload.arrivals.tenants = open.tenants;
  validate_arrivals(workload.arrivals, workload.job);
}

}  // namespace wcs::workload
