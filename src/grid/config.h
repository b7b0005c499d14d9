// Grid experiment configuration.
//
// Defaults follow the paper's Table 1: 10 sites, 1 worker per site,
// 6,000-file data servers. File size lives in the workload (the catalog
// carries per-file sizes); everything else about the platform is here.
#pragma once

#include <cstdint>
#include <optional>

#include "audit/invariant_auditor.h"
#include "common/check.h"
#include "net/tiers.h"
#include "obs/observability.h"
#include "replication/data_replicator.h"
#include "storage/file_cache.h"
#include "workload/job.h"

namespace wcs::grid {

// Fallback platform estimates served by sched::GridEngine's default
// estimated_uplink_bandwidth() / estimated_site_mflops() when an engine
// implementation does not override them (e.g. the test fakes). They are
// deliberately crude placeholders — the paper's Sec. 2.4 point is that
// dynamic estimates are hard to obtain, so only the dynamic-information
// baselines (XSufferage/MCT) ever read these — sized so a default-engine
// run is obviously slow rather than subtly wrong:
//   - 1 MB/s uplink ≈ the paper's 2 Mbit/s site uplink halved, and
//   - 1 GFLOPS ≈ the floor of the top500/100 worker-speed table.
inline constexpr double kFallbackUplinkBandwidthBps = 1e6;
inline constexpr double kFallbackSiteMflops = 1e3;

// Worker speeds: sampled from the top500-like table / 100 (Sec. 5.2).
// Mixed with the topology seed (GridConfig::effective_speed_seed) so the
// 5 averaged repetitions also re-roll worker speeds, as re-generated
// platforms would.
inline constexpr std::uint64_t kWorkerSpeedSeed = 11;
// Stream of the per-site estimate-error factors (GridConfig::
// estimate_error), likewise mixed with the topology seed.
inline constexpr std::uint64_t kEstimateSeed = 23;

struct GridConfig {
  net::TiersParams tiers;  // num_sites / workers_per_site / link params / seed

  std::size_t capacity_files = 6000;  // per data server (Table 1)
  storage::EvictionPolicy eviction = storage::EvictionPolicy::kLru;

  // Block-level data plane (src/storage/block_store.h): caches account
  // bytes in fixed-size blocks, and files whose content overlaps
  // (BlockStoreParams::content_overlap > 0) share physical blocks, so
  // demand fetches and replicas ship only the blocks a site is missing.
  // The default, overlap 0, reduces exactly to the paper's file-count
  // capacity on uniform catalogs. Always on: std::nullopt reads as the
  // default parameters (readers use value_or). The field stays optional
  // only because existing configuration code engages it with emplace().
  std::optional<storage::BlockStoreParams> block_store =
      storage::BlockStoreParams{};

  // Optional proactive data replication (Ranganathan & Foster style);
  // disabled by default, as in the paper's main experiments.
  std::optional<replication::DataReplicatorParams> replication;

  // Optional worker churn (crash/recover), motivated by the paper's own
  // premise that grid resources are unreliable ("Seven Deadly Sins of
  // Distributed Systems" / PlanetLab, Sec. 1). Exponential uptime and
  // downtime per worker; a crash loses the worker's queue and its
  // running task instance, which the scheduler must re-home.
  struct ChurnParams {
    double mean_uptime_s = 24 * 3600.0;   // MTBF
    double mean_downtime_s = 2 * 3600.0;  // MTTR
    std::uint64_t seed = 17;
  };
  std::optional<ChurnParams> churn;

  // Quality of the dynamic platform estimates served to
  // dynamic-information baselines (XSufferage): each site's bandwidth and
  // CPU estimate is multiplied by a factor drawn log-uniformly from
  // [1/(1+e), 1+e] once per run. 0 = omniscient (default). The paper's
  // Sec. 2.4 argument — dynamic metrics are hard to obtain, data
  // placement is easy — is regenerated by sweeping this knob
  // (scenario ablation_baselines): the paper's schedulers never read these
  // estimates and are immune by construction.
  double estimate_error = 0.0;

  // Runtime invariant auditing (src/audit): sweep the registered
  // conservation-law checkers every `audit_interval_events` executed
  // events and at end-of-run, aborting with a violation report on the
  // first broken law. Checkers are read-only, so results are
  // byte-identical with auditing on or off. Defaults: WCS_AUDIT=1/0 in
  // the environment wins, else on in Debug builds, off in Release.
  bool audit = audit::default_enabled();
  std::size_t audit_interval_events = 10000;

  // Observability (src/obs): phase profiler, event tracer. Both
  // read-only, so instrumented runs are byte-identical to uninstrumented
  // ones. Defaults to the WCS_OBS / WCS_TRACE environment gates; benches
  // override explicitly (e.g. --trace-out).
  obs::Options obs = obs::Options::from_env();

  [[nodiscard]] std::uint64_t effective_speed_seed() const {
    return kWorkerSpeedSeed * 0x9e3779b97f4a7c15ULL ^ tiers.seed;
  }
};

// A configuration is only meaningful if every task's working set fits,
// including everything pinned by the site's concurrently active tasks —
// otherwise assumption 5 of the paper's model (all files resident during
// execution) is unsatisfiable.
inline void validate_config(const GridConfig& config,
                            const workload::Job& job) {
  std::size_t max_files = 0;
  for (const workload::Task& t : job.tasks())
    max_files = std::max(max_files, t.files.size());
  std::size_t worst_pinned =
      max_files * static_cast<std::size_t>(config.tiers.workers_per_site);
  WCS_CHECK_MSG(config.capacity_files >= worst_pinned,
                "data server capacity "
                    << config.capacity_files << " cannot hold the worst-case "
                    << worst_pinned << " concurrently pinned files ("
                    << config.tiers.workers_per_site << " workers x "
                    << max_files << " files)");
}

}  // namespace wcs::grid
