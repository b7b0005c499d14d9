// Data-plane scenarios R1–R3: the block-store ablations
// (docs/data-plane.md). Coadd's defining property — consecutive stacking
// windows share most of their input pixels — is modeled by the block
// store's content_overlap knob: at overlap w, file f+1 shares a w
// fraction of file f's blocks, so demand fetches and proactive replicas
// ship only the blocks a site is missing.
#include <string>
#include <vector>

#include "replication/data_replicator.h"
#include "scenario/catalog.h"

namespace wcs::scenario::detail {

namespace {

// The overlap the R-scenarios model unless a point sweeps it: half of
// each window is shared with its neighbor, coadd's typical stride.
constexpr double kCoaddOverlap = 0.5;

sched::SchedulerSpec rest2() {
  sched::SchedulerSpec s;
  s.algorithm = sched::Algorithm::kRest;
  s.choose_n = 2;
  return s;
}

sched::SchedulerSpec storage_affinity() {
  sched::SchedulerSpec s;
  s.algorithm = sched::Algorithm::kStorageAffinity;
  return s;
}

}  // namespace

void register_data_scenarios() {
  // R1: block-size sweep. Smaller blocks track the shared content more
  // precisely (higher dedup ratio) but model a finer transfer grid; the
  // sweep locates the knee. Overlap is fixed at the coadd stride.
  register_scenario(
      "data_block_size", "R1: dedup vs block size at coadd overlap",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "data_block_size";
        spec.title = "Data plane R1: dedup vs block size";
        spec.x_axis = "block_size_mb";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);
        spec.base_config = paper_platform();
        spec.schedulers = {rest2(), storage_affinity()};
        std::vector<double> sizes = {0.25, 0.5, 1.0, 2.0, 4.0};
        if (options.fast) sizes = {0.5, 1.0, 4.0};
        for (double mb : sizes) {
          Point pt;
          pt.x = mb;
          pt.label = (mb < 1.0 ? std::to_string(mb).substr(0, 4)
                               : std::to_string(static_cast<int>(mb))) +
                     "MB";
          pt.config = paper_platform();
          pt.config.block_store.emplace();
          pt.config.block_store->block_size = megabytes(mb);
          pt.config.block_store->content_overlap = kCoaddOverlap;
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "the dedup ratio (report field dedup_ratio) is flat "
            "across block\nsizes for this uniform workload — overlap is "
            "block-aligned — while the\nmakespan tracks the saved wire "
            "bytes; the no-dedup baseline is\ncontent overlap 0 "
            "(dedup_ratio 1), e.g. R2's @disjoint rows.";
        return spec;
      });

  // R2: eviction policy x dedup. Shared blocks change what an eviction
  // actually frees (evicting a file whose neighbor is resident frees
  // only the exclusive tail), so policies that agree at overlap 0 can
  // diverge under overlap. Tight capacity forces steady eviction.
  register_scenario(
      "data_eviction_dedup", "R2: eviction policy x content overlap",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "data_eviction_dedup";
        spec.title = "Data plane R2: eviction policy x content overlap";
        spec.x_axis = "policy@mode";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);
        spec.base_config = paper_platform();
        spec.schedulers = {rest2()};
        for (double overlap : {0.0, kCoaddOverlap}) {
          for (auto policy :
               {storage::EvictionPolicy::kLru, storage::EvictionPolicy::kFifo,
                storage::EvictionPolicy::kMinRef}) {
            Point pt;
            pt.x = static_cast<double>(spec.points.size());
            pt.label = std::string(storage::to_string(policy)) +
                       (overlap > 0 ? "@dedup" : "@disjoint");
            pt.config = paper_platform();
            pt.config.capacity_files = 3000;  // force steady eviction
            pt.config.eviction = policy;
            pt.config.block_store.emplace();
            pt.config.block_store->content_overlap = overlap;
            spec.points.push_back(std::move(pt));
          }
        }
        spec.notes =
            "at overlap 0 the three policies reproduce A3's "
            "ordering; under\ndedup the gap narrows — evicting a shared "
            "file frees only its exclusive\nblocks, so cache pressure is "
            "effectively lower at the same capacity.";
        return spec;
      });

  // R3: replication placement x topology. The four placements ablated
  // against no replication, on the default MAN fan-out and on a flatter
  // hierarchy (2 sites per MAN router), with the block store at coadd
  // overlap so replicas also ship only missing blocks.
  register_scenario(
      "data_replication_policy", "R3: replication placement x topology",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "data_replication_policy";
        spec.title = "Data plane R3: replication placement x topology";
        spec.x_axis = "policy@sites_per_man";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);
        spec.base_config = paper_platform();
        // Placement matters most for the scheduler whose assignment
        // creates hot spots (the paper's task-centric baseline).
        spec.schedulers = {storage_affinity()};

        struct Policy {
          const char* label;
          bool enabled;
          replication::Placement placement;
        };
        std::vector<Policy> policies = {
            {"none", false, replication::Placement::kRandom},
            {"random", true, replication::Placement::kRandom},
            {"least-loaded", true, replication::Placement::kLeastLoaded},
            {"hierarchical", true,
             replication::Placement::kHierarchicalParent},
            {"network-cost", true, replication::Placement::kNetworkCost},
        };
        if (options.fast)
          policies = {policies[0], policies[2], policies[3], policies[4]};
        std::vector<int> fanouts = {4, 2};
        if (options.fast) fanouts = {4};
        for (int per_man : fanouts) {
          for (const Policy& p : policies) {
            Point pt;
            pt.x = static_cast<double>(spec.points.size());
            pt.label = std::string(p.label) + "@" + std::to_string(per_man);
            pt.config = paper_platform();
            pt.config.tiers.sites_per_man = per_man;
            pt.config.block_store.emplace();
            pt.config.block_store->content_overlap = kCoaddOverlap;
            if (p.enabled) {
              replication::DataReplicatorParams rp;
              rp.popularity_threshold = 8;
              rp.placement = p.placement;
              pt.config.replication = rp;
            }
            spec.points.push_back(std::move(pt));
          }
        }
        spec.notes =
            "hierarchical placement should beat random where MAN "
            "groups are\nwide (demand concentrates under one router) and "
            "lose its edge on the\nflat fan-out; network-cost tracks "
            "least-loaded but prices the uplink,\nso it wins when uplinks "
            "are uneven.";
        return spec;
      });
}

}  // namespace wcs::scenario::detail
