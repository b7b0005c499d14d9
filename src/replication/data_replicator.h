// Proactive data replication (the paper's Sec. 3.1/6 companion
// mechanism, after Ranganathan & Foster, "Decoupling Computation and Data
// Scheduling in Distributed Data-Intensive Applications", HPDC'02).
//
// The replicator watches global file popularity (every fetch from the
// external file server counts). A file becomes eligible on the fetch that
// brings its count to the threshold; each periodic scan pushes the hottest
// eligible files to another site over the same links as demand fetches,
// so the bandwidth cost is modeled, not assumed away.
//
// The paper argues replication is NECESSARY for task-centric scheduling
// (to dissolve hot spots) but merely ORTHOGONAL for worker-centric
// scheduling; the ext_replication scenario quantifies both claims. The
// data_replication_policy scenario (R3) ablates the placement policies
// against each other across topologies.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/flow_manager.h"
#include "sim/simulator.h"
#include "storage/data_server.h"

namespace wcs::replication {

enum class Placement {
  kRandom,       // Ranganathan's DataRandom
  kLeastLoaded,  // Ranganathan's DataLeastLoaded (shortest batch queue)
  // Place inside the MAN group whose sites generated the most demand for
  // the file ("The Impact of Data Replication on Job Scheduling
  // Performance in Hierarchical Data Grid": replicate down the tier the
  // requests came from). Ties: lowest group id; within the group, least
  // loaded then lowest site id.
  kHierarchicalParent,
  // DIANA-style network-cost-weighted source selection turned into
  // placement: minimize (missing bytes / uplink bandwidth + uplink
  // latency) * (1 + backlog) over candidate sites, so a replica lands
  // where it is cheapest to deliver AND cheapest to serve from.
  kNetworkCost,
};

[[nodiscard]] const char* to_string(Placement placement);

// Parses a CLI/scenario policy name ("random", "least-loaded",
// "hierarchical", "network-cost"). Returns false on unknown names.
[[nodiscard]] bool parse_placement(std::string_view name, Placement* out);

// Per-site network facts for the placement policies that price the grid
// hierarchy (one entry per site, site order).
struct SiteNetInfo {
  std::uint32_t man_group = 0;       // site's MAN router index
  double uplink_bandwidth_bps = 1;   // the site's shared uplink
  SimTime uplink_latency_s = 0;
};

// Stream of the random placement's target draws.
inline constexpr std::uint64_t kReplicationSeed = 13;

struct DataReplicatorParams {
  // A file becomes replication-eligible once this many demand fetches
  // have been observed for it across all sites.
  std::size_t popularity_threshold = 8;
  Placement placement = Placement::kLeastLoaded;
  SimTime check_interval_s = 3600;       // scan (round) period
  std::size_t max_replicas_per_round = 25;  // throttle per scan
};

class DataReplicator {
 public:
  struct Stats {
    std::uint64_t files_replicated = 0;
    double bytes_replicated = 0;
    std::uint64_t rounds = 0;
  };

  // `site_info` (site order) feeds the hierarchy-aware placements; when
  // empty, every site is priced identically in one group (the
  // random/least-loaded policies never read it).
  DataReplicator(const DataReplicatorParams& params, sim::Simulator& sim,
                 net::FlowManager& flows, NodeId file_server_node,
                 std::vector<storage::DataServer*> data_servers,
                 std::vector<SiteNetInfo> site_info = {});

  DataReplicator(const DataReplicator&) = delete;
  DataReplicator& operator=(const DataReplicator&) = delete;

  // Begin periodic scans (first scan after one interval).
  void start();

  // Cancel the periodic scan and all in-flight replication transfers.
  // Called by the engine once the job completes.
  void stop();

  // Demand-fetch observation hook; the engine wires every data server's
  // transfer listener here. `origin` is the fetching site — the
  // hierarchical placement aggregates demand per MAN group from it.
  void on_file_fetched(FileId file, SiteId origin = SiteId(0));

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t popularity(FileId file) const {
    return file.value() < files_.size() ? files_[file.value()].count : 0;
  }

 private:
  // One replication flow: where it lands and what its completion books.
  struct InFlight {
    FlowId id;
    storage::DataServer* target = nullptr;
    FileId file;
    double moved = 0;  // bytes priced at flow start
  };

  static constexpr std::uint32_t kNotEligible = UINT32_MAX;

  // One file's demand and its place in the eligible heap.
  struct FileState {
    std::uint32_t count = 0;  // demand fetches seen
    std::uint32_t heap_pos = kNotEligible;
  };

  // eligible_ order: hotter first, then lower id.
  [[nodiscard]] bool hotter(FileId a, FileId b) const;
  // Fill the hole at `i` of eligible_ with `file`, toward the root.
  void sift_up(std::size_t i, FileId file);
  // Remove and return the hottest eligible file.
  FileId pop_hottest();
  void scan();
  // Site to receive a replica of `file`; invalid id if none is suitable
  // (every site already holds it).
  [[nodiscard]] SiteId pick_target(FileId file);
  // Completion of replication flow `id`: drops its record, inserts the
  // replica and books the bytes.
  void on_replica_done(FlowId id);

  DataReplicatorParams params_;
  sim::Simulator& sim_;
  net::FlowManager& flows_;
  NodeId file_server_node_;
  std::vector<storage::DataServer*> data_servers_;
  std::vector<SiteNetInfo> site_info_;  // site order; same size as servers
  std::uint32_t num_groups_ = 1;
  Rng rng_;

  // Per-file record by file id, grown on demand like FileCache's slots.
  std::vector<FileState> files_;
  // Per-MAN-group demand [file * num_groups_ + group], hierarchical
  // placement only; its size stays a multiple of num_groups_.
  std::vector<std::uint32_t> group_demand_;
  // Files whose count reached the threshold and that no scan has taken,
  // as an indexed max-heap in hotter() order (positions in files_); a
  // count crosses the threshold once, so a taken file never returns (one
  // proactive replica per file, as in the original per-popularity-event
  // scheme).
  std::vector<FileId> eligible_;
  // Replication flows in start order, which is ascending id order. The
  // flow callback captures only `this`, so it fits std::function's
  // inline buffer; the record carries the rest.
  std::vector<InFlight> in_flight_;
  // Scratch reused by every scan, reserved up front: the round being
  // placed (at most max_replicas_per_round files popped from eligible_)
  // and pick_target's site pools (at most one entry per site).
  std::vector<FileId> round_;
  std::vector<std::size_t> candidates_;
  std::vector<std::size_t> in_group_;
  EventId next_scan_;
  bool stopped_ = false;
  Stats stats_;
};

}  // namespace wcs::replication
