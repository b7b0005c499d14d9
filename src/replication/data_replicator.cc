#include "replication/data_replicator.h"

#include <algorithm>

namespace wcs::replication {

const char* to_string(Placement placement) {
  switch (placement) {
    case Placement::kRandom: return "random";
    case Placement::kLeastLoaded: return "least-loaded";
    case Placement::kHierarchicalParent: return "hierarchical";
    case Placement::kNetworkCost: return "network-cost";
  }
  return "?";
}

bool parse_placement(std::string_view name, Placement* out) {
  if (name == "random") *out = Placement::kRandom;
  else if (name == "least-loaded") *out = Placement::kLeastLoaded;
  else if (name == "hierarchical") *out = Placement::kHierarchicalParent;
  else if (name == "network-cost") *out = Placement::kNetworkCost;
  else return false;
  return true;
}

DataReplicator::DataReplicator(const DataReplicatorParams& params,
                               sim::Simulator& sim, net::FlowManager& flows,
                               NodeId file_server_node,
                               std::vector<storage::DataServer*> data_servers,
                               std::vector<SiteNetInfo> site_info)
    : params_(params),
      sim_(sim),
      flows_(flows),
      file_server_node_(file_server_node),
      data_servers_(std::move(data_servers)),
      site_info_(std::move(site_info)),
      rng_(params.seed) {
  WCS_CHECK(params_.popularity_threshold > 0);
  WCS_CHECK(params_.check_interval_s > 0);
  WCS_CHECK(!data_servers_.empty());
  // No topology facts: one flat group, unit bandwidth — the hierarchical
  // and network-cost placements degrade to deterministic tie-breaks.
  if (site_info_.empty()) site_info_.resize(data_servers_.size());
  WCS_CHECK(site_info_.size() == data_servers_.size());
  for (const SiteNetInfo& s : site_info_)
    num_groups_ = std::max(num_groups_, s.man_group + 1);
}

void DataReplicator::start() {
  WCS_CHECK(!stopped_);
  next_scan_ = sim_.schedule_in(params_.check_interval_s, [this] { scan(); });
}

void DataReplicator::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (next_scan_.valid()) sim_.cancel(next_scan_);
  // Cancel in sorted id order: FlowManager::cancel reallocates the
  // remaining flows, so the cancellation sequence is observable.
  std::vector<FlowId> pending(in_flight_.begin(), in_flight_.end());
  std::sort(pending.begin(), pending.end());
  for (FlowId f : pending) flows_.cancel(f);
  in_flight_.clear();
}

void DataReplicator::on_file_fetched(FileId file, SiteId origin) {
  if (stopped_) return;
  ++popularity_[file];
  if (params_.placement == Placement::kHierarchicalParent &&
      origin.value() < site_info_.size()) {
    std::vector<std::uint32_t>& demand = group_demand_[file];
    if (demand.empty()) demand.resize(num_groups_, 0);
    ++demand[site_info_[origin.value()].man_group];
  }
}

SiteId DataReplicator::pick_target(FileId file) {
  std::vector<std::size_t> candidates;
  for (std::size_t s = 0; s < data_servers_.size(); ++s)
    if (!data_servers_[s]->cache().contains(file)) candidates.push_back(s);
  if (candidates.empty()) return SiteId::invalid();

  auto least_loaded = [&](const std::vector<std::size_t>& pool) {
    std::size_t best = pool.front();
    for (std::size_t s : pool)
      if (data_servers_[s]->queue_length() <
          data_servers_[best]->queue_length())
        best = s;
    return best;
  };

  std::size_t chosen = candidates.front();
  switch (params_.placement) {
    case Placement::kRandom:
      chosen = candidates[rng_.index(candidates.size())];
      break;
    case Placement::kLeastLoaded:
      chosen = least_loaded(candidates);
      break;
    case Placement::kHierarchicalParent: {
      // Group with the most recorded demand wins; ties break toward the
      // lowest group id. A file that crossed the popularity threshold
      // without per-group records (listener not wired) lands in group 0.
      std::uint32_t best_group = 0;
      auto it = group_demand_.find(file);
      if (it != group_demand_.end()) {
        const std::vector<std::uint32_t>& demand = it->second;
        for (std::uint32_t g = 1; g < demand.size(); ++g)
          if (demand[g] > demand[best_group]) best_group = g;
      }
      std::vector<std::size_t> in_group;
      for (std::size_t s : candidates)
        if (site_info_[s].man_group == best_group) in_group.push_back(s);
      // Every site of the hottest group already holds the file: fall back
      // to the full candidate set rather than skipping the round.
      chosen = least_loaded(in_group.empty() ? candidates : in_group);
      break;
    }
    case Placement::kNetworkCost: {
      // DIANA cost: delivery time over the site's uplink, inflated by the
      // backlog the new replica would queue behind. Strict < keeps the
      // lowest site id on ties.
      double best_cost = 0;
      bool first = true;
      for (std::size_t s : candidates) {
        const SiteNetInfo& net = site_info_[s];
        const double transfer =
            static_cast<double>(
                data_servers_[s]->cache().missing_bytes(file)) /
                std::max(net.uplink_bandwidth_bps, 1.0) +
            net.uplink_latency_s;
        const double cost =
            transfer *
            (1.0 + static_cast<double>(data_servers_[s]->queue_length()));
        if (first || cost < best_cost) {
          first = false;
          best_cost = cost;
          chosen = s;
        }
      }
      break;
    }
  }
  return SiteId(static_cast<SiteId::underlying_type>(chosen));
}

void DataReplicator::scan() {
  if (stopped_) return;
  ++stats_.rounds;

  // Hot files first, deterministically.
  std::vector<std::pair<std::size_t, FileId>> hot;
  // detlint: unordered-loop -- collect-then-sort: 'hot' is canonically sorted by (count, id) before any use
  for (const auto& [file, count] : popularity_) {
    if (count < params_.popularity_threshold) continue;
    if (replicated_.count(file)) continue;
    hot.emplace_back(count, file);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (hot.size() > params_.max_replicas_per_round)
    hot.resize(params_.max_replicas_per_round);

  for (const auto& [count, file] : hot) {
    SiteId target = pick_target(file);
    if (!target.valid()) {
      replicated_.insert(file);  // everywhere already; never revisit
      continue;
    }
    replicated_.insert(file);
    storage::DataServer* ds = data_servers_[target.value()];
    FileId f = file;
    // Priced at flow start (only the blocks the target does not already
    // cover ship), and the completion callback books that same amount so
    // the results ledger matches the flow manager byte for byte.
    const Bytes bytes = ds->cache().missing_bytes(file);
    const double moved = static_cast<double>(bytes);
    FlowId flow = flows_.start_flow(
        file_server_node_, ds->node(), bytes,
        [this, ds, f, moved](FlowId id) {
          in_flight_.erase(id);
          // The demand path may have fetched it meanwhile; and a cache
          // momentarily full of pinned files just drops the replica.
          if (!ds->cache().contains(f)) (void)ds->cache().try_insert(f);
          ++stats_.files_replicated;
          stats_.bytes_replicated += moved;
        });
    in_flight_.insert(flow);
  }

  next_scan_ = sim_.schedule_in(params_.check_interval_s, [this] { scan(); });
}

}  // namespace wcs::replication
