#include "replication/data_replicator.h"

#include <algorithm>

namespace wcs::replication {
namespace {
// Largest scan round the constructor reserves room for.
constexpr std::size_t kRoundReserve = 1024;

// Grows `v` to at least `n` entries, doubling like FileCache's slots.
template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(std::max(n, v.size() * 2));
}
}  // namespace

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
      rng_(kReplicationSeed) {
  WCS_CHECK(params_.popularity_threshold > 0);
  WCS_CHECK(params_.check_interval_s > 0);
  WCS_CHECK(!data_servers_.empty());
  // No topology facts: one flat group, unit bandwidth — the hierarchical
  // and network-cost placements degrade to deterministic tie-breaks.
  if (site_info_.empty()) site_info_.resize(data_servers_.size());
  WCS_CHECK(site_info_.size() == data_servers_.size());
  for (const SiteNetInfo& s : site_info_)
    num_groups_ = std::max(num_groups_, s.man_group + 1);
  // A throttle above kRoundReserve (in effect "unlimited") grows on demand.
  round_.reserve(std::min(params_.max_replicas_per_round, kRoundReserve));
  candidates_.reserve(data_servers_.size());
  in_group_.reserve(data_servers_.size());
}

void DataReplicator::start() {
  WCS_CHECK(!stopped_);
  next_scan_ = sim_.schedule_in(params_.check_interval_s, [this] { scan(); });
}

void DataReplicator::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (next_scan_.valid()) sim_.cancel(next_scan_);
  // Cancel in start (= ascending id) order: FlowManager::cancel
  // reallocates the remaining flows, so the sequence is observable.
  for (const InFlight& r : in_flight_) flows_.cancel(r.id);
  in_flight_.clear();
}

void DataReplicator::on_file_fetched(FileId file, SiteId origin) {
  if (stopped_) return;
  const std::size_t f = file.value();
  grow(files_, f + 1);
  FileState& st = files_[f];
  if (++st.count == params_.popularity_threshold) {
    eligible_.emplace_back();
    sift_up(eligible_.size() - 1, file);
  } else if (st.heap_pos != kNotEligible) {
    sift_up(st.heap_pos, file);  // a count only rises
  }
  if (params_.placement == Placement::kHierarchicalParent &&
      origin.value() < site_info_.size()) {
    grow(group_demand_, (f + 1) * num_groups_);
    ++group_demand_[f * num_groups_ + site_info_[origin.value()].man_group];
  }
}

SiteId DataReplicator::pick_target(FileId file) {
  std::vector<std::size_t>& candidates = candidates_;
  candidates.clear();
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
      const std::size_t row = file.value() * num_groups_;
      if (row < group_demand_.size())
        for (std::uint32_t g = 1; g < num_groups_; ++g)
          if (group_demand_[row + g] > group_demand_[row + best_group])
            best_group = g;
      std::vector<std::size_t>& in_group = in_group_;
      in_group.clear();
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

bool DataReplicator::hotter(FileId a, FileId b) const {
  const std::uint32_t ca = files_[a.value()].count;
  const std::uint32_t cb = files_[b.value()].count;
  return ca != cb ? ca > cb : a < b;
}

void DataReplicator::sift_up(std::size_t i, FileId file) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!hotter(file, eligible_[parent])) break;
    eligible_[i] = eligible_[parent];
    files_[eligible_[i].value()].heap_pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  eligible_[i] = file;
  files_[file.value()].heap_pos = static_cast<std::uint32_t>(i);
}

FileId DataReplicator::pop_hottest() {
  const FileId top = eligible_.front();
  files_[top.value()].heap_pos = kNotEligible;
  const FileId last = eligible_.back();
  eligible_.pop_back();
  const std::size_t n = eligible_.size();
  if (n == 0) return top;
  // Sift `last` down from the root's hole.
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && hotter(eligible_[child + 1], eligible_[child]))
      ++child;
    if (!hotter(eligible_[child], last)) break;
    eligible_[i] = eligible_[child];
    files_[eligible_[i].value()].heap_pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  eligible_[i] = last;
  files_[last.value()].heap_pos = static_cast<std::uint32_t>(i);
  return top;
}

void DataReplicator::scan() {
  if (stopped_) return;
  ++stats_.rounds;

  // Hottest eligible files first: (count desc, id asc), a total order.
  // The round is popped out before it is placed, so a fetch during
  // placement cannot disturb it.
  const auto k = std::min(eligible_.size(), params_.max_replicas_per_round);
  round_.clear();
  for (std::size_t i = 0; i < k; ++i) round_.push_back(pop_hottest());

  for (FileId file : round_) {
    SiteId target = pick_target(file);
    if (!target.valid()) continue;  // everywhere already; never revisit
    storage::DataServer* ds = data_servers_[target.value()];
    // Priced at flow start (only the blocks the target does not already
    // cover ship), and the completion callback books that same amount so
    // the results ledger matches the flow manager byte for byte.
    const Bytes bytes = ds->cache().missing_bytes(file);
    const double moved = static_cast<double>(bytes);
    const FlowId flow =
        flows_.start_flow(file_server_node_, ds->node(), bytes,
                          [this](FlowId id) { on_replica_done(id); });
    in_flight_.push_back(InFlight{flow, ds, file, moved});
  }

  next_scan_ = sim_.schedule_in(params_.check_interval_s, [this] { scan(); });
}

void DataReplicator::on_replica_done(FlowId id) {
  const auto it =
      std::find_if(in_flight_.begin(), in_flight_.end(),
                   [id](const InFlight& r) { return r.id == id; });
  WCS_DCHECK(it != in_flight_.end());
  const InFlight done = *it;
  in_flight_.erase(it);
  // The demand path may have fetched it meanwhile; and a cache
  // momentarily full of pinned files just drops the replica.
  storage::FileCache& cache = done.target->cache();
  if (!cache.contains(done.file)) (void)cache.try_insert(done.file);
  ++stats_.files_replicated;
  stats_.bytes_replicated += done.moved;
}

}  // namespace wcs::replication
