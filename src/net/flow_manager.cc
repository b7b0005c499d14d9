#include "net/flow_manager.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

namespace wcs::net {

namespace {
// Below this many bytes a flow is considered done; guards against FP dust
// keeping a flow alive forever.
constexpr double kEpsilonBytes = 1e-6;

// A link is saturated when its flows' rates sum to at least
// capacity * (1 - kSlackMargin), and keeps slack otherwise. A link with
// slack under the rates the fill produces without it is never the
// bottleneck: at a filling round with best share s, every still-unfixed
// flow on it ends at >= s, so its share exceeds s. The margin makes that
// strict despite FP rounding in the fill's capacity subtractions and in
// the load sums (relative errors of order 1e-16 per operation, far below
// 1e-9 at any pool size the grid reaches). It is part of the correctness
// argument, not a tuning knob: a larger margin only floods more often.
constexpr double kSlackMargin = 1e-9;

// Progressive filling (max-min fairness) over `pool`: repeatedly find the
// most constrained link among `links` (smallest per-flow fair share,
// lowest link id among ties, whatever the order of `links`), freeze its
// flows at that share, and subtract their demand from the other links
// they cross. caps/crossing are dense per-link tables the caller seeded
// for every link in `links`; rates[i] receives pool[i]'s share.
// `unfixed` is caller-provided worklist scratch.
//
// The result does not depend on the order of `pool` either: a round
// subtracts the same share once per frozen flow, and the bottleneck
// choice reads only per-link totals. Running this over a certified
// component (see flow_manager.h) therefore assigns its flows bitwise
// the shares a full-pool run would.
template <typename FlowPtr>
void progressive_fill(const std::vector<FlowPtr>& pool,
                      const std::vector<LinkId>& links,
                      std::vector<double>& caps, std::vector<int>& crossing,
                      std::vector<std::size_t>& unfixed,
                      std::vector<double>& rates) {
  rates.assign(pool.size(), 0);
  unfixed.resize(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) unfixed[i] = i;

  while (!unfixed.empty()) {
    double best_share = std::numeric_limits<double>::infinity();
    LinkId::underlying_type best_link = 0;
    bool found = false;
    for (LinkId lid : links) {
      int n = crossing[lid.value()];
      if (n <= 0) continue;
      double share = caps[lid.value()] / n;
      if (share < best_share ||
          (found && share == best_share && lid.value() < best_link)) {
        best_share = share;
        best_link = lid.value();
        found = true;
      }
    }
    WCS_CHECK(found);

    // Freeze every unfixed flow crossing the bottleneck at best_share;
    // compact survivors in place.
    std::size_t kept = 0;
    for (std::size_t idx : unfixed) {
      const auto& route = pool[idx]->route;
      bool hits = std::find_if(route.begin(), route.end(), [&](const auto& h) {
                    return h.link.value() == best_link;
                  }) != route.end();
      if (!hits) {
        unfixed[kept++] = idx;
        continue;
      }
      rates[idx] = best_share;
      for (const auto& h : route) {
        caps[h.link.value()] -= best_share;
        if (caps[h.link.value()] < 0) caps[h.link.value()] = 0;
        --crossing[h.link.value()];
      }
    }
    unfixed.resize(kept);
  }
}
}  // namespace

FlowManager::FlowManager(sim::Simulator& simulator, const Topology& topology)
    : sim_(simulator), topo_(topology),
      link_bytes_(topology.num_links(), 0),
      links_(topology.num_links()),
      link_cap_(topology.num_links(), 0),
      link_crossing_(topology.num_links(), 0) {
  for (std::size_t l = 0; l < links_.size(); ++l)
    links_[l].capacity =
        topo_.link(LinkId(static_cast<LinkId::underlying_type>(l)))
            .bandwidth_bps;
}

void FlowManager::set_observability(obs::Observability* o) {
  tracer_ = o ? o->tracer() : nullptr;
  profiler_ = o ? o->profiler() : nullptr;
}

FlowId FlowManager::start_flow(NodeId src, NodeId dst, Bytes bytes,
                               FlowCallback on_complete) {
  const FlowId id(slot_of_.size());
  Flow& f = acquire(id);
  // Copy the links into the flow's own hops (each hop also carries the
  // flow's node in that link's member list).
  const Route& route = topo_.route(src, dst);
  f.route.resize(route.size());
  for (std::size_t i = 0; i < route.size(); ++i) f.route[i].link = route[i];
  f.total = static_cast<double>(bytes);
  f.remaining = f.total;
  bytes_started_ += f.total;
  f.on_complete = std::move(on_complete);
  f.started = sim_.now();
  f.last_update = sim_.now();
  f.dst = dst;
  f.pending_event = sim_.schedule_in(topo_.path_latency(src, dst),
                                     [this, id] { activate(id); });
  return id;
}

FlowManager::Flow* FlowManager::find(FlowId id) {
  return const_cast<Flow*>(std::as_const(*this).find(id));
}

const FlowManager::Flow* FlowManager::find(FlowId id) const {
  if (id.value() >= slot_of_.size()) return nullptr;
  const std::uint32_t slot = slot_of_[id.value()];
  return slot == kNoSlot ? nullptr : &slots_[slot];
}

bool FlowManager::live(std::size_t slot) const {
  const std::uint64_t id = slots_[slot].id.value();
  return id < slot_of_.size() && slot_of_[id] == slot;
}

FlowManager::Flow& FlowManager::acquire(FlowId id) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slot_of_.push_back(slot);
  Flow& f = slots_[slot];
  std::vector<Hop> route = std::move(f.route);
  f = Flow{};
  f.route = std::move(route);
  f.id = id;
  return f;
}

void FlowManager::release(Flow& f) {
  std::uint32_t& slot = slot_of_[f.id.value()];
  free_slots_.push_back(slot);
  slot = kNoSlot;
  f.on_complete = nullptr;  // drop a cancelled flow's captures now
}

void FlowManager::activate(FlowId id) {
  Flow* fp = find(id);
  WCS_CHECK(fp != nullptr);
  Flow& f = *fp;
  f.active = true;
  f.pending_event = EventId::invalid();
  f.last_update = sim_.now();
  if (f.remaining <= kEpsilonBytes || f.route.empty()) {
    // Zero-byte transfer, or an intra-node transfer: instantaneous once
    // latency has been paid. It never joins the pool.
    complete(id);
    return;
  }
  join_pool(f);
  reallocate(&f, {}, 0);
}

void FlowManager::complete(FlowId id) {
  Flow* fp = find(id);
  WCS_CHECK(fp != nullptr);
  Flow& f = *fp;
  // Credit the final stretch since the last settle to the link counters
  // before the flow disappears.
  if (f.active && f.rate > 0) {
    double moved = unsettled_bytes(f, sim_.now());
    for (const Hop& h : f.route) link_bytes_[h.link.value()] += moved;
  }
  FlowCallback cb = std::move(f.on_complete);
  bytes_delivered_ += f.total;
  if (tracer_) {
    obs::TraceSpan span;
    span.start = f.started;
    span.duration_s = sim_.now() - f.started;
    span.kind = obs::SpanKind::kTransfer;
    span.track = f.dst.valid() ? f.dst.value() : 0;
    span.bytes = f.total;
    tracer_->record(span);
  }
  // A draining flow already left the sharing pool when its rate was
  // zeroed; its links were rebalanced then, so its disappearance now
  // cannot change any rate.
  const bool shared = f.active && !f.draining;
  const double rate = f.rate;
  if (f.pooled) leave_pool(f);
  ++completed_;
  if (shared) reallocate(nullptr, f.route, rate);
  release(f);
  if (cb) cb(id);
}

bool FlowManager::cancel(FlowId id) {
  Flow* fp = find(id);
  if (fp == nullptr) return false;
  Flow& f = *fp;
  if (f.pending_event.valid()) sim_.cancel(f.pending_event);
  // Settle the bytes this flow moved so link statistics stay accurate.
  if (f.active && f.rate > 0) {
    double moved = unsettled_bytes(f, sim_.now());
    for (const Hop& h : f.route) link_bytes_[h.link.value()] += moved;
  }
  const bool shared = f.active && !f.draining;
  const double rate = f.rate;
  if (f.pooled) leave_pool(f);
  ++cancelled_;
  if (shared) reallocate(nullptr, f.route, rate);
  release(f);
  return true;
}

double FlowManager::unsettled_bytes(const Flow& f, SimTime now) const {
  double moved = f.rate * (now - f.last_update);
  return std::min(moved, f.remaining);
}

audit::FlowAuditSnapshot FlowManager::audit_snapshot() const {
  audit::FlowAuditSnapshot snap;
  snap.bytes_started = bytes_started_;
  snap.bytes_delivered = bytes_delivered_;
  snap.flows_completed = completed_;
  snap.flows_cancelled = cancelled_;
  const SimTime now = sim_.now();

  snap.links.reserve(topo_.num_links());
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    const Link& link = topo_.link(LinkId(static_cast<LinkId::underlying_type>(l)));
    audit::LinkUsage usage;
    usage.name = link.name.empty() ? ("link#" + std::to_string(l)) : link.name;
    usage.capacity_bps = link.bandwidth_bps;
    snap.links.push_back(std::move(usage));
  }

  // Canonical order: flows sorted by id. The snapshot is audit-only,
  // but defect messages and per-link FP sums should not depend on which
  // slots the flows reuse.
  std::vector<const Flow*> ordered;
  ordered.reserve(active_flows());
  for (std::size_t s = 0; s < slots_.size(); ++s)
    if (live(s)) ordered.push_back(&slots_[s]);
  std::sort(ordered.begin(), ordered.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });

  snap.flows.reserve(ordered.size());
  for (const Flow* fp : ordered) {
    const Flow& f = *fp;
    audit::FlowProgress p;
    p.id = f.id.value();
    p.total_bytes = f.total;
    // Flows settle lazily (only on rate change); project the stored
    // progress forward to now so the ledger laws see the fluid state.
    p.remaining_bytes = f.active && f.rate > 0
                            ? f.remaining - unsettled_bytes(f, now)
                            : f.remaining;
    p.rate_bps = f.active ? f.rate : 0;
    p.active = f.active;
    snap.flows.push_back(p);
    if (!f.active) continue;
    for (const Hop& h : f.route) {
      snap.links[h.link.value()].allocated_bps += f.rate;
      ++snap.links[h.link.value()].flows;
    }
  }
  return snap;
}

audit::FlowRatesSnapshot FlowManager::audit_rates_snapshot() const {
  audit::FlowRatesSnapshot snap;
  snap.label = "flow manager";

  // The one from-scratch oracle: the whole pool, every link it crosses.
  // Local (non-hoisted) buffers and the flow table rather than the
  // member lists: the audit path must leave the manager untouched so
  // audited runs stay byte-identical, and must not trust the structures
  // it checks.
  std::vector<const Flow*> pool;
  pool.reserve(active_flows());
  for (std::size_t s = 0; s < slots_.size(); ++s)
    if (live(s) && slots_[s].active && !slots_[s].draining)
      pool.push_back(&slots_[s]);
  std::sort(pool.begin(), pool.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });

  std::vector<LinkId> links;
  std::vector<double> caps(topo_.num_links(), 0);
  std::vector<int> crossing(topo_.num_links(), 0);
  for (const Flow* f : pool) {
    for (const Hop& h : f->route) {
      if (crossing[h.link.value()] == 0) {
        links.push_back(h.link);
        caps[h.link.value()] = topo_.link(h.link).bandwidth_bps;
      }
      ++crossing[h.link.value()];
    }
  }

  std::vector<std::size_t> unfixed;
  std::vector<double> rates;
  progressive_fill(pool, links, caps, crossing, unfixed, rates);

  snap.flows.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    audit::FlowRateEntry e;
    e.id = pool[i]->id.value();
    e.stored_bps = pool[i]->rate;
    e.recomputed_bps = rates[i];
    snap.flows.push_back(e);
  }
  return snap;
}

double FlowManager::flow_rate(FlowId id) const {
  const Flow* f = find(id);
  return f != nullptr && f->active ? f->rate : 0;
}

std::vector<std::string> FlowManager::memory_defects() const {
  std::vector<std::string> defects;
  auto defect = [&defects](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    defects.push_back(os.str());
  };
  // id -> slot -> id, counting the live ids.
  std::size_t live_ids = 0;
  for (std::size_t id = 0; id < slot_of_.size(); ++id) {
    const std::uint32_t slot = slot_of_[id];
    if (slot == kNoSlot) continue;
    ++live_ids;
    if (slot >= slots_.size()) {
      defect("flow ", id, " maps to slot ", slot, " past the ",
             slots_.size(), " slots");
    } else if (slots_[slot].id.value() != id) {
      defect("flow ", id, " maps to slot ", slot, " holding flow ",
             slots_[slot].id.value());
    }
  }
  // The free stack: in range, each slot once, none live.
  std::vector<bool> is_free(slots_.size(), false);
  for (const std::uint32_t slot : free_slots_) {
    if (slot >= slots_.size()) {
      defect("free slot ", slot, " past the ", slots_.size(), " slots");
    } else if (is_free[slot]) {
      defect("slot ", slot, " freed twice");
    } else {
      is_free[slot] = true;
      if (live(slot))
        defect("slot ", slot, " is live and on the free stack");
    }
  }
  // slot -> id -> slot over the occupied slots, whose count is the live
  // count.
  std::size_t occupied = 0;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (is_free[slot]) continue;
    ++occupied;
    if (!live(slot))
      defect("occupied slot ", slot, " holds flow ", slots_[slot].id.value(),
             " whose index entry is not that slot");
  }
  if (live_ids != occupied)
    defect(live_ids, " live flows but ", occupied, " occupied slots");
  return defects;
}

void FlowManager::join_pool(Flow& f) {
  f.pooled = true;
  for (Hop& h : f.route) {
    LinkState& s = links_[h.link.value()];
    h.flow = &f;
    h.prev = nullptr;
    h.next = s.members;
    if (s.members != nullptr) s.members->prev = &h;
    s.members = &h;
    ++s.count;
  }
}

void FlowManager::leave_pool(Flow& f) {
  f.pooled = false;
  for (Hop& h : f.route) {
    LinkState& s = links_[h.link.value()];
    if (h.prev != nullptr) {
      h.prev->next = h.next;
    } else {
      s.members = h.next;
    }
    if (h.next != nullptr) h.next->prev = h.prev;
    h.prev = h.next = nullptr;
    --s.count;
  }
}

double FlowManager::link_load(const LinkState& s) const {
  double load = 0;
  for (const Hop* h = s.members; h != nullptr; h = h->next)
    load += h->flow->rate;
  return load;
}

bool FlowManager::saturated(const LinkState& s, double load) const {
  return load >= s.capacity * (1 - kSlackMargin);
}

void FlowManager::begin_component() {
  ++epoch_;
  component_.clear();
  reached_.clear();
  flood_queue_.clear();
}

void FlowManager::reach_link(LinkId lid, double extra) {
  LinkState& s = links_[lid.value()];
  if (s.seen == epoch_) return;
  s.seen = epoch_;
  s.in_component = 0;
  reached_.push_back(lid);
  if (saturated(s, link_load(s) + extra)) flood_queue_.push_back(lid);
}

void FlowManager::flood_link(LinkId lid) {
  LinkState& s = links_[lid.value()];
  if (s.seen != epoch_) {
    s.seen = epoch_;
    s.in_component = 0;
    reached_.push_back(lid);
  }
  flood_queue_.push_back(lid);
}

void FlowManager::add_to_component(Flow& f) {
  if (f.mark == epoch_) return;
  f.mark = epoch_;
  component_.push_back(&f);
  for (const Hop& h : f.route) {
    reach_link(h.link, 0);
    ++links_[h.link.value()].in_component;
  }
}

void FlowManager::flood() {
  while (!flood_queue_.empty()) {
    LinkState& s = links_[flood_queue_.back().value()];
    flood_queue_.pop_back();
    if (s.flooded == epoch_) continue;
    s.flooded = epoch_;
    for (Hop* h = s.members; h != nullptr; h = h->next)
      add_to_component(*h->flow);
  }
}

void FlowManager::close_component() {
  // A full link's members are all in the component, and taking in more
  // flows never adds members to it, so one pass (over a growing list)
  // leaves every component flow on a full link.
  for (std::size_t i = 0; i < component_.size(); ++i) {
    const Flow& f = *component_[i];
    const bool on_full = std::any_of(
        f.route.begin(), f.route.end(), [&](const Hop& h) {
          const LinkState& s = links_[h.link.value()];
          return s.in_component == s.count;
        });
    if (on_full) continue;
    for (const Hop& h : f.route) flood_link(h.link);
    flood();
  }
  fill_links_.clear();
  dropped_links_.clear();
  for (LinkId lid : reached_) {
    const LinkState& s = links_[lid.value()];
    if (s.in_component == 0) continue;
    (s.in_component == s.count ? fill_links_ : dropped_links_).push_back(lid);
  }
}

bool FlowManager::certify_dropped_links() {
  bool certified = true;
  for (LinkId lid : dropped_links_) {
    const LinkState& s = links_[lid.value()];
    double load = 0;
    for (const Hop* h = s.members; h != nullptr; h = h->next)
      load += h->flow->mark == epoch_ ? h->flow->fill_rate : h->flow->rate;
    if (saturated(s, load)) {
      flood_link(lid);
      certified = false;
    }
  }
  if (!certified) {
    flood();
    close_component();
  }
  return certified;
}

void FlowManager::fill_component() {
  for (LinkId lid : fill_links_) {
    const LinkState& s = links_[lid.value()];
    link_cap_[lid.value()] = s.capacity;
    link_crossing_[lid.value()] = static_cast<int>(s.in_component);
  }
  progressive_fill(component_, fill_links_, link_cap_, link_crossing_,
                   realloc_unfixed_, component_rates_);
  for (std::size_t i = 0; i < component_.size(); ++i)
    component_[i]->fill_rate = component_rates_[i];
}

bool FlowManager::apply_component() {
  const SimTime now = sim_.now();
  // Apply in canonical id order. A flow whose share is unchanged keeps
  // its progress, its last_update, and its scheduled completion event,
  // so the settle/schedule (and event-id) sequence is exactly the one a
  // from-scratch fill implies: it, too, changes only these flows' rates.
  std::sort(component_.begin(), component_.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
  drained_links_.clear();
  for (Flow* fp : component_) {
    Flow& f = *fp;
    const double new_rate = f.fill_rate;
    if (new_rate == f.rate) continue;
    if (f.rate > 0) {
      double moved = unsettled_bytes(f, now);
      f.remaining -= moved;
      for (const Hop& h : f.route) link_bytes_[h.link.value()] += moved;
    }
    f.last_update = now;
    f.rate = new_rate;
    SimTime delay = 0;
    if (f.remaining <= kEpsilonBytes) {
      // Finished within FP dust of this instant: complete now-ish and
      // release the flow's share for the next round.
      f.rate = 0;
      f.draining = true;
      leave_pool(f);
      for (const Hop& h : f.route) drained_links_.push_back(h.link);
    } else {
      WCS_CHECK_MSG(f.rate > 0, "active flow with zero rate");
      delay = f.remaining / f.rate;
    }
    // A pooled flow's pending event is its completion (activate() clears
    // the latency event before the flow joins), so it moves in place.
    if (!sim_.reschedule(f.pending_event, now + delay)) {
      const FlowId fid = f.id;
      f.pending_event = sim_.schedule_in(delay, [this, fid] { complete(fid); });
    }
  }
  return !drained_links_.empty();
}

void FlowManager::reallocate(Flow* joined, const std::vector<Hop>& left,
                             double left_rate) {
  // Discovery and certification are charged to kFlowDirtySet, fill and
  // apply to kFlowRebalance; each round is one call of each phase however
  // often the certificate sends it back to the fill.
  obs::PhaseSequence phases(profiler_);
  phases.enter(obs::Phase::kFlowDirtySet);
  begin_component();
  if (joined != nullptr) {
    add_to_component(*joined);
  } else {
    for (const Hop& h : left) reach_link(h.link, left_rate);
  }
  flood();
  close_component();

  // One round per drain wave: applying new rates can find flows whose
  // remaining hit zero (simultaneous completions). They leave the pool at
  // once, and their links seed the next round, flooded unconditionally.
  // Each round retires at least one flow, so the loop terminates.
  while (true) {
    bool new_call = true;
    do {
      phases.enter(obs::Phase::kFlowRebalance, new_call);
      new_call = false;
      fill_component();
      phases.enter(obs::Phase::kFlowDirtySet, /*new_call=*/false);
    } while (!certify_dropped_links());
    phases.enter(obs::Phase::kFlowRebalance, /*new_call=*/false);
    if (!apply_component()) break;

    phases.enter(obs::Phase::kFlowDirtySet);
    begin_component();
    for (LinkId lid : drained_links_) flood_link(lid);
    flood();
    close_component();
  }
}

}  // namespace wcs::net
