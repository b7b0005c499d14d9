// Flow-level network simulation with max-min fair bandwidth sharing.
//
// This reproduces the essential behaviour of SimGrid's fluid TCP model:
// each active transfer is a flow along a fixed route; whenever the set of
// active flows changes, link bandwidth is re-divided among flows by
// progressive filling (max-min fairness) and each flow's completion event
// is rescheduled for its new rate.
//
// Reallocation refills only a SATURATION-CERTIFIED component of the
// flow<->link sharing graph. Every link threads the bandwidth-sharing
// flows that cross it into an intrusive member list. A flow joining or
// leaving the pool seeds a flood from its route, and the flood passes
// only through links that were saturated before the event (a departing
// flow's own rate counted). Links whose members all lie in the component
// ("full" links) form the fill; a component flow crossing no full link
// has its whole route flooded. Progressive filling runs over the
// component, and every link it shares with outside flows ("dropped"
// links) must then keep slack under the new rates:
// sum of rates < capacity * (1 - kSlackMargin). A link that fails is
// flooded and the fill repeats.
//
// Why a certified drop is exact: if a link keeps slack under the rates
// the fill produces without it, then at every filling round with best
// share s each still-unfixed flow on it ends at a rate >= s, so the
// link's own share stays strictly above s and it is never chosen as the
// bottleneck; its capacity influences nothing. The links the flood did
// not cross were unsaturated before the event, so by the same argument
// the rates outside the component are still a max-min fill of their own
// flows. Inside the component the rates therefore equal a from-scratch
// progressive fill over the whole pool, bitwise (the fill breaks ties by
// (share, link id), independent of scan order). A flow is settled —
// progress credited, completion event rescheduled — only when its rate
// actually changed, so the settle/schedule sequence is the one the
// from-scratch fill implies. tests/test_flow_incremental.cc checks every
// live rate bitwise against that fill (audit_rates_snapshot(), the one
// oracle) after every operation; the `flow-rates` audit checker does the
// same at every audit epoch.
//
// Latency is charged once per flow, up front: a flow spends
// path_latency(src, dst) in a "connecting" phase during which it consumes
// no bandwidth, then joins the bandwidth-sharing pool.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "net/topology.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace wcs::net {

using FlowCallback = std::function<void(FlowId)>;

class FlowManager {
 public:
  FlowManager(sim::Simulator& simulator, const Topology& topology);

  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  // Attach instruments (nullptr detaches). Read-only: tracing a transfer
  // or timing a reallocation never changes rates, order, or events.
  void set_observability(obs::Observability* o);

  // Start a transfer of `bytes` from src to dst; `on_complete` fires when
  // the last byte arrives. Zero-byte flows complete after path latency.
  FlowId start_flow(NodeId src, NodeId dst, Bytes bytes,
                    FlowCallback on_complete);

  // Abort an in-progress flow; its callback never fires. Returns false if
  // the flow already completed (or never existed). Bytes already moved
  // stay counted in the link statistics.
  bool cancel(FlowId id);

  [[nodiscard]] std::size_t active_flows() const {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::uint64_t completed_flows() const { return completed_; }
  [[nodiscard]] std::uint64_t cancelled_flows() const { return cancelled_; }

  // Delivery ledger: total payload bytes of flows ever started, and of
  // flows that ran to completion (a completed flow delivered its full
  // size by definition). Cancelled flows never enter `bytes_delivered`.
  [[nodiscard]] double bytes_started() const { return bytes_started_; }
  [[nodiscard]] double bytes_delivered() const { return bytes_delivered_; }

  // Read-only state snapshot for the invariant auditor: per-link
  // allocation vs capacity, per-flow byte progress, and the delivery
  // ledger (audit::check_flow_conservation). Progress is settled
  // on-the-fly to now(): flows are only byte-settled when their rate
  // changes, so the stored `remaining` lags the fluid model between rate
  // changes.
  [[nodiscard]] audit::FlowAuditSnapshot audit_snapshot() const;

  // Stored per-flow rates next to a from-scratch progressive-filling
  // recompute over the same pool (audit::check_flow_rates). The live
  // rates must match the recompute bitwise — this is the invariant the
  // certified-component reallocation rests on, and the one oracle both
  // the auditor and the differential tests use.
  [[nodiscard]] audit::FlowRatesSnapshot audit_rates_snapshot() const;

  // Bytes carried by each link so far (including partial transfers of
  // cancelled flows). Settled at rate changes and flow completion, like
  // `remaining`.
  [[nodiscard]] double link_bytes(LinkId id) const {
    return link_bytes_.at(id.value());
  }

  // Current max-min fair rate of a flow, bytes/second. 0 while the flow is
  // still in its latency phase. Primarily for tests.
  [[nodiscard]] double flow_rate(FlowId id) const;

  // Slot-table self-check for the `memory-layout` audit checker: the
  // live count equals the number of occupied slots, the id -> slot index
  // and each occupied slot's id agree, and no slot is both live and on
  // the free stack, or on the free stack twice. Empty when sound.
  [[nodiscard]] std::vector<std::string> memory_defects() const;

 private:
  struct Flow;

  // One link of a flow's route, threaded into that link's member list
  // (intrusive and doubly linked) while the flow shares bandwidth. The
  // list nodes live in the route itself, so pool membership costs no
  // allocation.
  struct Hop {
    LinkId link;
    Flow* flow = nullptr;
    Hop* prev = nullptr;
    Hop* next = nullptr;
  };

  struct Flow {
    FlowId id;
    std::vector<Hop> route;  // empty for same-node transfers
    double total = 0;        // payload size at start_flow()
    double remaining = 0;    // bytes left as of last_update (fluid model)
    double rate = 0;         // current allocation, bytes/s
    double fill_rate = 0;    // the component fill's rate (scratch)
    SimTime started = 0;     // when start_flow() was called
    SimTime last_update = 0; // when `remaining` was last settled
    NodeId dst;              // receiving node (trace track)
    bool active = false;     // false during the latency phase
    bool draining = false;   // remaining hit zero; completion is imminent
                             // and the flow no longer shares bandwidth
    bool pooled = false;     // threaded into its links' member lists
    std::uint64_t mark = 0;  // component epoch stamp (scratch)
    EventId pending_event;   // activation or completion event
    FlowCallback on_complete;
  };

  // Per-link pool state, indexed by dense link id and sized from the
  // topology at construction.
  struct LinkState {
    double capacity = 0;         // bandwidth, bytes/s
    Hop* members = nullptr;      // head of the member list
    std::uint32_t count = 0;     // flows in the member list
    std::uint32_t in_component = 0;  // of those, in the component
    std::uint64_t seen = 0;      // epoch the link was first reached
    std::uint64_t flooded = 0;   // epoch all members joined the component
  };

  void activate(FlowId id);
  void complete(FlowId id);

  // The live flow with this id, or nullptr once it has finished.
  [[nodiscard]] Flow* find(FlowId id);
  [[nodiscard]] const Flow* find(FlowId id) const;
  // True when `slot` holds a live flow (it is not on the free stack).
  [[nodiscard]] bool live(std::size_t slot) const;
  // Take a free slot (or a new one) for a new flow id; everything but the
  // route's capacity is reset. release() returns a finished flow's slot.
  Flow& acquire(FlowId id);
  void release(Flow& f);

  // Thread a flow into (or out of) its links' member lists.
  void join_pool(Flow& f);
  void leave_pool(Flow& f);

  // Rebalance after the sharing pool changed: `joined` entered it, or a
  // flow with route `left` and rate `left_rate` departed. Runs rounds of
  // component discovery, fill, certification and apply until no flow
  // drains at this instant.
  void reallocate(Flow* joined, const std::vector<Hop>& left,
                  double left_rate);

  // Component discovery (Phase::kFlowDirtySet). begin_component() opens a
  // new epoch; add_to_component() takes a flow in and reaches its links;
  // reach_link() evaluates a link once per epoch and queues it for
  // flooding when it was saturated (counting `extra` bytes/s of a
  // departed flow); flood_link() queues it unconditionally; flood()
  // drains the queue, taking in every member of each queued link.
  void begin_component();
  void add_to_component(Flow& f);
  void reach_link(LinkId lid, double extra);
  void flood_link(LinkId lid);
  void flood();
  // Widen until every component flow crosses a full link, then list the
  // fill links and the dropped links.
  void close_component();
  // True when every dropped link keeps slack under the fill's rates;
  // otherwise floods the links that do not and closes the component.
  bool certify_dropped_links();

  // Fill the component (Phase::kFlowRebalance) into Flow::fill_rate.
  void fill_component();
  // Settle and reschedule every component flow whose rate changed, in id
  // order. Returns true when some flow drained, seeding another round
  // from drained_links_.
  bool apply_component();

  [[nodiscard]] double link_load(const LinkState& s) const;
  [[nodiscard]] bool saturated(const LinkState& s, double load) const;

  // Progress credited since the flow's last settle at its current rate.
  [[nodiscard]] double unsettled_bytes(const Flow& f, SimTime now) const;

  sim::Simulator& sim_;
  const Topology& topo_;

  // The flow table. Growing a deque at its end never moves the existing
  // slots, so Hop pointers into a pooled flow's route stay valid. A
  // finished flow's slot goes on the free stack and a later start_flow()
  // reuses it, route capacity included, so warm flow churn allocates
  // nothing. slot_of_ maps every id ever started (ids are the dense start
  // sequence) to its slot, or kNoSlot once the flow has finished.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  std::deque<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_of_;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  double bytes_started_ = 0;
  double bytes_delivered_ = 0;
  std::vector<double> link_bytes_;
  std::vector<LinkState> links_;

  // reallocate() scratch, hoisted so the steady state runs
  // allocation-free: the component (id-sorted before apply), the links
  // it reached, the flood queue, the fill and dropped link lists, the
  // fill's rate vector and worklist, flat per-link capacity/crossing
  // tables the fill consumes, and the links of flows that drained.
  std::vector<Flow*> component_;
  std::vector<LinkId> reached_;
  std::vector<LinkId> flood_queue_;
  std::vector<LinkId> fill_links_;
  std::vector<LinkId> dropped_links_;
  std::vector<double> component_rates_;
  std::vector<std::size_t> realloc_unfixed_;
  std::vector<double> link_cap_;
  std::vector<int> link_crossing_;
  std::vector<LinkId> drained_links_;
  std::uint64_t epoch_ = 0;

  // Observability (all null when disabled).
  obs::EventTracer* tracer_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
};

}  // namespace wcs::net
