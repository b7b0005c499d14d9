#include "net/tiers.h"

#include <string>

namespace wcs::net {

namespace {

// Jitter a base value by ±rel, multiplicatively.
double jittered(Rng& rng, double base, double rel) {
  return base * rng.uniform_real(1.0 - rel, 1.0 + rel);
}

}  // namespace

GridTopology build_tiers_topology(const TiersParams& p) {
  WCS_CHECK(p.num_sites > 0);
  WCS_CHECK(p.workers_per_site > 0);
  WCS_CHECK(p.sites_per_man > 0);
  WCS_CHECK(p.jitter >= 0 && p.jitter < 1.0);

  Rng rng(p.seed);
  GridTopology out;
  Topology& t = out.topology;

  // --- WAN core ---------------------------------------------------------
  NodeId core = t.add_node("wan-core");
  out.scheduler_node = t.add_node("scheduler");
  out.file_server_node = t.add_node("file-server");
  t.add_link(core, out.scheduler_node, jittered(rng, p.core_bandwidth_bps, p.jitter),
             jittered(rng, p.core_latency_s, p.jitter), "core-scheduler");
  t.add_link(core, out.file_server_node, jittered(rng, p.core_bandwidth_bps, p.jitter),
             jittered(rng, p.core_latency_s, p.jitter), "core-fileserver");

  // --- MAN tier ---------------------------------------------------------
  int num_mans = (p.num_sites + p.sites_per_man - 1) / p.sites_per_man;
  std::vector<NodeId> mans;
  mans.reserve(static_cast<std::size_t>(num_mans));
  for (int m = 0; m < num_mans; ++m) {
    NodeId man = t.add_node("man-" + std::to_string(m));
    t.add_link(core, man, jittered(rng, p.wan_bandwidth_bps, p.jitter),
               jittered(rng, p.wan_latency_s, p.jitter),
               "wan-" + std::to_string(m));
    mans.push_back(man);
  }

  // --- Sites ------------------------------------------------------------
  out.data_server_nodes.reserve(static_cast<std::size_t>(p.num_sites));
  out.worker_nodes.resize(static_cast<std::size_t>(p.num_sites));
  out.site_uplinks.reserve(static_cast<std::size_t>(p.num_sites));
  for (int s = 0; s < p.num_sites; ++s) {
    NodeId man = mans[static_cast<std::size_t>(s / p.sites_per_man)];
    std::string site = "site-" + std::to_string(s);

    NodeId gw = t.add_node(site + "/gateway");
    // MAN segment from the gateway toward the core.
    t.add_link(man, gw, jittered(rng, p.man_bandwidth_bps, p.jitter),
               jittered(rng, p.man_latency_s, p.jitter), site + "/man");
    // The site's shared outgoing link: every host below the switch crosses
    // it to leave the site.
    NodeId sw = t.add_node(site + "/switch");
    LinkId uplink = t.add_link(
        gw, sw, jittered(rng, p.uplink_bandwidth_bps, p.jitter),
        jittered(rng, p.uplink_latency_s, p.jitter), site + "/uplink");
    out.site_uplinks.push_back(uplink);

    NodeId ds = t.add_node(site + "/data-server");
    t.add_link(sw, ds, jittered(rng, p.lan_bandwidth_bps, p.jitter),
               p.lan_latency_s, site + "/lan-ds");
    out.data_server_nodes.push_back(ds);

    auto& workers = out.worker_nodes[static_cast<std::size_t>(s)];
    workers.reserve(static_cast<std::size_t>(p.workers_per_site));
    for (int w = 0; w < p.workers_per_site; ++w) {
      NodeId wn = t.add_node(site + "/worker-" + std::to_string(w));
      t.add_link(sw, wn, jittered(rng, p.lan_bandwidth_bps, p.jitter),
                 p.lan_latency_s, site + "/lan-w" + std::to_string(w));
      workers.push_back(wn);
    }
  }

  // A connected graph with one link fewer than nodes is a tree: every
  // host has exactly one path to every other, which is what lets the
  // control plane read all worker latencies from one scheduler-rooted
  // shortest-path tree.
  WCS_CHECK(t.connected());
  WCS_CHECK_EQ(t.num_links(), t.num_nodes() - 1);
  return out;
}

}  // namespace wcs::net
