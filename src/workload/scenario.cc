#include "workload/scenario.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "proto/registry.h"
#include "proto/transport_profile.h"
#include "sim/dcheck.h"
#include "sim/parallel.h"
#include "topo/builder.h"
#include "topo/partition.h"
#include "workload/endpoint_table.h"

namespace pase::workload {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Adapts DetLineage::less to the plain-function comparator obs:: expects
// (the obs layer cannot include sim/).
bool lineage_less(const void* ctx, std::uint64_t a, std::uint64_t b) {
  return static_cast<const sim::DetLineage*>(ctx)->less(a, b);
}

// Aggregate counters every run exports, independent of execution mode.
void fold_common_metrics(obs::MetricsRegistry& reg, const ScenarioResult& r,
                         topo::BuiltTopology& built) {
  std::uint64_t drops = 0, marks = 0, enqueues = 0;
  built.topo().for_each_queue([&](net::Queue& q) {
    drops += q.drops();
    marks += q.marks();
    enqueues += q.enqueues();
  });
  reg.counter("fabric.drops") = drops;
  reg.counter("fabric.marks") = marks;
  reg.counter("fabric.enqueues") = enqueues;
  reg.counter("flows.total") = r.total_flows();
  reg.counter("flows.unfinished") = r.unfinished();
  reg.counter("packets.data_sent") = r.data_packets_sent;
  reg.counter("packets.probes_sent") = r.probes_sent;
  reg.counter("control.messages_sent") = r.control.messages_sent;
  reg.counter("control.arbitrations") = r.control.arbitrations;
  reg.counter("engine.heap_closure_events") = r.heap_closure_events;
  reg.counter("endpoint.slab_grow_events") = r.slab_grow_events;
  reg.counter("endpoint.peak_live_flows") = r.peak_live_flows;
  reg.gauge("engine.workers") = r.workers_used;
  reg.gauge("time.end") = r.end_time;
  // Core-tier load balance (topologies with a core tier only): max/mean
  // bytes over the core-facing links. ~1.0 means the per-flow ECMP hash is
  // spreading load evenly; deterministic, so safe in sweep JSON.
  const std::vector<net::Link*> core = built.core_links();
  if (!core.empty()) {
    std::uint64_t total_bytes = 0, max_bytes = 0;
    for (const net::Link* l : core) {
      total_bytes += l->bytes_sent();
      max_bytes = std::max(max_bytes, l->bytes_sent());
    }
    const double mean = static_cast<double>(total_bytes) /
                        static_cast<double>(core.size());
    reg.counter("fabric.core_links") = core.size();
    reg.gauge("fabric.core_link_max_bytes") = static_cast<double>(max_bytes);
    reg.gauge("fabric.core_link_imbalance") =
        mean > 0.0 ? static_cast<double>(max_bytes) / mean : 0.0;
  }
  // Route-table footprint across the fabric: the scale benches gate on
  // bytes/switch staying sublinear in host count (compressed structural
  // routes). Deterministic — a pure function of the built topology.
  std::uint64_t route_bytes = 0;
  for (const auto& sw : built.topo().switches()) {
    route_bytes += sw->route_state_bytes();
  }
  reg.counter("fabric.switches") = built.topo().switches().size();
  reg.counter("fabric.route_table_bytes") = route_bytes;
  // setup_wall_sec intentionally stays out of the registry: the metrics
  // snapshot is serialized into sweep JSON, which must be deterministic.
  if (r.trace) reg.counter("trace.dropped") = r.trace->dropped;
}

// Self-profiler fold (--profile): dispatch mix, per-labeled-handler counts,
// calendar scan statistics, pending-event high-water mark and switch
// path-cache hit rates. Every input is deterministic (event counts and
// structural state, no wall clocks), so the profile.* entries are safe in
// sweep JSON. A parallel run passes one simulator per domain; counts sum.
void fold_profile_metrics(obs::MetricsRegistry& reg,
                          const std::vector<const sim::Simulator*>& doms,
                          topo::BuiltTopology& built) {
  std::uint64_t raw = 0, inl = 0, heap = 0, unlabeled = 0;
  std::uint64_t walks = 0, scan_sum = 0, scan_max = 0, peak = 0;
  for (const sim::Simulator* s : doms) {
    raw += s->profile_raw_dispatches();
    inl += s->profile_inline_dispatches();
    heap += s->profile_heap_dispatches();
    unlabeled += s->profile_unlabeled_dispatches();
    walks += s->profile_top_walks();
    scan_sum += s->profile_scan_sum();
    scan_max = std::max(scan_max, s->profile_scan_max());
    peak += s->profile_peak_pending();
    for (const auto& [label, count] : s->profiled_fn_counts()) {
      reg.counter(std::string("profile.engine.dispatch.") + label) += count;
    }
  }
  reg.counter("profile.engine.dispatch.raw") = raw;
  reg.counter("profile.engine.dispatch.inline_closure") = inl;
  reg.counter("profile.engine.dispatch.heap_closure") = heap;
  reg.counter("profile.engine.dispatch.raw_unlabeled") = unlabeled;
  reg.counter("profile.engine.top_walks") = walks;
  reg.gauge("profile.engine.scan_mean") =
      walks > 0 ? static_cast<double>(scan_sum) / static_cast<double>(walks)
                : 0.0;
  reg.counter("profile.engine.scan_max") = scan_max;
  reg.counter("profile.engine.peak_pending") = peak;
  std::uint64_t hits = 0, misses = 0;
  for (const auto& sw : built.topo().switches()) {
    hits += sw->path_cache_hits();
    misses += sw->path_cache_misses();
  }
  reg.counter("profile.switch.path_cache_hits") = hits;
  reg.counter("profile.switch.path_cache_misses") = misses;
  reg.gauge("profile.switch.path_cache_hit_rate") =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
}

// Applies scenario-level switch knobs once the topology is built: currently
// just the per-flow path-memo capacity (see ScenarioConfig::path_cache_entries;
// 0 disables the memo). Selections are identical at any capacity, so this
// never perturbs goldens.
void apply_switch_tuning(topo::BuiltTopology& built, const ScenarioConfig& cfg) {
  for (const auto& sw : built.topo().switches()) {
    sw->set_path_cache_capacity(cfg.path_cache_entries);
  }
}

const proto::TransportProfile& resolve_profile(const ScenarioConfig& cfg) {
  if (!cfg.profile_name.empty()) {
    if (const proto::TransportProfile* p =
            proto::profile_for(cfg.profile_name)) {
      return *p;
    }
    throw std::invalid_argument("unknown transport profile '" +
                                cfg.profile_name + "'");
  }
  return proto::profile_for(cfg.protocol);
}

std::unique_ptr<topo::TopologyBuilder> topology_builder(
    const ScenarioConfig& cfg) {
  if (cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    return std::make_unique<topo::SingleRackBuilder>(cfg.rack);
  }
  if (cfg.topology == ScenarioConfig::TopologyKind::kFatTree) {
    return std::make_unique<topo::FatTreeBuilder>(cfg.fattree);
  }
  return std::make_unique<topo::ThreeTierBuilder>(cfg.tree);
}

[[noreturn]] void bad_config(const std::string& what) {
  throw std::invalid_argument("invalid scenario config: " + what);
}

// Generic (profile-independent) sanity checks.
void validate_generic(const ScenarioConfig& cfg) {
  if (!(cfg.max_duration > 0.0)) {
    bad_config("max_duration must be positive, got " +
               std::to_string(cfg.max_duration));
  }
  if (cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    if (cfg.rack.num_hosts < 2) {
      bad_config("single-rack topology needs at least 2 hosts, got " +
                 std::to_string(cfg.rack.num_hosts));
    }
    if (!(cfg.rack.host_rate_bps > 0.0)) {
      bad_config("rack.host_rate_bps must be positive");
    }
  } else if (cfg.topology == ScenarioConfig::TopologyKind::kFatTree) {
    const topo::FatTreeConfig& ft = cfg.fattree;
    if (ft.k < 2 || ft.k % 2 != 0) {
      bad_config("fat-tree radix k must be even and at least 2, got " +
                 std::to_string(ft.k));
    }
    if (ft.num_pods < 0 || ft.pods() > ft.k) {
      bad_config("fat-tree num_pods (" + std::to_string(ft.num_pods) +
                 ") must lie in [0, k]");
    }
    if (!(ft.oversubscription > 0.0) || ft.hosts_per_edge() < 1) {
      bad_config("fat-tree oversubscription must give at least 1 host per "
                 "edge switch");
    }
    if (ft.num_hosts() < 2) {
      bad_config("fat-tree topology needs at least 2 hosts");
    }
    if (!(ft.host_rate_bps > 0.0) || !(ft.fabric_rate_bps > 0.0)) {
      bad_config("fat-tree link rates must be positive");
    }
  } else {
    if (cfg.tree.num_tors < 1 || cfg.tree.hosts_per_tor < 1 ||
        cfg.tree.tors_per_agg < 1) {
      bad_config("three-tier dimensions must all be at least 1");
    }
    if (cfg.tree.num_tors % cfg.tree.tors_per_agg != 0) {
      bad_config("num_tors (" + std::to_string(cfg.tree.num_tors) +
                 ") must be a multiple of tors_per_agg (" +
                 std::to_string(cfg.tree.tors_per_agg) + ")");
    }
    if (cfg.tree.num_tors * cfg.tree.hosts_per_tor < 2) {
      bad_config("three-tier topology needs at least 2 hosts");
    }
    if (!(cfg.tree.host_rate_bps > 0.0) || !(cfg.tree.fabric_rate_bps > 0.0)) {
      bad_config("tree link rates must be positive");
    }
  }
  const WorkloadConfig& t = cfg.traffic;
  if (!(t.load > 0.0)) {
    bad_config("traffic.load must be positive, got " + std::to_string(t.load));
  }
  if (t.size_min_bytes <= 0 || t.size_max_bytes < t.size_min_bytes) {
    bad_config("flow size range [" + std::to_string(t.size_min_bytes) + ", " +
               std::to_string(t.size_max_bytes) +
               "] is empty or non-positive");
  }
  if (t.deadline_min < 0.0 || t.deadline_max < t.deadline_min) {
    bad_config("deadline range [" + std::to_string(t.deadline_min) + ", " +
               std::to_string(t.deadline_max) + "] is invalid");
  }
  if (t.pattern == Pattern::kLeftRight &&
      cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    bad_config("left-right traffic needs a topology with a fabric tier");
  }
}

stats::FlowRecord record_from(const transport::Flow& f) {
  stats::FlowRecord rec;
  rec.id = f.id;
  rec.size_bytes = f.size_bytes;
  rec.start = f.start_time;
  rec.deadline = f.deadline;
  rec.background = f.background;
  return rec;
}

// The dense demux table on every host grows by doubling as flow ids climb;
// pre-growing it to the workload's id ceiling makes steady-state
// registration allocation-free. The dense range itself is budgeted across
// the host population: a fixed fleet-wide byte budget divided by the host
// count caps each host's dense table, so a 1k-host fat-tree doesn't pay
// (hosts x id-range) RSS — ids past the cap use the sparse table, which
// sizes with live flows (small under endpoint recycling), not the id range.
// The demux rounds the cap *down* to a power of two (its growth schedule is
// doubling), so the fleet-wide budget is a hard ceiling, not a target the
// next doubling can overshoot by 2x. Rack-scale runs stay fully dense: the
// cap only bites past ~128 hosts.
void prewarm_demux(topo::Topology& topo,
                   const std::vector<transport::Flow>& flows) {
  constexpr std::size_t kDenseBudgetBytes = 64ull << 20;  // fleet-wide
  const std::size_t hosts = topo.num_hosts();
  const net::FlowId cap = hosts == 0
                              ? net::FlowDemux::kDenseLimit
                              : kDenseBudgetBytes / sizeof(void*) / hosts;
  net::FlowId max_id = 0;
  for (const auto& f : flows) max_id = std::max(max_id, f.id);
  for (const auto& h : topo.hosts()) {
    h->set_dense_flow_limit(cap);
    h->reserve_flows(max_id);
  }
}

// --- Conditional-lookahead horizon probe -------------------------------------
//
// Per-domain data for ParallelEngine::set_horizon_probe. The engine needs,
// each round, a certified lower bound D on the delay before the domain's
// pending work can deliver into another domain; it then widens the window to
// next_t + D instead of the static next_t + min-cut-propagation.
//
// The bound is a shortest-path argument. Every hop a packet takes costs at
// least serialization of a 40-byte control packet plus the link's
// propagation delay, so with
//   dist[v] = min over outbound cut links j of (store-and-forward distance
//             from node v to the cut's source, each hop weighted
//             ser40 + prop, plus the cut's own ser40 + prop)
// an event chain that starts at node v cannot post a cross-domain delivery
// before next_t + dist[v] (computed by a multi-source Dijkstra over the
// reversed intra-domain graph, seeded at the cut sources).
//
// Every pending event either (a) fires at a host or a control-plane timer
// switch — covered by the static term event_dist = min dist over those
// nodes — or (b) belongs to an in-flight packet on some link, covered by
// three activity terms checked per round against the link probes:
//   local link busy/in-flight  -> its delivery fires at dst, chain >= dist[dst]
//   outbound cut link busy     -> its delivery posts after >= prop(cut)
//   inbound cut delivery pending-> it fires at dst, chain >= dist[dst]
// Entries that cannot undercut event_dist are pruned at build time and the
// rest are scanned in ascending order, so a round's probe is a few loads.
// The probe only ever runs while mailboxes are empty (the engine guarantees
// it), which is what makes the activity probes complete.

struct DomainProbe {
  sim::Time event_dist = sim::kTimeInfinity;
  // (link, certified delay), ascending by delay, pruned to < event_dist.
  std::vector<std::pair<const net::Link*, sim::Time>> local;
  std::vector<std::pair<const net::Link*, sim::Time>> out_cut;
  std::vector<std::pair<const net::Link*, sim::Time>> in_cut;
};

std::vector<DomainProbe> build_horizon_probes(
    topo::Topology& topo, const topo::Partition& part,
    const proto::ControlPlane* control) {
  struct Edge {
    net::NodeId src;
    net::NodeId dst;
    const net::Link* link;
  };
  const auto weight = [](const net::Link* l) {
    return l->serialization_delay(net::kControlPacketBytes) + l->prop_delay();
  };

  const std::size_t W = static_cast<std::size_t>(part.domains);
  std::vector<std::vector<Edge>> intra(W), out_cut(W), in_cut(W);
  const auto add_edge = [&](net::NodeId src, const net::Link& l) {
    const Edge e{src, l.destination()->id(), &l};
    const auto sd = static_cast<std::size_t>(part.domain_of_node(e.src));
    const auto dd = static_cast<std::size_t>(part.domain_of_node(e.dst));
    if (sd == dd) {
      intra[sd].push_back(e);
    } else {
      out_cut[sd].push_back(e);
      in_cut[dd].push_back(e);
    }
  };
  for (const auto& h : topo.hosts()) add_edge(h->id(), h->uplink());
  for (const auto& sw : topo.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      add_edge(sw->id(), sw->port_link(p));
    }
  }

  std::vector<net::NodeId> timer_nodes;
  if (control != nullptr) control->append_timer_nodes(timer_nodes);

  std::vector<DomainProbe> probes(W);
  for (std::size_t d = 0; d < W; ++d) {
    // Multi-source Dijkstra over the reversed intra-domain graph.
    std::unordered_map<net::NodeId,
                       std::vector<std::pair<net::NodeId, sim::Time>>>
        rev;
    for (const Edge& e : intra[d]) {
      rev[e.dst].push_back({e.src, weight(e.link)});
    }
    std::unordered_map<net::NodeId, sim::Time> dist;
    const auto dist_of = [&dist](net::NodeId v) {
      const auto it = dist.find(v);
      return it == dist.end() ? sim::kTimeInfinity : it->second;
    };
    using QE = std::pair<sim::Time, net::NodeId>;
    std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
    for (const Edge& e : out_cut[d]) {
      const sim::Time seed = weight(e.link);
      if (seed < dist_of(e.src)) {
        dist[e.src] = seed;
        pq.push({seed, e.src});
      }
    }
    while (!pq.empty()) {
      const auto [t, v] = pq.top();
      pq.pop();
      if (t > dist_of(v)) continue;
      const auto it = rev.find(v);
      if (it == rev.end()) continue;
      for (const auto& [u, w] : it->second) {
        if (t + w < dist_of(u)) {
          dist[u] = t + w;
          pq.push({t + w, u});
        }
      }
    }

    DomainProbe& dp = probes[d];
    for (const auto& h : topo.hosts()) {
      if (static_cast<std::size_t>(part.domain_of_node(h->id())) == d) {
        dp.event_dist = std::min(dp.event_dist, dist_of(h->id()));
      }
    }
    for (const net::NodeId n : timer_nodes) {
      if (static_cast<std::size_t>(part.domain_of_node(n)) == d) {
        dp.event_dist = std::min(dp.event_dist, dist_of(n));
      }
    }
    for (const Edge& e : intra[d]) {
      const sim::Time t = dist_of(e.dst);
      if (t < dp.event_dist) dp.local.push_back({e.link, t});
    }
    for (const Edge& e : out_cut[d]) {
      const sim::Time t = e.link->prop_delay();
      if (t < dp.event_dist) dp.out_cut.push_back({e.link, t});
    }
    for (const Edge& e : in_cut[d]) {
      const sim::Time t = dist_of(e.dst);
      if (t < dp.event_dist) dp.in_cut.push_back({e.link, t});
    }
    const auto by_delay = [](const auto& a, const auto& b) {
      return a.second < b.second;
    };
    std::sort(dp.local.begin(), dp.local.end(), by_delay);
    std::sort(dp.out_cut.begin(), dp.out_cut.end(), by_delay);
    std::sort(dp.in_cut.begin(), dp.in_cut.end(), by_delay);
  }
  return probes;
}

// --- Scenario driver ---------------------------------------------------------
//
// One driver for every worker count: one Simulator per domain under a
// sim::ParallelEngine. One domain is the sequential run. With more, every
// link is rebound to its transmitting node's domain and cut links post
// deliveries through the engine's mailboxes.
//
// Flows exist in three forms over their life:
//   pending    — a compact descriptor in `flows`; no endpoints, no demux
//                entries, no per-flow heap, no calendar event.
//   live       — an EndpointSlot: sender/receiver placement-constructed into
//                the profile's slab arenas, SoA row bound, demux registered,
//                one start event pending. Flows are staged at the chunk
//                barrier before the chunk holding their start time, so the
//                calendar holds at most one chunk of launches and the slot
//                arena stays sized by in-flight events, not workload length.
//   retired    — after sender finish + receiver completion (or termination),
//                one full 10 ms chunk of quarantine (longer than any
//                in-flight packet's remaining life: path delays are
//                microseconds and finished senders cancel their timers),
//                then the endpoints are destroyed and the slot recycled.
// Packet counters are accumulated at retirement; sums are commutative, so
// totals do not depend on when a slot retires.
//
// Bit-identity across worker counts rests on three things:
//
//   (1) every cross-domain interaction is a Link delivery, and injected
//       deliveries carry lineage nodes that sort them against local events
//       exactly where the one-domain FIFO would have placed them
//       (sim/det_lineage.h);
//   (2) staging is passive (building endpoints, before_flow_start and
//       register_flow schedule no event, checked below), and the start
//       event's setup index is the flow index — lineage roots depend on
//       that index alone, so the staged schedule orders launches the same
//       way no matter when staging ran;
//   (3) completion callbacks do not touch shared state from worker threads:
//       they append {node, time} records to per-domain lists, which the
//       main thread merges in lineage order at each chunk boundary and
//       replays through the first-wins guards. Slot retirement and
//       recycling likewise run only at barriers, while every domain is
//       quiescent.
//
// Returns nullopt, leaving `flow_list` untouched and naming the cause in
// *reason, when `domains` > 1 but the partition is unusable (fewer than two
// domains or a zero-delay cut link); the caller then runs one domain.

// Lineage node ordering a record made by the executing event. One domain
// has no lineage: its records are appended in execution order.
sim::DetLineage::NodeId record_node(sim::Simulator& s) {
  return s.det_enabled() ? s.make_post_node() : sim::DetLineage::kNull;
}

std::optional<ScenarioResult> run_on_engine(
    const ScenarioConfig& cfg, std::vector<transport::Flow>& flow_list,
    const proto::TransportProfile& profile, int domains, std::string* reason) {
  const Clock::time_point setup_t0 = Clock::now();
  // Trace buffers are declared before the engine so they are destroyed
  // after it — worker threads hold thread-local pointers into them until
  // the engine joins its pool.
  std::vector<std::unique_ptr<obs::TraceBuffer>> tbufs;
  std::vector<std::string> queue_names;
  // The engine is declared first so it is destroyed last: sender, receiver
  // and control-plane destructors cancel timers on their domain simulators.
  sim::ParallelEngine engine(domains);
  const int n_dom = engine.num_domains();

  std::unique_ptr<topo::BuiltTopology> built_ptr =
      topology_builder(cfg)->build(engine.domain(0),
                                   profile.make_queue_factory(cfg));
  topo::BuiltTopology& built = *built_ptr;
  topo::Topology& topo = built.topo();
  apply_switch_tuning(built, cfg);

  const topo::Partition part = partition_topology(topo, n_dom);
  if (n_dom > 1 && !part.usable()) {
    *reason = part.domains < 2 ? "partition produced fewer than two domains"
                               : "a cut link has zero propagation delay";
    return std::nullopt;
  }
  if (cfg.profile) {
    for (int d = 0; d < n_dom; ++d) engine.domain(d).enable_profiling();
  }

  // Telemetry plane, sampled from the driver at engine-quiescent instants
  // (run_until returns with every mailbox drained and all domain clocks on
  // the target), never via scheduled events: the event path — and every
  // golden fingerprint — is identical with it on or off, queue state reads
  // race nothing, and the JSONL is byte-identical at any worker count.
  std::unique_ptr<obs::TelemetryPlane> telemetry;
  if (cfg.telemetry.enabled) {
    telemetry = std::make_unique<obs::TelemetryPlane>(built, cfg.telemetry);
  }

  const auto domain_sim = [&engine, &part](net::NodeId id) -> sim::Simulator& {
    return engine.domain(part.domain_of_node(id));
  };
  if (n_dom > 1) {
    // Every link schedules on the clock of the node that transmits into it;
    // cut links post into the destination domain instead.
    for (const auto& h : topo.hosts()) {
      h->uplink().bind_domain(domain_sim(h->id()));
    }
    for (const auto& sw : topo.switches()) {
      for (int p = 0; p < sw->num_ports(); ++p) {
        sw->port_link(p).bind_domain(domain_sim(sw->id()));
      }
    }
    for (const auto& c : part.cut_links) {
      c.link->set_cross_post(&engine, c.src_domain, c.dst_domain);
    }
    engine.set_lookahead(part.lookahead);
  }

  // Per-domain contexts so endpoint factories place each agent on its own
  // node's clock (ctx.sim is what sender/receiver constructors capture).
  // Deadline workloads arbitrate/schedule EDF; others SJF.
  const sim::Time base_rtt =
      proto::estimate_base_rtt(topo, built.host_rate_bps());
  bool any_deadline = false;
  for (const auto& f : flow_list) {
    any_deadline = any_deadline || f.has_deadline();
  }
  std::vector<proto::RunContext> dctx;
  dctx.reserve(static_cast<std::size_t>(n_dom));
  for (int d = 0; d < n_dom; ++d) {
    dctx.push_back(proto::RunContext{
        engine.domain(d), built, static_cast<const proto::ProfileParams&>(cfg)});
    dctx.back().base_rtt = base_rtt;
    dctx.back().any_deadline = any_deadline;
    if (n_dom > 1) dctx.back().sim_resolver = domain_sim;
  }
  std::unique_ptr<proto::ControlPlane> control =
      profile.make_control_plane(dctx[0]);
  for (proto::RunContext& c : dctx) c.control = control.get();

  // Conditional lookahead: certify per-domain bounds from the topology (and
  // the control plane's timer nodes), arm the links' activity counters, and
  // hand the engine a per-round probe. Static mode skips all of it and the
  // engine falls back to next_t + min-cut-propagation windows.
  std::vector<DomainProbe> probes;
  if (n_dom > 1 &&
      cfg.horizon_mode == ScenarioConfig::HorizonMode::kConditional) {
    probes = build_horizon_probes(topo, part, control.get());
    for (const auto& h : topo.hosts()) h->uplink().arm_activity_tracking();
    for (const auto& sw : topo.switches()) {
      for (int p = 0; p < sw->num_ports(); ++p) {
        sw->port_link(p).arm_activity_tracking();
      }
    }
    const sim::Time la = part.lookahead;
    engine.set_horizon_probe([&probes, la](int d, sim::Time nt) -> sim::Time {
      const DomainProbe& dp = probes[static_cast<std::size_t>(d)];
      sim::Time dmin = dp.event_dist;
      for (const auto& [l, t] : dp.local) {
        if (t >= dmin) break;
        if (l->probe_local_active()) {
          dmin = t;
          break;
        }
      }
      for (const auto& [l, t] : dp.out_cut) {
        if (t >= dmin) break;
        if (l->probe_cut_busy()) {
          dmin = t;
          break;
        }
      }
      for (const auto& [l, t] : dp.in_cut) {
        if (t >= dmin) break;
        if (l->probe_cut_inflight()) {
          dmin = t;
          break;
        }
      }
      // dmin is exact in the reals but the event path accumulates its hop
      // delays one rounded addition at a time, so a delivery whose exact
      // time equals nt + dmin can land an ulp early (ACK clocking makes
      // exact-equality chains the common case, not a corner). Deflate by a
      // relative margin that dominates the worst-case accumulated rounding
      // of any chain the bound covers (<~60 operations, each contributing
      // at most one ulp of the final magnitude; 64 machine epsilons is an
      // order of magnitude more). The static bound needs no margin — IEEE
      // addition is monotone, and every event path dominates nt + lookahead
      // argument-by-argument — so it is a safe floor.
      constexpr double kFpMargin =
          64.0 * std::numeric_limits<double>::epsilon();
      return std::max(nt + la, (nt + dmin) * (1.0 - kFpMargin));
    });
  }

  // Endpoint storage, declared after the control plane so receivers (whose
  // callbacks may point into it) are destroyed first.
  EndpointTable table;
  table.init(profile);

  // Pre-size each domain's calendar and packet pool from its share of the
  // in-flight population, not from the flow count: a few events per host
  // (tx-done, delivery, timers, control) plus a margin for the one chunk of
  // staged launches the calendar ever holds (a denser chunk grows it once).
  // Steady-state scheduling then rarely grows a slot chunk or rebuilds the
  // calendar mid-burst, and the first wave of sends finds a warm pool.
  std::vector<std::size_t> dom_hosts(static_cast<std::size_t>(n_dom), 0);
  for (const auto& h : topo.hosts()) {
    ++dom_hosts[static_cast<std::size_t>(part.domain_of_node(h->id()))];
  }
  for (int d = 0; d < n_dom; ++d) {
    engine.domain(d).reserve(dom_hosts[static_cast<std::size_t>(d)] * 8 +
                             1024);
  }
  // One trace ring per domain, installed on whichever thread runs that
  // domain (the caller thread for domain 0). Lineage keys stamped on every
  // record let the buffers merge back into one-domain emission order.
  if (cfg.trace.enabled) {
    queue_names = obs::label_fabric_queues(topo);
    tbufs.reserve(static_cast<std::size_t>(n_dom));
    for (int d = 0; d < n_dom; ++d) {
      tbufs.push_back(std::make_unique<obs::TraceBuffer>(
          cfg.trace.buffer_capacity, cfg.trace.categories));
    }
  }
  engine.set_thread_init([&dom_hosts, &tbufs](int d) {
    net::PacketPool::local().prewarm(
        dom_hosts[static_cast<std::size_t>(d)] * 16 + 256);
    if (!tbufs.empty()) {
      obs::install_tracer(tbufs[static_cast<std::size_t>(d)].get());
    }
  });

  // Pending descriptors, records and bookkeeping. Generator host indices
  // map onto node ids; record index == flow index (flows that never launch
  // keep finish = -1); activation order is start-time order, stable on flow
  // index for simultaneous arrivals.
  const bool exact = cfg.stats_mode == ScenarioConfig::StatsMode::kExact;
  std::unique_ptr<stats::StreamingFlowStats> streaming;
  if (!exact) streaming = std::make_unique<stats::StreamingFlowStats>();
  std::vector<transport::Flow> flows = std::move(flow_list);
  std::vector<stats::FlowRecord> records;
  if (exact) records.reserve(flows.size());
  std::size_t outstanding = 0;
  for (auto& f : flows) {
    f.src = topo.host(static_cast<std::size_t>(f.src))->id();
    f.dst = topo.host(static_cast<std::size_t>(f.dst))->id();
    if (exact) records.push_back(record_from(f));
    if (!f.background) ++outstanding;
  }
  prewarm_demux(topo, flows);

  std::vector<std::uint32_t> order(flows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&flows](std::uint32_t a, std::uint32_t b) {
                     return flows[a].start_time < flows[b].start_time;
                   });
  std::size_t next_pending = 0;

  // Completion records deferred to chunk boundaries. Worker threads only
  // ever touch their own domain's list; the main thread merges between
  // run_until calls, with the barriers providing the happens-before edges.
  struct Completion {
    sim::DetLineage::NodeId node;
    sim::Time time;
    std::uint32_t slot;
    bool receiver_done;  // receiver completion vs sender early termination
  };
  std::vector<std::vector<Completion>> deferred(
      static_cast<std::size_t>(n_dom));

  // Done slots whose sender has not yet processed its final ack; polled at
  // each barrier (domains quiescent) until retire-eligible.
  std::vector<std::uint32_t> awaiting;
  std::vector<std::uint32_t> retire_pending, retire_ready;
  std::uint64_t data_packets_sent = 0, probes_sent = 0;
  const bool recycle = cfg.recycle_endpoints;

  const auto retire_slot = [&](std::uint32_t s) {
    EndpointSlot& sl = table.slot(s);
    data_packets_sent += sl.sender->data_packets_sent();
    probes_sent += sl.sender->probes_sent();
    sl.src->unregister_flow(sl.flow_id);
    sl.dst->unregister_flow(sl.flow_id);
    if (streaming) streaming->add(sl.record);
    table.destroy(s);
    table.release(s);
  };

  // Setup-time lineage roots claimed by the control plane during its
  // construction (delegation timers); flow launches index past them.
  const std::uint32_t setup_base = control ? control->setup_events() : 0;

  // Materializes pending flows whose start falls inside the next chunk:
  // construct into the slabs, wire deferred-completion callbacks, register
  // with the demux, and schedule the start event under setup lineage.
  const auto stage_until = [&](sim::Time horizon) {
    while (next_pending < order.size()) {
      const std::uint32_t i = order[next_pending];
      const transport::Flow& f = flows[i];
      if (f.start_time > horizon) break;
      ++next_pending;
      // Start-time order, stable on flow index: the heavy-hitter sketch sees
      // the same update sequence at any worker count.
      if (telemetry) telemetry->note_flow(f.id, f.size_bytes);

      const std::size_t sd =
          static_cast<std::size_t>(part.domain_of_node(f.src));
      const std::size_t dd =
          static_cast<std::size_t>(part.domain_of_node(f.dst));
      net::Host* src = static_cast<net::Host*>(topo.node(f.src));
      net::Host* dst = static_cast<net::Host*>(topo.node(f.dst));
      assert(src && dst);

      [[maybe_unused]] const std::size_t pending_before =
          PASE_DCHECK_ENABLED ? engine.pending_events() : 0;
      const std::uint32_t s = table.acquire();
      EndpointSlot& slot = table.slot(s);
      slot.flow_index = i;
      if (streaming) slot.record = record_from(f);
      table.construct(s, profile, dctx[sd], dctx[dd], f, *src, *dst);

      std::vector<Completion>* rlist = &deferred[dd];
      sim::Simulator* rsim = &engine.domain(static_cast<int>(dd));
      slot.receiver->on_complete = [rlist, rsim, s](transport::Receiver& r) {
        rlist->push_back({record_node(*rsim), r.completion_time(), s, true});
      };
      std::vector<Completion>* slist = &deferred[sd];
      sim::Simulator* ssim = &engine.domain(static_cast<int>(sd));
      slot.sender->on_complete = [slist, ssim, s](transport::Sender& snd) {
        if (snd.terminated()) {
          slist->push_back({record_node(*ssim), 0.0, s, false});
        }
      };

      profile.before_flow_start(dctx[sd], *slot.sender, *slot.receiver);
      src->register_flow(f.id, slot.sender);
      dst->register_flow(f.id, slot.receiver);
      // Staging runs between chunks, outside any event: an event scheduled
      // here would take the lineage (or FIFO seq) of the staging pass, not
      // of the flow, and break bit-identity across worker counts.
      PASE_DCHECK(engine.pending_events() == pending_before &&
                  "endpoint construction, before_flow_start and "
                  "register_flow must not schedule events");
      // The start event becomes a lineage root with k = setup_base + flow
      // index: the control plane's setup events (PASE delegation timers,
      // indices [0, setup_base)) order before every launch, and same-instant
      // launches order by flow index — independent of when this staging
      // pass ran.
      engine.domain(static_cast<int>(sd)).set_setup_index(setup_base + i);
      engine.domain(static_cast<int>(sd))
          .schedule_at(f.start_time, [snd = slot.sender] { snd->start(); });
    }
  };

  // Apply deferred completions in execution order (a lineage merge across
  // domains; one domain's list already is in that order) through the
  // first-wins guards: the first of {receiver completion, early
  // termination} decides the record, and background flows never count
  // against `outstanding`.
  std::vector<Completion> merged;
  const auto apply_completions = [&] {
    merged.clear();
    for (auto& dl : deferred) {
      merged.insert(merged.end(), dl.begin(), dl.end());
      dl.clear();
    }
    if (n_dom > 1) {
      std::sort(merged.begin(), merged.end(),
                [&engine](const Completion& a, const Completion& b) {
                  return engine.lineage().less(a.node, b.node);
                });
    }
    for (const auto& c : merged) {
      EndpointSlot& sl = table.slot(c.slot);
      if (c.receiver_done) sl.receiver_done = true;
      stats::FlowRecord& rec = streaming ? sl.record : records[sl.flow_index];
      if (rec.finish >= 0.0 || rec.terminated) continue;
      if (c.receiver_done) {
        rec.finish = c.time;
      } else {
        rec.terminated = true;
      }
      if (recycle) awaiting.push_back(c.slot);
      if (!rec.background && outstanding > 0) --outstanding;
    }
  };

  // Barrier-side retirement: move done slots whose sender has finished into
  // quarantine, reclaim slots that quarantined a full chunk.
  const auto recycle_at_barrier = [&] {
    std::size_t w = 0;
    for (std::size_t r = 0; r < awaiting.size(); ++r) {
      const std::uint32_t s = awaiting[r];
      EndpointSlot& sl = table.slot(s);
      if (sl.sender->finished() &&
          (sl.receiver_done || sl.sender->terminated())) {
        retire_pending.push_back(s);
      } else {
        awaiting[w++] = s;
      }
    }
    awaiting.resize(w);
    for (std::uint32_t s : retire_ready) retire_slot(s);
    retire_ready.clear();
    std::swap(retire_ready, retire_pending);
  };

  ScenarioResult result;
  result.setup_wall_sec = seconds_since(setup_t0);

  // Run until every short flow completes (or the hard cap) in 10 ms chunks:
  // stage the chunk's launches, run it, then apply completions and recycle
  // endpoint slots while every domain is quiescent.
  const sim::Time step = 10e-3;
  std::uint64_t next_sample = 1;
  while (outstanding > 0 && engine.now() < cfg.max_duration) {
    const sim::Time target = std::min(cfg.max_duration, engine.now() + step);
    stage_until(target);
    // Telemetry sub-boundaries: run to each absolute grid instant inside the
    // chunk (computed multiplicatively, so the grid never drifts), sample
    // with every domain quiescent, then continue to the chunk target.
    // run_until(t) executes every event <= t and parks all domain clocks at
    // t, so the executed-event sequence matches a telemetry-off run.
    if (telemetry) {
      for (sim::Time ts = telemetry->sample_time(next_sample); ts <= target;
           ts = telemetry->sample_time(++next_sample)) {
        engine.run_until(ts);
        telemetry->sample(engine.now());
      }
    }
    engine.run_until(target);
    apply_completions();
    // Every domain is quiescent and the deferred lists are empty, so the
    // calendars, mailboxes and executing-event cursors hold every node id
    // the run can still read: rebase the lineage onto them and reuse the
    // arena for the next chunk. Trace records keep the node of every
    // executed event until merge_buffers, so traced runs keep the arena.
    if (tbufs.empty()) engine.compact_lineage();
    recycle_at_barrier();
  }

  // Flush the quarantine, fold still-live slots (unfinished and background
  // flows), and in streaming mode account for descriptors that never
  // activated (the run ended first).
  for (std::uint32_t s : retire_ready) retire_slot(s);
  retire_ready.clear();
  for (std::uint32_t s : retire_pending) retire_slot(s);
  retire_pending.clear();
  for (std::uint32_t s = 0; s < table.size(); ++s) {
    EndpointSlot& sl = table.slot(s);
    if (!sl.in_use || sl.sender == nullptr) continue;
    data_packets_sent += sl.sender->data_packets_sent();
    probes_sent += sl.sender->probes_sent();
    if (streaming) streaming->add(sl.record);
  }
  if (streaming) {
    for (std::size_t p = next_pending; p < order.size(); ++p) {
      streaming->add(record_from(flows[order[p]]));
    }
  }

  result.records = std::move(records);
  result.end_time = engine.now();
  result.fabric_drops = topo.total_drops();
  result.data_packets_sent = data_packets_sent;
  result.probes_sent = probes_sent;
  result.slab_grow_events = table.slab_grow_events();
  result.peak_live_flows = table.peak_live();
  if (streaming) result.streaming = std::move(streaming);
  if (control) {
    if (const core::ControlPlaneStats* st = control->stats()) {
      result.control = *st;
    }
  }
  std::uint64_t executed = 0, rebuilds = 0;
  for (int d = 0; d < n_dom; ++d) {
    result.heap_closure_events += engine.domain(d).heap_closure_events();
    executed += engine.domain(d).executed_events();
    rebuilds += engine.domain(d).calendar_rebuilds();
  }
  result.workers_used = part.domains;
  result.parallel_barrier_wait_sec = engine.barrier_wait_sec();
  if (telemetry) result.telemetry = telemetry->finish(result.end_time);

  if (!tbufs.empty()) {
    obs::install_tracer(nullptr);  // caller thread ran domain 0
    for (int d = 0; d < n_dom; ++d) {
      tbufs[static_cast<std::size_t>(d)]->emit_at(
          result.end_time, obs::kEngineCat, obs::EventType::kEngineSample, 0,
          static_cast<double>(engine.domain(d).executed_events()),
          static_cast<double>(engine.domain(d).heap_closure_events()),
          static_cast<std::uint32_t>(d));
    }
    std::vector<const obs::TraceBuffer*> ptrs;
    ptrs.reserve(tbufs.size());
    for (const auto& b : tbufs) ptrs.push_back(b.get());
    auto trace = std::make_shared<obs::Trace>(
        obs::merge_buffers(ptrs, &lineage_less, &engine.lineage()));
    trace->queue_names = std::move(queue_names);
    result.trace = std::move(trace);
  }

  obs::MetricsRegistry reg;
  fold_common_metrics(reg, result, built);
  reg.counter("engine.executed_events") = executed;
  reg.counter("engine.calendar_rebuilds") = rebuilds;
  if (n_dom > 1) {
    reg.counter("parallel.rounds") = engine.rounds_executed();
    reg.counter("parallel.windows") = engine.windows_executed();
    reg.counter("parallel.cross_posts") = engine.cross_posts();
    reg.counter("parallel.drains") = engine.drains_executed();
    reg.counter("parallel.quiet_rounds") = engine.quiet_rounds();
    reg.gauge("parallel.horizon_width_mean") = engine.mean_horizon_width();
    reg.gauge("parallel.barrier_spin_sec") = engine.barrier_spin_sec();
    reg.counter("parallel.lineage_peak_nodes") = engine.lineage().peak_nodes();
    reg.counter("parallel.lineage_compactions") = engine.lineage().rebases();
  }
  if (result.telemetry) {
    reg.counter("telemetry.samples") = result.telemetry->samples;
    reg.counter("telemetry.windows") = result.telemetry->windows.size();
  }
  if (cfg.profile) {
    std::vector<const sim::Simulator*> doms;
    doms.reserve(static_cast<std::size_t>(n_dom));
    for (int d = 0; d < n_dom; ++d) doms.push_back(&engine.domain(d));
    fold_profile_metrics(reg, doms, built);
  }
  result.metrics = reg.snapshot();
  return result;
}

}  // namespace

void validate_config(const ScenarioConfig& cfg) {
  validate_generic(cfg);
  resolve_profile(cfg).validate(cfg);
}

ScenarioResult run_scenario(ScenarioConfig cfg) {
  // Fill topology-derived workload fields, then generate.
  const topo::WorkloadHints hints = topology_builder(cfg)->hints();
  cfg.traffic.num_hosts = hints.num_hosts;
  if (hints.left_hosts > 0) cfg.traffic.left_hosts = hints.left_hosts;
  cfg.traffic.host_rate_bps = hints.host_rate_bps;
  cfg.traffic.bottleneck_rate_bps = hints.bottleneck_rate_bps;
  validate_config(cfg);
  return run_scenario_with_flows(cfg, generate_flows(cfg.traffic));
}

ScenarioResult run_scenario_with_flows(ScenarioConfig cfg,
                                       std::vector<transport::Flow> flows) {
  const proto::TransportProfile& profile = resolve_profile(cfg);
  validate_generic(cfg);
  profile.validate(cfg);

  if (cfg.workers < 1) bad_config("workers must be at least 1");
  // An unsafe profile or an unusable partition (zero-lookahead cut,
  // degenerate domain count) runs on one domain and carries the reason into
  // the result, so callers can tell it apart from a partitioned run.
  std::string fallback_reason;
  int domains = cfg.workers;
  if (domains > 1 && !profile.parallel_safe()) {
    fallback_reason =
        "profile '" + std::string(profile.name()) + "' is not parallel-safe";
    domains = 1;
  }
  std::optional<ScenarioResult> r =
      run_on_engine(cfg, flows, profile, domains, &fallback_reason);
  if (!r) r = run_on_engine(cfg, flows, profile, 1, &fallback_reason);
  r->parallel_fallback_reason = std::move(fallback_reason);
  return std::move(*r);
}

}  // namespace pase::workload
