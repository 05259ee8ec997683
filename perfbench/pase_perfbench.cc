// Repository benchmark program: one named workload per invocation.
//
//   pase_perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]
//
// A workload is K flow sets. Set j's flows come from workload::generate_flows
// seeded with a mix of --seed and j; the benchmark hands them to
// workload::run_scenario_with_flows. Each such timed run executes in a fresh
// process (this program re-executed with --child KIND --set J), so its peak
// RSS is its own. The benchmark cycles through the sets until S seconds have
// passed (every set runs at least once); host metrics are medians over all
// runs, simulated metrics are pooled over the K sets' flows, and a repeated
// set must reproduce its first result exactly.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs each set once
// untraced, then re-runs a few sets with the engine self-profiler on
// (cfg.profile), times single layers from outside around their public entry
// points (topology build, partitioning, switch forwarding, PASE arbitration,
// stats accessors), and prints the per-layer metrics. Nothing inside src/ is
// instrumented for it.
//
// Output checks feed pass_frac: every non-background flow finishes before
// max_duration, repeated runs of a set are bit-identical, the two-worker
// workload really runs two domains, and (traced) profile-on results and
// 1-worker results equal the untraced ones. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the line before it records
// the host environment (not a metric). See NOTES.md.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/arbitration_algorithm.h"
#include "net/switch.h"
#include "proto/registry.h"
#include "sim/simulator.h"
#include "stats/streaming.h"
#include "stats/summary.h"
#include "topo/builder.h"
#include "topo/partition.h"
#include "workload/flow_generator.h"
#include "workload/scenario.h"

namespace {

using namespace pase;
using Clock = std::chrono::steady_clock;
using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::SizeDistribution;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  ScenarioConfig cfg;  // traffic host counts/rates filled in; seed unset
  int sets = 1;        // K flow sets of cfg.traffic.num_flows flows each
  std::uint64_t seed = 1;

  // Set j's configuration: its own generator seed, a pure function of
  // (--seed, j), so sets never overlap across seeds.
  ScenarioConfig set_config(int j) const {
    ScenarioConfig c = cfg;
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                      static_cast<std::uint64_t>(j + 1) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    c.traffic.seed = z ^ (z >> 31);
    return c;
  }
};

std::unique_ptr<topo::TopologyBuilder> builder_for(const ScenarioConfig& cfg) {
  switch (cfg.topology) {
    case ScenarioConfig::TopologyKind::kSingleRack:
      return std::make_unique<topo::SingleRackBuilder>(cfg.rack);
    case ScenarioConfig::TopologyKind::kThreeTier:
      return std::make_unique<topo::ThreeTierBuilder>(cfg.tree);
    case ScenarioConfig::TopologyKind::kFatTree:
      return std::make_unique<topo::FatTreeBuilder>(cfg.fattree);
  }
  return nullptr;
}

ScenarioConfig fattree_dctcp(int k) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDctcp;
  cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = k;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;  // any-to-any over hosts
  cfg.traffic.size_dist = SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.3;
  cfg.traffic.num_background_flows = 0;
  return cfg;
}

// Sets and flows per set are fixed per workload; NOTES.md gives the reasons
// and the spread they were tuned to.
bool make_workload(const std::string& name, std::uint64_t seed, Workload* wl) {
  ScenarioConfig cfg;
  int flows = 0;
  if (name == "tree_pase") {
    // Paper §4.1 baseline: 4 ToR x 40 hosts, 1/10 Gbps, 300 us RTT,
    // left-right web-search, two long-lived background flows.
    cfg.protocol = Protocol::kPase;
    cfg.topology = ScenarioConfig::TopologyKind::kThreeTier;
    cfg.traffic.pattern = Pattern::kLeftRight;
    cfg.traffic.size_dist = SizeDistribution::kWebSearch;
    cfg.traffic.load = 0.7;
    cfg.stats_mode = ScenarioConfig::StatsMode::kExact;
    flows = 300;
    wl->sets = 20;
  } else if (name == "fattree_k16") {
    cfg = fattree_dctcp(16);
    cfg.stats_mode = ScenarioConfig::StatsMode::kStreaming;
    flows = 2500;
    wl->sets = 2;
  } else if (name == "rack_churn") {
    // Many tiny flows (1..10 MSS) on one 40-host rack.
    cfg.protocol = Protocol::kPfabric;
    cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
    cfg.traffic.pattern = Pattern::kIntraRackRandom;
    cfg.traffic.size_dist = SizeDistribution::kUniform;
    cfg.traffic.size_min_bytes = 1.0 * net::kMss;
    cfg.traffic.size_max_bytes = 10.0 * net::kMss;
    cfg.traffic.load = 0.6;
    cfg.traffic.num_background_flows = 0;
    cfg.stats_mode = ScenarioConfig::StatsMode::kExact;
    flows = 20000;
    wl->sets = 8;
  } else if (name == "fattree_k8_w2") {
    cfg = fattree_dctcp(8);
    cfg.stats_mode = ScenarioConfig::StatsMode::kExact;
    cfg.workers = 2;
    flows = 1000;
    wl->sets = 6;
  } else {
    return false;
  }
  cfg.traffic.num_flows = flows;
  cfg.recycle_endpoints = true;
  const topo::WorkloadHints hints = builder_for(cfg)->hints();
  cfg.traffic.num_hosts = hints.num_hosts;
  if (hints.left_hosts > 0) cfg.traffic.left_hosts = hints.left_hosts;
  cfg.traffic.host_rate_bps = hints.host_rate_bps;
  cfg.traffic.bottleneck_rate_bps = hints.bottleneck_rate_bps;
  workload::validate_config(cfg);
  wl->name = name;
  wl->cfg = cfg;
  wl->seed = seed;
  return true;
}

// --- Child processes -----------------------------------------------------------

bool write_all(int fd, const void* p, std::size_t len) {
  const auto* b = static_cast<const unsigned char*>(p);
  while (len > 0) {
    const ssize_t w = write(fd, b, len);
    if (w <= 0) return false;
    b += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* p, std::size_t len) {
  auto* b = static_cast<unsigned char*>(p);
  while (len > 0) {
    const ssize_t r = read(fd, b, len);
    if (r <= 0) return false;
    b += r;
    len -= static_cast<std::size_t>(r);
  }
  return true;
}

// Child side: writes (T, samples) to stdout. Returns the exit code.
template <typename T>
int write_result(const T& r, const std::vector<double>& xs) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = xs.size();
  return write_all(STDOUT_FILENO, &r, sizeof(r)) &&
                 write_all(STDOUT_FILENO, &n, sizeof(n)) &&
                 write_all(STDOUT_FILENO, xs.data(), n * sizeof(double))
             ? 0
             : 1;
}

// Re-executes this program as `--child kind --set j` for workload `wl` and
// reads back (T, samples) from its stdout. A fresh process image, not just a
// fork, so the child's peak RSS does not start from the parent's. False when
// the child failed (threw, crashed or wrote a short result).
template <typename T>
bool run_child(const Workload& wl, const char* kind, int j, T* out,
               std::vector<double>* samples = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::string seed = std::to_string(wl.seed);
  const std::string set = std::to_string(j);
  const char* args[] = {"pase_perfbench", "--workload", wl.name.c_str(),
                        "--seed",         seed.c_str(), "--child",
                        kind,             "--set",      set.c_str(),
                        nullptr};
  int fd[2];
  if (pipe(fd) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return false;
  }
  if (pid == 0) {
    close(fd[0]);
    if (dup2(fd[1], STDOUT_FILENO) >= 0) {
      close(fd[1]);
      execv("/proc/self/exe", const_cast<char* const*>(args));
    }
    _exit(127);
  }
  close(fd[1]);
  std::uint64_t n = 0;
  std::vector<double> xs;
  bool ok = read_all(fd[0], out, sizeof(T)) && read_all(fd[0], &n, sizeof(n));
  if (ok) {
    xs.resize(n);
    ok = read_all(fd[0], xs.data(), n * sizeof(double));
  }
  close(fd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  if (samples != nullptr) *samples = std::move(xs);
  return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Peak resident set of this process image (VmHWM), in MB. Unlike ru_maxrss
// it does not carry over the high-water mark of the image replaced by exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- One timed run ---------------------------------------------------------------

// Fixed-layout result of one run, shipped from the child.
struct RunOut {
  // Host seconds.
  double generate_s = 0.0;       // around generate_flows
  double call_s = 0.0;           // around run_scenario_with_flows
  double harness_setup_s = 0.0;  // ScenarioResult::setup_wall_sec
  double summary_s = 0.0;        // around the ScenarioResult accessors
  double barrier_wait_s = 0.0;   // summed over domains
  double peak_rss_mb = 0.0;
  // Simulated outcome (simulated seconds).
  double arrival_span = 0.0;  // first to last non-background flow start
  double afct = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double fct_sum = 0.0;
  double end_time = 0.0;
  std::uint64_t attempted = 0;  // non-background flows
  std::uint64_t completed = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t data_pkts = 0;
  std::uint64_t events = 0;
  std::int64_t workers_used = 0;
  std::uint64_t fallback = 0;  // 1 when parallel_fallback_reason is set
  // Program counters.
  std::uint64_t heap_closure_events = 0;
  std::uint64_t slab_grow_events = 0;
  std::uint64_t peak_live_flows = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t drops = 0;
  std::uint64_t marks = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t route_bytes = 0;
  std::uint64_t switches = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t quiet_rounds = 0;
  double horizon_mean = 0.0;
  // cfg.profile only.
  double scan_mean = 0.0;
  double path_cache_hit_rate = 0.0;
  std::uint64_t peak_pending = 0;
  // PASE arbitration replay (traced pass only).
  double arbitrate_ns = 0.0;

  double wall_s() const { return generate_s + call_s; }
  double setup_s() const { return generate_s + harness_setup_s; }
  double loop_s() const { return call_s - harness_setup_s; }
  // Bit-identity of everything the simulation decides.
  bool same_outcome(const RunOut& o) const {
    return afct == o.afct && p50 == o.p50 && p99 == o.p99 &&
           end_time == o.end_time && data_pkts == o.data_pkts &&
           completed == o.completed && unfinished == o.unfinished &&
           attempted == o.attempted;
  }
};

double metric(const workload::ScenarioResult& r, const char* name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::uint64_t count(const workload::ScenarioResult& r, const char* name) {
  return static_cast<std::uint64_t>(metric(r, name));
}

// Replays the finished flows of an exact-stats run through one PASE flow
// table (the shared bottleneck link) in simulated-time order: insert at
// start, refresh every arbitration period while live, remove at finish.
// Returns host ns per update_and_arbitrate/remove call.
double replay_arbitration(const ScenarioConfig& cfg,
                          const std::vector<stats::FlowRecord>& records) {
  struct Op {
    double t;
    int kind;  // 0 = remove, 1 = update; removes go first at equal times
    net::FlowId id;
    double key;
  };
  const double period = cfg.pase.arbitration_period;
  std::vector<Op> ops;
  for (const auto& rec : records) {
    if (rec.background || !rec.completed()) continue;
    const double size = static_cast<double>(rec.size_bytes);
    const double fct = rec.fct();
    for (double t = rec.start; t < rec.finish; t += period) {
      // Key: remaining bytes, as if the flow ran at a constant rate.
      ops.push_back({t, 1, rec.id, size * (1.0 - (t - rec.start) / fct)});
    }
    ops.push_back({rec.finish, 0, rec.id, 0.0});
  }
  if (ops.empty()) return 0.0;
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.t != b.t ? a.t < b.t : a.kind < b.kind;
  });
  const double demand = cfg.tree.host_rate_bps;
  std::size_t calls = 0;
  double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  do {
    core::FlowTable table(cfg.tree.fabric_rate_bps, cfg.pase.num_data_queues(),
                          cfg.pase.base_rate_bps(), cfg.pase.entry_timeout);
    for (const Op& op : ops) {
      if (op.kind == 0) {
        table.remove(op.id);
      } else {
        sink += table.update_and_arbitrate(op.id, op.key, demand, op.t).ref_rate;
      }
    }
    calls += ops.size();
  } while (since(t0) < 0.2);
  const double elapsed = since(t0);
  if (!(sink >= 0.0)) throw std::runtime_error("negative reference rate");
  return elapsed * 1e9 / static_cast<double>(calls);
}

// One timed run of `cfg`. `fcts` receives every non-background completed
// flow's FCT (exact stats) or its histogram bucket midpoint (streaming).
RunOut timed_run(const ScenarioConfig& cfg, bool replay_arb,
                 std::vector<double>* fcts) {
  RunOut out;
  const Clock::time_point t0 = Clock::now();
  std::vector<transport::Flow> flows = workload::generate_flows(cfg.traffic);
  out.generate_s = since(t0);
  double first = 0.0, last = 0.0;
  for (const auto& f : flows) {
    if (f.background) continue;
    if (out.attempted++ == 0) first = last = f.start_time;
    first = std::min(first, f.start_time);
    last = std::max(last, f.start_time);
  }
  out.arrival_span = last - first;

  const Clock::time_point t1 = Clock::now();
  const workload::ScenarioResult r =
      workload::run_scenario_with_flows(cfg, std::move(flows));
  out.call_s = since(t1);

  const Clock::time_point t2 = Clock::now();
  out.afct = r.afct();
  out.p50 = r.fct_percentile(50.0);
  out.p99 = r.fct_p99();
  out.unfinished = r.unfinished();
  out.summary_s = since(t2);

  if (r.streaming) {
    const stats::LogHistogram& h = r.streaming->histogram();
    for (int b = 0; b < static_cast<int>(h.num_buckets()); ++b) {
      const double mid = std::sqrt(h.bucket_lo(b) * h.bucket_hi(b));
      fcts->insert(fcts->end(), h.bucket_count(b), mid);
    }
    out.completed = r.streaming->completed_flows();
    out.fct_sum = out.afct * static_cast<double>(out.completed);
  } else {
    for (const auto& rec : r.records) {
      if (rec.background || !rec.completed()) continue;
      fcts->push_back(rec.fct());
      out.fct_sum += rec.fct();
    }
    out.completed = fcts->size();
  }

  out.harness_setup_s = r.setup_wall_sec;
  out.barrier_wait_s = r.parallel_barrier_wait_sec;
  out.end_time = r.end_time;
  out.data_pkts = r.data_packets_sent;
  out.events = count(r, "engine.executed_events");
  out.workers_used = r.workers_used;
  out.fallback = r.parallel_fallback_reason.empty() ? 0 : 1;
  out.heap_closure_events = r.heap_closure_events;
  out.slab_grow_events = r.slab_grow_events;
  out.peak_live_flows = r.peak_live_flows;
  out.control_msgs = r.control.messages_sent;
  out.drops = count(r, "fabric.drops");
  out.marks = count(r, "fabric.marks");
  out.enqueues = count(r, "fabric.enqueues");
  out.route_bytes = count(r, "fabric.route_table_bytes");
  out.switches = count(r, "fabric.switches");
  out.rounds = count(r, "parallel.rounds");
  out.cross_posts = count(r, "parallel.cross_posts");
  out.quiet_rounds = count(r, "parallel.quiet_rounds");
  out.horizon_mean = metric(r, "parallel.horizon_width_mean");
  out.scan_mean = metric(r, "profile.engine.scan_mean");
  out.path_cache_hit_rate = metric(r, "profile.switch.path_cache_hit_rate");
  out.peak_pending = count(r, "profile.engine.peak_pending");

  out.peak_rss_mb = peak_rss_mb();

  if (replay_arb && !r.records.empty()) {
    out.arbitrate_ns = replay_arbitration(cfg, r.records);
  }
  return out;
}

// Simulated FCT statistics over the pooled flows of every set, through the
// program's own estimators: exact order statistics (stats/summary.h) or the
// streaming log histogram (stats/streaming.h).
struct Pooled {
  double afct = 0.0, p50 = 0.0, p99 = 0.0;
  std::uint64_t flows = 0;
};

Pooled pool(const ScenarioConfig& cfg, const std::vector<RunOut>& firsts,
            const std::vector<std::vector<double>>& fcts) {
  Pooled p;
  if (cfg.stats_mode == ScenarioConfig::StatsMode::kStreaming) {
    stats::LogHistogram hist;
    double sum = 0.0;
    for (const RunOut& r : firsts) {
      sum += r.fct_sum;
      p.flows += r.completed;
    }
    for (const auto& xs : fcts) {
      for (double x : xs) hist.add(x);
    }
    p.afct = ratio(sum, static_cast<double>(p.flows));
    p.p50 = hist.percentile(50.0);
    p.p99 = hist.percentile(99.0);
  } else {
    std::vector<stats::FlowRecord> recs;
    for (const auto& xs : fcts) {
      for (double x : xs) {
        stats::FlowRecord rec;
        rec.finish = x;
        recs.push_back(rec);
      }
    }
    p.flows = recs.size();
    p.afct = stats::afct(recs);
    p.p50 = stats::fct_percentile(recs, 50.0);
    p.p99 = stats::fct_percentile(recs, 99.0);
  }
  return p;
}

// --- Layer spans timed from outside -------------------------------------------

struct LayerOut {
  double build_s = 0.0;       // median span around TopologyBuilder::build
  double partition_s = 0.0;   // median span around partition_topology
  double port_for_ns = 0.0;   // host ns per Switch::port_for call
  double hops_per_pkt = 0.0;  // links crossed per data packet on its route
};

// Follows the packet's route from its source host, calling Switch::port_for
// at every switch. Returns links crossed, or -1 if the route breaks.
int walk_route(const net::Packet& pkt, net::Host& src,
               std::uint64_t* port_calls) {
  net::Node* node = src.uplink().destination();
  int hops = 1;
  while (node->id() != pkt.dst) {
    auto* sw = dynamic_cast<net::Switch*>(node);
    if (sw == nullptr || hops > 64) return -1;
    const int port = sw->port_for(pkt);
    ++*port_calls;
    if (port < 0) return -1;
    node = sw->port_link(port).destination();
    ++hops;
  }
  return hops;
}

LayerOut layer_spans(const ScenarioConfig& cfg) {
  LayerOut out;
  const proto::TransportProfile& profile = proto::profile_for(cfg.protocol);
  const topo::QueueFactory make_queue = profile.make_queue_factory(cfg);
  const std::unique_ptr<topo::TopologyBuilder> builder = builder_for(cfg);

  std::vector<double> builds;
  const Clock::time_point b0 = Clock::now();
  do {
    sim::Simulator sim;
    const Clock::time_point t = Clock::now();
    const std::unique_ptr<topo::BuiltTopology> built =
        builder->build(sim, make_queue);
    builds.push_back(since(t));
  } while (builds.size() < 5 || (since(b0) < 0.5 && builds.size() < 200));
  out.build_s = median(builds);

  sim::Simulator sim;
  const std::unique_ptr<topo::BuiltTopology> built =
      builder->build(sim, make_queue);
  topo::Topology& topo = built->topo();
  for (const auto& sw : topo.switches()) {
    sw->set_path_cache_capacity(cfg.path_cache_entries);
  }

  if (cfg.workers > 1) {
    std::vector<double> parts;
    const Clock::time_point p0 = Clock::now();
    do {
      const Clock::time_point t = Clock::now();
      const topo::Partition part = topo::partition_topology(topo, cfg.workers);
      parts.push_back(since(t));
      if (!part.usable()) throw std::runtime_error("unusable partition");
    } while (parts.size() < 5 || (since(p0) < 0.2 && parts.size() < 200));
    out.partition_s = median(parts);
  }

  // Route walks over the workload's own {src, dst, flow} tuples. The first
  // pass checks every route and weighs its hops by the flow's data packets.
  const std::vector<transport::Flow> flows =
      workload::generate_flows(cfg.traffic);
  struct Tuple {
    net::Packet pkt;
    net::Host* src;
  };
  std::vector<Tuple> tuples;
  tuples.reserve(flows.size());
  double hop_pkts = 0.0, pkts = 0.0;
  std::uint64_t calls = 0;
  for (const auto& f : flows) {
    Tuple t{};
    t.src = topo.host(static_cast<std::size_t>(f.src));
    t.pkt.flow = f.id;
    t.pkt.src = t.src->id();
    t.pkt.dst = topo.host(static_cast<std::size_t>(f.dst))->id();
    const int hops = walk_route(t.pkt, *t.src, &calls);
    if (hops < 0) throw std::runtime_error("route walk failed");
    const double n = std::ceil(static_cast<double>(f.size_bytes) / net::kMss);
    hop_pkts += n * hops;
    pkts += n;
    tuples.push_back(t);
  }
  out.hops_per_pkt = ratio(hop_pkts, pkts);

  calls = 0;
  const Clock::time_point w0 = Clock::now();
  do {
    for (const Tuple& t : tuples) walk_route(t.pkt, *t.src, &calls);
  } while (since(w0) < 0.2);
  out.port_for_ns = ratio(since(w0) * 1e9, static_cast<double>(calls));
  return out;
}

// --- Environment ---------------------------------------------------------------

// Steal ticks summed over all CPUs (/proc/stat "cpu" line, 8th field).
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  std::istringstream ss(line);
  std::string label;
  long long v[8] = {0};
  ss >> label;
  for (long long& x : v) ss >> x;
  return ss ? v[7] : -1;
}

double cpu_seconds() {
  double s = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage ru;
    getrusage(who, &ru);
    s += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  return s;
}

// --- Output ---------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: pase_perfbench --workload "
               "{tree_pase|fattree_k16|rack_churn|fattree_k8_w2} --seconds S "
               "[--seed N] [--trace 0|1]\n");
  return 2;
}

// Child side of run_child: one result for set j, written to stdout. Kinds:
// "run" (untraced), "setup" (untraced, stopped 1 simulated ns after the event
// loop starts: only its setup_s is used), "profile" (cfg.profile, plus the
// arbitration replay on set 0 of a PASE workload), "w1" (one worker) and
// "layers" (layer spans).
int child_main(const Workload& wl, const std::string& kind, int j) {
  ScenarioConfig cfg = wl.set_config(j);
  std::vector<double> xs;
  try {
    if (kind == "layers") return write_result(layer_spans(cfg), xs);
    if (kind == "setup") {
      cfg.max_duration = 1e-9;
    } else if (kind == "profile") {
      cfg.profile = true;
    } else if (kind == "w1") {
      cfg.workers = 1;
    } else if (kind != "run") {
      return usage();
    }
    const bool replay =
        kind == "profile" && j == 0 && cfg.protocol == Protocol::kPase;
    return write_result(timed_run(cfg, replay, &xs), xs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, child;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int trace = 0, set = 0;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      name = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else if (flag == "--child") {
      child = val;
    } else if (flag == "--set") {
      set = std::atoi(val);
    } else {
      return usage();
    }
  }
  Workload wl;
  if (!make_workload(name, seed, &wl)) return usage();
  if (!child.empty()) return child_main(wl, child, set);
  if (!(seconds > 0.0)) return usage();
  const ScenarioConfig& cfg = wl.cfg;
  const int K = wl.sets;

  const Clock::time_point start = Clock::now();
  const long long steal0 = steal_ticks();
  bool correct = true;
  const auto fail = [&correct, &name](const char* what, int set) {
    std::fprintf(stderr, "%s set %d: %s\n", name.c_str(), set, what);
    correct = false;
  };

  // Untraced runs: every set once, then (untraced pass only) more cycles
  // until `seconds` have passed. The cap keeps a run on a slow host well
  // inside the 180 s it may take.
  constexpr double kMaxMeasureSeconds = 100.0;
  std::vector<RunOut> runs;             // every run, in order
  std::vector<RunOut> firsts(K);        // each set's first run
  std::vector<std::vector<double>> fcts(K);
  std::uint64_t attempted = 0, failed = 0;
  for (int i = 0;; ++i) {
    if (i >= K && (trace != 0 || since(start) >= seconds ||
                   since(start) >= kMaxMeasureSeconds)) {
      break;
    }
    const int j = i % K;
    RunOut r;
    std::vector<double> xs;
    if (!run_child(wl, "run", j, &r, &xs)) {
      fail("run crashed", j);
      attempted += static_cast<std::uint64_t>(cfg.traffic.num_flows);
      failed += static_cast<std::uint64_t>(cfg.traffic.num_flows);
      if (i < K) return 1;
      continue;
    }
    attempted += r.attempted;
    failed += r.unfinished;
    if (r.unfinished != 0 || r.end_time >= cfg.max_duration) {
      fail("flows unfinished at max_duration", j);
    }
    if (cfg.workers > 1 && (r.workers_used != cfg.workers || r.fallback)) {
      fail("parallel engine did not run the requested workers", j);
    }
    if (i < K) {
      firsts[j] = r;
      fcts[j] = std::move(xs);
    } else if (!r.same_outcome(firsts[j])) {
      fail("repeated run diverged", j);
    }
    runs.push_back(r);
  }

  std::vector<double> rate, setup, rss, loop_ns, gen, harness, summary, wait;
  for (const RunOut& r : runs) {
    rate.push_back(ratio(static_cast<double>(r.data_pkts), r.wall_s()));
    setup.push_back(r.setup_s());
    rss.push_back(r.peak_rss_mb);
    loop_ns.push_back(ratio(r.loop_s() * 1e9, static_cast<double>(r.events)));
    gen.push_back(r.generate_s);
    harness.push_back(r.harness_setup_s);
    summary.push_back(r.summary_s);
    wait.push_back(ratio(r.barrier_wait_s, r.loop_s() * cfg.workers));
  }
  // Setup-only runs top the setup_s samples up to kMinSetupSamples, so a
  // workload with few, long timed runs still reports a median of several.
  constexpr std::size_t kMinSetupSamples = 11;
  for (int i = 0; trace == 0 && setup.size() < kMinSetupSamples; ++i) {
    RunOut r;
    if (!run_child(wl, "setup", i % K, &r)) {
      fail("setup-only run crashed", i % K);
      break;
    }
    setup.push_back(r.setup_s());
  }
  // Totals over the K sets (exact counts).
  RunOut tot;
  double horizon_sum = 0.0;
  std::vector<double> spans;
  for (const RunOut& r : firsts) {
    horizon_sum += r.horizon_mean;
    spans.push_back(r.arrival_span);
    tot.events += r.events;
    tot.data_pkts += r.data_pkts;
    tot.heap_closure_events += r.heap_closure_events;
    tot.slab_grow_events += r.slab_grow_events;
    tot.peak_live_flows = std::max(tot.peak_live_flows, r.peak_live_flows);
    tot.control_msgs += r.control_msgs;
    tot.drops += r.drops;
    tot.marks += r.marks;
    tot.enqueues += r.enqueues;
    tot.rounds += r.rounds;
    tot.cross_posts += r.cross_posts;
    tot.quiet_rounds += r.quiet_rounds;
  }
  const double pkts = static_cast<double>(tot.data_pkts);

  std::vector<Metric> metrics;
  if (trace == 0) {
    const Pooled p = pool(cfg, firsts, fcts);
    const double pass =
        correct && attempted > 0
            ? static_cast<double>(attempted - failed) /
                  static_cast<double>(attempted)
            : 0.0;
    metrics = {
        {"pkts_per_s", median(rate), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", median(rss), "MB"},
        {"sim_afct_ms", p.afct * 1e3, "sim_ms"},
        {"sim_fct_p50_ms", p.p50 * 1e3, "sim_ms"},
        {"sim_fct_p99_ms", p.p99 * 1e3, "sim_ms"},
        {"pass_frac", pass, "frac"},
    };
  } else {
    // Profiled pass over the first few sets: the program's own counters
    // (plus the arbitration replay on PASE), which must leave every result
    // bit-identical; and, for the parallel workload, a 1-worker run of the
    // same flows, which must match too.
    const int P = std::min(K, 3);
    std::uint64_t peak_pending = 0;
    double scan_sum = 0.0, hit_sum = 0.0, arb_ns = 0.0;
    double wall_on = 0.0, wall_off = 0.0, wall_w1 = 0.0, wall_w2 = 0.0;
    for (int j = 0; j < P; ++j) {
      RunOut p;
      if (!run_child(wl, "profile", j, &p)) {
        fail("profiled run crashed", j);
        continue;
      }
      if (!p.same_outcome(firsts[j]) || p.events != firsts[j].events) {
        fail("profile-on result differs from profile-off", j);
      }
      scan_sum += p.scan_mean;
      hit_sum += p.path_cache_hit_rate;
      peak_pending = std::max(peak_pending, p.peak_pending);
      if (j == 0) arb_ns = p.arbitrate_ns;
      wall_on += p.wall_s();
      wall_off += firsts[j].wall_s();

      if (cfg.workers > 1) {
        RunOut s;
        if (!run_child(wl, "w1", j, &s) ||
            s.data_pkts != firsts[j].data_pkts ||
            s.afct != firsts[j].afct || s.p99 != firsts[j].p99) {
          fail("1-worker run differs from the parallel run", j);
        } else {
          wall_w1 += s.wall_s();
          wall_w2 += firsts[j].wall_s();
        }
      }
    }

    LayerOut lay;
    if (!run_child(wl, "layers", 0, &lay)) {
      fail("layer spans failed", 0);
    }

    metrics = {
        {"sim.events", static_cast<double>(tot.events), "count"},
        {"sim.events_per_pkt", ratio(static_cast<double>(tot.events), pkts),
         "ratio"},
        {"sim.loop_ns_per_event", median(loop_ns), "ns"},
        {"sim.scan_mean", scan_sum / P, "slots"},
        {"sim.peak_pending", static_cast<double>(peak_pending), "count"},
        {"sim.heap_closure_events",
         static_cast<double>(tot.heap_closure_events), "count"},
        {"parallel.rounds", static_cast<double>(tot.rounds), "count"},
        {"parallel.cross_posts_per_pkt",
         ratio(static_cast<double>(tot.cross_posts), pkts), "ratio"},
        {"parallel.quiet_frac",
         ratio(static_cast<double>(tot.quiet_rounds),
               static_cast<double>(tot.rounds)),
         "frac"},
        {"parallel.horizon_us", horizon_sum / K * 1e6, "sim_us"},
        {"parallel.barrier_wait_frac", cfg.workers > 1 ? median(wait) : 0.0,
         "frac"},
        {"parallel.speedup_vs_w1", ratio(wall_w1, wall_w2), "ratio"},
        {"net.hops_per_pkt", lay.hops_per_pkt, "ratio"},
        {"net.port_for_ns", lay.port_for_ns, "ns"},
        {"net.path_cache_hit_rate", hit_sum / P, "frac"},
        {"net.drop_frac", ratio(static_cast<double>(tot.drops), pkts), "frac"},
        {"net.mark_frac",
         ratio(static_cast<double>(tot.marks),
               static_cast<double>(tot.enqueues)),
         "frac"},
        {"topo.build_s", lay.build_s, "s"},
        {"topo.route_bytes_per_switch",
         ratio(static_cast<double>(firsts[0].route_bytes),
               static_cast<double>(firsts[0].switches)),
         "bytes"},
        {"topo.partition_s", lay.partition_s, "s"},
        {"workload.generate_s", median(gen), "s"},
        {"workload.harness_setup_s", median(harness), "s"},
        {"workload.arrival_span_ms", median(spans) * 1e3, "sim_ms"},
        {"proto.peak_live_flows", static_cast<double>(tot.peak_live_flows),
         "count"},
        {"proto.slab_grow_events", static_cast<double>(tot.slab_grow_events),
         "count"},
        {"transport.data_pkts", pkts, "count"},
        {"core.control_msgs_per_pkt",
         ratio(static_cast<double>(tot.control_msgs), pkts), "ratio"},
        {"core.arbitrate_ns", arb_ns, "ns"},
        {"stats.summary_s", median(summary), "s"},
        {"obs.traced_overhead_frac", ratio(wall_on, wall_off) - 1.0, "frac"},
    };
  }

  // Host environment of this run (not a metric): lets a noisy set of runs be
  // recognized afterwards.
  const long long steal1 = steal_ticks();
  const double wall_total = since(start);
  const double cpu = cpu_seconds();
  std::printf("env workload=%s seed=%llu trace=%d runs=%zu nproc=%ld "
              "l2_kb=%ld l3_kb=%ld steal_ticks=%lld cpu_s=%.3f wall_s=%.3f "
              "cpu_per_wall=%.3f\n",
              name.c_str(), static_cast<unsigned long long>(seed), trace,
              runs.size(), sysconf(_SC_NPROCESSORS_ONLN),
              sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024,
              sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024,
              steal0 >= 0 && steal1 >= 0 ? steal1 - steal0 : -1LL, cpu,
              wall_total, ratio(cpu, wall_total));
  print_result(correct, attempted, failed, metrics);
  return 0;
}
