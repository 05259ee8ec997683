// Conservative parallel execution must be bit-identical to sequential.
//
// The same 18-case battery the hot-path golden test pins is re-run here at
// workers = 2, 4 and 8 and every trace fingerprint must equal the
// sequential run's — not "statistically close": identical. Any divergence
// means an event ordering decision leaked a dependence on thread scheduling
// or the lineage merge order diverged from the sequential FIFO.
//
// All six built-in profiles are parallel-safe — PASE's arbitration plane is
// sharded by arbitrating node (see arbitration_plane.h) — so every case must
// actually run partitioned: workers_used > 1 and an empty fallback reason.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "net/droptail_queue.h"
#include "sim/det_lineage.h"
#include "sim/simulator.h"
#include "topo/builder.h"
#include "topo/partition.h"
#include "trace_fingerprint.h"

namespace pase {
namespace {

// Sequential fingerprints computed once and shared by all worker counts.
const std::vector<std::uint64_t>& sequential_fingerprints() {
  static const std::vector<std::uint64_t> fps = [] {
    std::vector<std::uint64_t> v;
    for (const auto& c : fingerprint_battery()) {
      v.push_back(trace_fingerprint(workload::run_scenario(c.config)));
    }
    return v;
  }();
  return fps;
}

void expect_bit_identical(int workers) {
  const auto cases = fingerprint_battery();
  const auto& seq = sequential_fingerprints();
  ASSERT_EQ(cases.size(), seq.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    workload::ScenarioConfig cfg = cases[i].config;
    cfg.workers = workers;
    const workload::ScenarioResult r = workload::run_scenario(cfg);
    EXPECT_EQ(trace_fingerprint(r), seq[i])
        << cases[i].label << " diverged from the sequential trace at workers="
        << workers;
    EXPECT_GT(r.workers_used, 1)
        << cases[i].label << " unexpectedly fell back to sequential";
    EXPECT_TRUE(r.parallel_fallback_reason.empty())
        << cases[i].label << ": " << r.parallel_fallback_reason;
  }
}

TEST(ParallelGolden, BitIdenticalAtTwoWorkers) { expect_bit_identical(2); }
TEST(ParallelGolden, BitIdenticalAtFourWorkers) { expect_bit_identical(4); }
TEST(ParallelGolden, BitIdenticalAtEightWorkers) { expect_bit_identical(8); }

// PASE on a multipath Clos fabric is the hardest case for the sharded
// arbitration plane: delegation timers on every pod switch, fabric
// arbitration across pods, and ECMP route state — all of it partitioned.
// The fingerprint must not move across any worker count.
TEST(ParallelGolden, PaseFatTreeBitIdenticalAcrossWorkerCounts) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kPase;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 4;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.4;
  cfg.traffic.num_flows = 120;
  cfg.traffic.seed = 9;

  const std::uint64_t seq = trace_fingerprint(workload::run_scenario(cfg));
  for (int workers : {2, 4, 8}) {
    cfg.workers = workers;
    const workload::ScenarioResult r = workload::run_scenario(cfg);
    EXPECT_EQ(trace_fingerprint(r), seq)
        << "PASE/fat-tree diverged at workers=" << workers;
    EXPECT_GT(r.workers_used, 1);
    EXPECT_TRUE(r.parallel_fallback_reason.empty())
        << r.parallel_fallback_reason;
  }
}

// A zero-delay cut link gives zero lookahead: the conservative window is
// empty and the harness must fall back to sequential execution (and still
// produce the sequential trace).
TEST(ParallelEngine, ZeroLookaheadFallsBackToSequential) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 8;
  cfg.rack.per_link_delay = 0.0;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 40;
  cfg.traffic.seed = 7;

  const workload::ScenarioResult seq = workload::run_scenario(cfg);
  cfg.workers = 4;
  const workload::ScenarioResult par = workload::run_scenario(cfg);
  EXPECT_EQ(par.workers_used, 1);
  EXPECT_FALSE(par.parallel_fallback_reason.empty());
  EXPECT_EQ(trace_fingerprint(par), trace_fingerprint(seq));
}

// Cross-domain arbitration traffic must be *counted* identically too: the
// sharded plane keeps per-arbitrator counters that fold into the same totals
// the sequential plane accumulates in one struct. A mismatch means a shard
// double-counted (or a cut-crossing control packet was attributed twice).
TEST(ParallelEngine, ArbitrationMessagesCountedIdenticallySeqVsParallel) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kPase;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kThreeTier;
  cfg.tree.num_tors = 4;
  cfg.tree.hosts_per_tor = 4;
  cfg.traffic.pattern = workload::Pattern::kLeftRight;
  cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = 100;
  cfg.traffic.seed = 23;

  const workload::ScenarioResult seq = workload::run_scenario(cfg);
  cfg.workers = 4;
  const workload::ScenarioResult par = workload::run_scenario(cfg);
  ASSERT_GT(par.workers_used, 1) << par.parallel_fallback_reason;
  EXPECT_GT(seq.control.messages_sent, 0u);
  EXPECT_EQ(par.control.messages_sent, seq.control.messages_sent);
  EXPECT_EQ(par.control.requests, seq.control.requests);
  EXPECT_EQ(par.control.responses, seq.control.responses);
  EXPECT_EQ(par.control.fins, seq.control.fins);
  EXPECT_EQ(par.control.delegation_msgs, seq.control.delegation_msgs);
  EXPECT_EQ(par.control.arbitrations, seq.control.arbitrations);
  EXPECT_EQ(par.control.pruned_requests, seq.control.pruned_requests);
}

// The conditional horizon may only merge windows, never split them: for the
// same scenario it must decide at most as many rounds as the static min-cut
// baseline — while producing the exact same trace (the probe moves *when*
// events run, never their order).
TEST(ParallelEngine, ConditionalHorizonNeverExceedsStaticRounds) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 4;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.3;
  cfg.traffic.num_flows = 150;
  cfg.traffic.seed = 13;
  cfg.workers = 4;

  const auto rounds_of = [](const workload::ScenarioResult& r) {
    for (const auto& m : r.metrics) {
      if (m.name == "parallel.rounds") return m.value;
    }
    return -1.0;
  };

  cfg.horizon_mode = workload::ScenarioConfig::HorizonMode::kConditional;
  const workload::ScenarioResult cond = workload::run_scenario(cfg);
  cfg.horizon_mode = workload::ScenarioConfig::HorizonMode::kStaticMinCut;
  const workload::ScenarioResult stat = workload::run_scenario(cfg);

  ASSERT_GT(cond.workers_used, 1) << cond.parallel_fallback_reason;
  ASSERT_GT(stat.workers_used, 1) << stat.parallel_fallback_reason;
  EXPECT_EQ(trace_fingerprint(cond), trace_fingerprint(stat));
  EXPECT_GT(rounds_of(stat), 0.0);
  EXPECT_LE(rounds_of(cond), rounds_of(stat));
}

// Every built-in profile must actually partition under workers > 1, and the
// sweep JSON must surface both the domain count and the (empty) fallback
// reason so a silent sequential fallback can't hide in a benchmark table.
TEST(ParallelEngine, SweepSurfacesEmptyFallbackReasonForAllSixProfiles) {
  const workload::Protocol protocols[] = {
      workload::Protocol::kDctcp, workload::Protocol::kD2tcp,
      workload::Protocol::kL2dct, workload::Protocol::kPdq,
      workload::Protocol::kPfabric, workload::Protocol::kPase};
  std::vector<exp::SweepCase> cases;
  std::vector<workload::ScenarioConfig> configs;
  for (const auto p : protocols) {
    exp::SweepCase c;
    c.label = workload::protocol_name(p);
    c.config.protocol = p;
    c.config.topology = workload::ScenarioConfig::TopologyKind::kThreeTier;
    c.config.tree.num_tors = 4;
    c.config.tree.hosts_per_tor = 4;
    c.config.traffic.pattern = workload::Pattern::kLeftRight;
    c.config.traffic.load = 0.5;
    c.config.traffic.num_flows = 60;
    c.config.traffic.seed = 3;
    c.config.workers = 4;
    configs.push_back(c.config);
    cases.push_back(std::move(c));
  }
  const std::vector<workload::ScenarioResult> results =
      exp::SweepRunner(2).run(configs);
  ASSERT_EQ(results.size(), std::size(protocols));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GT(results[i].workers_used, 1) << cases[i].label;
    EXPECT_TRUE(results[i].parallel_fallback_reason.empty())
        << cases[i].label << ": " << results[i].parallel_fallback_reason;
  }
  const std::string json = exp::sweep_to_json("fallback", cases, results);
  EXPECT_NE(json.find("\"workers_used\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"parallel_fallback_reason\": \"\""), std::string::npos);
}

// --- Lineage compaction -----------------------------------------------------

// Rebasing the lineage at a barrier must not move a single comparison. Two
// arenas intern the same seeded random event forest; one is rebased at every
// barrier, the other keeps everything. Event times sit on a coarse grid and
// children often fire at their parent's instant, so same-sigma ties — the
// only comparisons the lineage decides — are the common case. Setup roots
// mix control-plane timers (k below setup_base, some pending across many
// barriers) with flow launches interned after earlier rebases. At every
// barrier both arenas must agree on every pair of pending events and the
// executing-event cursor: once the interval's launches are staged (fresh
// roots against survivors), just before the rebase (fresh children against
// survivors of the previous one) and just after it.
TEST(DetLineage, RebasePreservesOrder) {
  using Id = sim::DetLineage::NodeId;
  constexpr Id kNull = sim::DetLineage::kNull;
  constexpr std::uint32_t kSetupBase = 6;
  constexpr int kDomains = 3;
  sim::DetLineage full(kDomains);
  sim::DetLineage rebased(kDomains);
  std::mt19937_64 rng(20140817);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };

  struct Ev {
    double t;
    Id a;  // node in `full`
    Id b;  // node in `rebased`
  };
  std::vector<Ev> pending;
  const auto add_root = [&](std::uint32_t k, double t) {
    const int d = pick(kDomains);
    pending.push_back({t, full.add(d, 0.0, kNull, k),
                       rebased.add(d, 0.0, kNull, k)});
  };
  // Control-plane timers: some fire early, two stay pending to the end.
  for (std::uint32_t k = 0; k < kSetupBase; ++k) {
    add_root(k, k < 2 ? 1000.0 : static_cast<double>(pick(4)));
  }

  Ev cursor{0.0, kNull, kNull};
  std::uint32_t next_launch = 0;
  const auto expect_agree = [&](const char* when, int barrier) {
    std::vector<Ev> live = pending;
    if (cursor.a != kNull) live.push_back(cursor);
    for (const Ev& x : live) {
      for (const Ev& y : live) {
        ASSERT_EQ(full.less(x.a, y.a), rebased.less(x.b, y.b))
            << when << " barrier " << barrier;
      }
    }
  };

  for (int barrier = 1; barrier <= 40; ++barrier) {
    const double target = 3.0 * barrier;
    // Flow launches staged for this interval, strictly after the previous
    // barrier: setup roots interned after the previous rebase.
    for (int j = 0; j < 24; ++j) {
      add_root(kSetupBase + next_launch++, target - 2.0 + pick(3));
    }
    expect_agree("after staging", barrier);
    // Execute every pending event at or before the target; each schedules
    // up to three children at its own instant or one step later.
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].t > target) {
        ++i;
        continue;
      }
      const Ev ev = pending[i];
      pending[i] = pending.back();
      pending.pop_back();
      cursor = ev;
      const int children = pending.size() < 300 ? pick(4) : 0;
      for (int k = 0; k < children; ++k) {
        const int d = pick(kDomains);
        const double t = ev.t + static_cast<double>(pick(4) / 2);
        pending.push_back(
            {t, full.add(d, ev.t, ev.a, static_cast<std::uint32_t>(k)),
             rebased.add(d, ev.t, ev.b, static_cast<std::uint32_t>(k))});
      }
    }
    expect_agree("before rebase", barrier);

    std::vector<Id*> refs;
    for (Ev& e : pending) refs.push_back(&e.b);
    refs.push_back(&cursor.b);
    if (!pending.empty()) refs.push_back(&pending.front().b);  // duplicate
    Id none = kNull;
    refs.push_back(&none);
    rebased.rebase(refs);
    EXPECT_EQ(none, kNull);
    EXPECT_EQ(rebased.rebases(), static_cast<std::uint64_t>(barrier));
    expect_agree("after rebase", barrier);
  }
  EXPECT_LT(rebased.nodes(), full.nodes() / 4);
  EXPECT_LE(rebased.peak_nodes(), full.nodes());
  EXPECT_EQ(full.peak_nodes(), full.nodes());
}

// Compaction bounds lineage memory by one chunk's worth of nodes, not by
// run length: quadrupling the flows of a steady any-to-any workload (same
// load, so a run about four times as long) must leave the node high-water
// mark nearly flat. Uniform sizes keep the per-chunk load steady, and the
// shorter run already spans several chunks, so its peak is representative.
TEST(ParallelEngine, LineagePeakIndependentOfRunLength) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 4;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.size_dist = workload::SizeDistribution::kUniform;
  cfg.traffic.load = 0.3;
  cfg.traffic.seed = 31;
  cfg.workers = 2;

  const auto metric = [](const workload::ScenarioResult& r,
                         const char* name) {
    for (const auto& m : r.metrics) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "metric " << name << " missing";
    return 0.0;
  };

  cfg.traffic.num_flows = 400;
  const workload::ScenarioResult shorter = workload::run_scenario(cfg);
  cfg.traffic.num_flows = 1600;
  const workload::ScenarioResult longer = workload::run_scenario(cfg);
  ASSERT_EQ(shorter.workers_used, 2) << shorter.parallel_fallback_reason;
  ASSERT_EQ(longer.workers_used, 2) << longer.parallel_fallback_reason;
  EXPECT_EQ(shorter.unfinished(), 0u);
  EXPECT_EQ(longer.unfinished(), 0u);

  const double ev_short = metric(shorter, "engine.executed_events");
  const double ev_long = metric(longer, "engine.executed_events");
  const double peak_short = metric(shorter, "parallel.lineage_peak_nodes");
  const double peak_long = metric(longer, "parallel.lineage_peak_nodes");
  EXPECT_GE(ev_long, 3.0 * ev_short);
  EXPECT_GT(peak_short, 0.0);
  EXPECT_LT(peak_long, 1.5 * peak_short)
      << "peaks " << peak_short << " -> " << peak_long << " for events "
      << ev_short << " -> " << ev_long;
  EXPECT_GT(metric(longer, "parallel.lineage_compactions"),
            metric(shorter, "parallel.lineage_compactions"));
}

// --- Partitioner ------------------------------------------------------------

TEST(TopologyPartition, RacksStayIntactAndCutsCarryLookahead) {
  sim::Simulator sim;
  topo::ThreeTierConfig cfg;
  cfg.num_tors = 4;
  cfg.hosts_per_tor = 4;
  topo::ThreeTierBuilder builder(cfg);
  auto built = builder.build(sim, [](double) {
    return std::make_unique<net::DropTailQueue>(100);
  });
  ASSERT_NE(built, nullptr);
  topo::Topology& topo = built->topo();

  const topo::Partition part = topo::partition_topology(topo, 4);
  EXPECT_EQ(part.domains, 4);
  EXPECT_TRUE(part.usable());
  // Hosts split into contiguous quarters, so each rack (4 hosts) lands whole
  // in one domain, and its ToR follows its first host.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(part.domain_of_node(topo.host(static_cast<std::size_t>(i))->id()),
              i / 4)
        << "host " << i;
  }
  // Cut links exist (racks talk through agg/core) and the lookahead is the
  // uniform per-link propagation delay.
  EXPECT_FALSE(part.cut_links.empty());
  EXPECT_DOUBLE_EQ(part.lookahead, cfg.per_link_delay);
  for (const auto& c : part.cut_links) {
    EXPECT_NE(c.src_domain, c.dst_domain);
    EXPECT_DOUBLE_EQ(c.link->prop_delay(), cfg.per_link_delay);
  }
}

TEST(TopologyPartition, ClampsDomainsToHostCount) {
  sim::Simulator sim;
  topo::SingleRackConfig cfg;
  cfg.num_hosts = 3;
  topo::SingleRackBuilder builder(cfg);
  auto built = builder.build(
      sim, [](double) { return std::make_unique<net::DropTailQueue>(100); });
  const topo::Partition part =
      topo::partition_topology(built->topo(), 16);
  EXPECT_EQ(part.domains, 3);
  for (int d : part.domain_of) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 3);
  }
}

TEST(TopologyPartition, SingleDomainIsUnusable) {
  sim::Simulator sim;
  topo::SingleRackConfig cfg;
  cfg.num_hosts = 4;
  topo::SingleRackBuilder builder(cfg);
  auto built = builder.build(
      sim, [](double) { return std::make_unique<net::DropTailQueue>(100); });
  const topo::Partition part = topo::partition_topology(built->topo(), 1);
  EXPECT_EQ(part.domains, 1);
  EXPECT_FALSE(part.usable());
  EXPECT_TRUE(part.cut_links.empty());
}

}  // namespace
}  // namespace pase
