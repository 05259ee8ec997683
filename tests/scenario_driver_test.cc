// The scenario driver runs every worker count through one code path: one
// domain is the sequential run, more domains partition it. These tests pin
// what that path promises beyond the hand-picked golden battery:
//
//   - a randomized corpus of small scenarios (every topology kind, all six
//     protocols, several traffic patterns, exact and streaming stats,
//     recycling on and off) produces bit-identical records, counters and
//     summaries at 1, 2 and 4 workers — streaming summaries included, since
//     retired flows fold into the estimators in the same order at any
//     worker count;
//   - a run that stops with packets still in flight hands every one of them
//     back to the packet pool at teardown.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/packet.h"
#include "proto/protocol.h"
#include "trace_fingerprint.h"
#include "workload/scenario.h"

namespace pase {
namespace {

using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::SizeDistribution;

struct CorpusCase {
  std::string label;
  ScenarioConfig config;
};

// Draws in [lo, hi] from the raw engine output, so the corpus is the same
// with every standard library.
int draw(std::mt19937_64& rng, int lo, int hi) {
  return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
}

// A fixed-seed corpus of small random scenarios. Case i runs protocol
// i mod 6, so every protocol appears at least twice; everything else is
// drawn. Dimensions stay small enough for the whole corpus to run at three
// worker counts in seconds.
std::vector<CorpusCase> random_corpus() {
  const Protocol protocols[] = {Protocol::kDctcp, Protocol::kD2tcp,
                                Protocol::kL2dct, Protocol::kPdq,
                                Protocol::kPfabric, Protocol::kPase};
  const char* const kinds[] = {"rack", "tree", "fattree"};
  std::mt19937_64 rng(0x5eed2014);
  std::vector<CorpusCase> corpus;
  for (int i = 0; i < 18; ++i) {
    ScenarioConfig cfg;
    cfg.protocol = protocols[i % 6];
    // Cycle topology kinds independently of the protocol cycle (18 = 3 x 6
    // covers every protocol on every kind once).
    const int kind = (i / 6 + i) % 3;
    bool has_fabric_tier = true;
    if (kind == 0) {
      cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
      cfg.rack.num_hosts = draw(rng, 4, 16);
      has_fabric_tier = false;
    } else if (kind == 1) {
      cfg.topology = ScenarioConfig::TopologyKind::kThreeTier;
      cfg.tree.tors_per_agg = draw(rng, 1, 2);
      cfg.tree.num_tors = cfg.tree.tors_per_agg * draw(rng, 2, 3);
      cfg.tree.hosts_per_tor = draw(rng, 2, 4);
    } else {
      cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
      cfg.fattree.k = 4;
      cfg.fattree.num_pods = draw(rng, 2, 4);
    }
    const Pattern patterns[] = {Pattern::kIntraRackRandom,
                                Pattern::kWorkerAggregator, Pattern::kIncast,
                                Pattern::kLeftRight};
    Pattern pattern = patterns[draw(rng, 0, has_fabric_tier ? 3 : 2)];
    cfg.traffic.pattern = pattern;
    if (pattern == Pattern::kIncast) {
      cfg.traffic.incast_fanout = draw(rng, 2, 3);
    }
    cfg.traffic.size_dist = rng() % 2 == 0 ? SizeDistribution::kUniform
                                           : SizeDistribution::kWebSearch;
    cfg.traffic.load = 0.2 + 0.1 * draw(rng, 0, 6);
    cfg.traffic.num_flows = draw(rng, 40, 120);
    if (rng() % 3 == 0) {
      cfg.traffic.deadline_min = 5e-3;
      cfg.traffic.deadline_max = 25e-3;
    }
    cfg.traffic.num_background_flows = draw(rng, 0, 2);
    cfg.traffic.seed = rng() % 1000 + 1;
    cfg.stats_mode = rng() % 2 == 0 ? ScenarioConfig::StatsMode::kExact
                                    : ScenarioConfig::StatsMode::kStreaming;
    cfg.recycle_endpoints = rng() % 2 == 0;
    const bool exact = cfg.stats_mode == ScenarioConfig::StatsMode::kExact;
    corpus.push_back({"#" + std::to_string(i) + " " +
                          workload::protocol_name(cfg.protocol) + "/" +
                          kinds[kind] + (exact ? "/exact" : "/streaming") +
                          (cfg.recycle_endpoints ? "/recycle" : "/keep"),
                      cfg});
  }
  return corpus;
}

// Every summary a consumer can read, exact or streaming, compared with
// EXPECT_EQ on doubles: bit-identical, not close.
void expect_same_summary(const workload::ScenarioResult& a,
                         const workload::ScenarioResult& b,
                         const std::string& where) {
  EXPECT_EQ(trace_fingerprint(a), trace_fingerprint(b)) << where;
  EXPECT_EQ(a.total_flows(), b.total_flows()) << where;
  EXPECT_EQ(a.unfinished(), b.unfinished()) << where;
  EXPECT_EQ(a.afct(), b.afct()) << where;
  EXPECT_EQ(a.fct_percentile(50.0), b.fct_percentile(50.0)) << where;
  EXPECT_EQ(a.fct_p99(), b.fct_p99()) << where;
  EXPECT_EQ(a.app_throughput(), b.app_throughput()) << where;
  const auto ca = a.fct_cdf(20);
  const auto cb = b.fct_cdf(20);
  ASSERT_EQ(ca.size(), cb.size()) << where;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].x, cb[i].x) << where << " cdf point " << i;
    EXPECT_EQ(ca[i].fraction, cb[i].fraction) << where << " cdf point " << i;
  }
  ASSERT_EQ(a.streaming != nullptr, b.streaming != nullptr) << where;
  if (a.streaming) {
    // Order-sensitive folds: a floating-point sum and the P² markers.
    EXPECT_EQ(a.streaming->completed_flows(), b.streaming->completed_flows())
        << where;
    EXPECT_EQ(a.streaming->terminated_flows(), b.streaming->terminated_flows())
        << where;
    EXPECT_EQ(a.streaming->p2_p50(), b.streaming->p2_p50()) << where;
    EXPECT_EQ(a.streaming->p2_p95(), b.streaming->p2_p95()) << where;
    EXPECT_EQ(a.streaming->p2_p99(), b.streaming->p2_p99()) << where;
  }
}

TEST(DifferentialWorkers, RandomCorpusBitIdenticalAtOneTwoFourWorkers) {
  const std::vector<CorpusCase> corpus = random_corpus();
  ASSERT_GE(corpus.size(), 12u);
  for (const CorpusCase& c : corpus) {
    const workload::ScenarioResult one = workload::run_scenario(c.config);
    EXPECT_EQ(one.workers_used, 1) << c.label;
    EXPECT_GT(one.total_flows(), 0u) << c.label;
    for (int workers : {2, 4}) {
      ScenarioConfig cfg = c.config;
      cfg.workers = workers;
      const workload::ScenarioResult r = workload::run_scenario(cfg);
      const std::string where =
          c.label + " at workers=" + std::to_string(workers);
      EXPECT_GT(r.workers_used, 1) << where;
      EXPECT_TRUE(r.parallel_fallback_reason.empty())
          << where << ": " << r.parallel_fallback_reason;
      expect_same_summary(one, r, where);
    }
  }
}

// The corpus must actually exercise what it claims to cover.
TEST(DifferentialWorkers, CorpusCoversEveryDimension) {
  const std::vector<CorpusCase> corpus = random_corpus();
  std::vector<int> per_protocol(6, 0), per_kind(3, 0);
  int streaming = 0, exact = 0, recycle = 0, keep = 0, left_right = 0;
  for (const CorpusCase& c : corpus) {
    ++per_protocol[static_cast<std::size_t>(c.config.protocol)];
    ++per_kind[static_cast<std::size_t>(c.config.topology)];
    (c.config.stats_mode == ScenarioConfig::StatsMode::kStreaming ? streaming
                                                                  : exact)++;
    (c.config.recycle_endpoints ? recycle : keep)++;
    left_right += c.config.traffic.pattern == Pattern::kLeftRight;
  }
  for (int n : per_protocol) EXPECT_GE(n, 2);
  for (int n : per_kind) EXPECT_GE(n, 2);
  EXPECT_GT(streaming, 0);
  EXPECT_GT(exact, 0);
  EXPECT_GT(recycle, 0);
  EXPECT_GT(keep, 0);
  EXPECT_GT(left_right, 0);
}

// A run ends as soon as its short flows finish, with the background flows
// still sending: packets are serializing on links and propagating toward
// their next hop, each owned by a pending calendar event. Teardown must
// hand every one back to the pool, so after the run the pool holds every
// packet it ever created.
TEST(ScenarioTeardown, ReturnsEveryInFlightPacketToThePool) {
  net::PacketPool& pool = net::PacketPool::local();
  pool.drain();
  // Above the harness's own prewarm for this rack, so the pool's packet
  // population is this prewarm plus whatever acquire() had to allocate.
  constexpr std::size_t kWarm = 4096;
  pool.prewarm(kWarm);
  const std::uint64_t misses_before = pool.misses();

  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDctcp;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 8;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 40;
  cfg.traffic.num_background_flows = 2;
  cfg.traffic.seed = 3;
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  ASSERT_EQ(r.unfinished(), 0u);
  ASSERT_LT(r.end_time, cfg.max_duration) << "the run must stop early";

  const std::uint64_t created = kWarm + (pool.misses() - misses_before);
  EXPECT_EQ(pool.available(), created)
      << pool.available() << " of " << created
      << " packets came back to the pool";
  pool.drain();
}

}  // namespace
}  // namespace pase
