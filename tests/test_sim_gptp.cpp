// gPTP stack tests: clock inverse-mapping properties, BMCA tie-break
// ordering, election determinism and sync-tree shape across topology
// families, grandmaster-kill re-election, servo tracking of drifting
// clocks, and the facade-level gPTP results (closed books, margin
// violations).
#include <gtest/gtest.h>

#include <vector>

#include "etsn/etsn.h"
#include "sim/gptp.h"
#include "sim/kernel.h"
#include "workload/iec60802.h"

namespace etsn::sim {
namespace {

// --- Clock::globalTimeFor round trip -----------------------------------

// globalTimeFor must return the smallest preimage of a local timestamp.
// Where localTime is injective the round trip is exact; at a plateau
// (negative drift repeats one local value every 1/|drift| ns) the left
// edge is the only consistent answer.
void checkRoundTrip(const Clock& c, TimeNs t) {
  const TimeNs local = c.localTime(t);
  const TimeNs g = c.globalTimeFor(local);
  EXPECT_EQ(c.localTime(g), local) << "not a preimage at t=" << t;
  EXPECT_GT(local, c.localTime(g - 1)) << "not the left edge at t=" << t;
  if (c.localTime(t - 1) != local) {
    EXPECT_EQ(g, t) << "injective point must round-trip exactly";
  } else {
    EXPECT_EQ(g, t - 1) << "plateau must resolve to its left edge";
  }
}

TEST(GptpClock, GlobalTimeForRoundTripsAcrossDriftExtremes) {
  const double drifts[] = {-200'000, -50'000, -3'777, -1, 0,
                           1,        499,     50'000, 200'000};
  const TimeNs times[] = {0,
                          1,
                          12'345,
                          seconds(1) + 7,
                          seconds(3'600),         // one hour
                          seconds(86'400) + 991};  // a day, off-grid
  for (const double d : drifts) {
    Clock c(d);
    for (const TimeNs t : times) checkRoundTrip(c, t);
    // The same properties must survive a sawtooth resync and servo steps
    // (base/epoch both nonzero, positive and negative corrections).
    c.synchronize(seconds(2), 37);
    c.stepBy(-141);
    for (const TimeNs t : times) {
      checkRoundTrip(c, t + seconds(2));
    }
  }
}

TEST(GptpClock, LocalTimeIsMonotone) {
  for (const double d : {-200'000.0, -1.0, 0.0, 200'000.0}) {
    Clock c(d);
    TimeNs prev = c.localTime(seconds(1));
    for (TimeNs t = seconds(1) + 1; t < seconds(1) + 20'000; ++t) {
      const TimeNs cur = c.localTime(t);
      ASSERT_GE(cur, prev) << "drift " << d << " t " << t;
      prev = cur;
    }
  }
}

// --- BMCA ordering -------------------------------------------------------

TEST(GptpBmca, TieBreakOrdering) {
  const GptpPriority base{100, 6, 5};
  GptpPriority better = base;

  better.priority1 = 99;
  EXPECT_TRUE(betterPriority(better, base));
  EXPECT_FALSE(betterPriority(base, better));

  // clockClass only breaks priority1 ties.
  better = base;
  better.priority1 = 101;
  better.clockClass = 0;
  EXPECT_FALSE(betterPriority(better, base));
  better.priority1 = 100;
  EXPECT_TRUE(betterPriority(better, base));

  // identity is the final tie-break.
  better = base;
  better.identity = 4;
  EXPECT_TRUE(betterPriority(better, base));
  better.identity = 6;
  EXPECT_FALSE(betterPriority(better, base));

  EXPECT_FALSE(betterPriority(base, base));  // strict order
  EXPECT_TRUE(base == base);
}

// --- Election and tree shape across topology families -------------------

struct Election {
  net::Topology topo;
  Simulator sim;
  std::vector<Clock> clocks;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<Gptp> gptp;

  Election(workload::TopologyKind kind, GptpConfig cfg, TimeNs duration,
           const FaultPlan* plan = nullptr,
           std::vector<double> driftsPpb = {}) {
    topo = workload::makeScaledTopology(kind, 4, 1);
    for (net::NodeId n = 0; n < topo.numNodes(); ++n) {
      const std::size_t i = static_cast<std::size_t>(n);
      clocks.emplace_back(i < driftsPpb.size() ? driftsPpb[i] : 0.0);
    }
    if (plan != nullptr) {
      faults = std::make_unique<FaultInjector>(topo, *plan, 1);
    }
    gptp = std::make_unique<Gptp>(sim, topo, clocks, cfg, faults.get(),
                                  duration);
    gptp->start();
    sim.run(duration);
    gptp->finalize();
  }
};

// Walking slave ports from any node must reach the root without cycles —
// the elected sync "tree" really is a spanning tree rooted at the best
// master.
void expectSpanningTree(const Election& e, net::NodeId root) {
  EXPECT_EQ(e.gptp->slavePortOf(root), net::kNoLink);
  for (net::NodeId n = 0; n < e.topo.numNodes(); ++n) {
    EXPECT_EQ(e.gptp->masterIdentityOf(n), Gptp::identityOf(root)) << n;
    net::NodeId cur = n;
    int hops = 0;
    while (cur != root) {
      const net::LinkId slave = e.gptp->slavePortOf(cur);
      ASSERT_NE(slave, net::kNoLink) << "node " << cur << " has no parent";
      // The slave port is an ingress link: traffic flows parent -> cur.
      ASSERT_EQ(e.topo.link(slave).to, cur);
      cur = e.topo.link(slave).from;
      ASSERT_LE(++hops, e.topo.numNodes()) << "cycle in sync tree";
    }
  }
}

TEST(GptpBmca, ElectsSpanningTreeOnEveryTopologyFamily) {
  using workload::TopologyKind;
  for (const TopologyKind kind : {TopologyKind::Line, TopologyKind::Ring,
                                  TopologyKind::Tree, TopologyKind::Mesh}) {
    GptpConfig cfg;
    cfg.candidates = {{0, 100, 6}};  // switch 0 nominated
    Election e(kind, cfg, milliseconds(500));
    expectSpanningTree(e, 0);
    // Everybody but the root gets servo corrections down the tree.
    for (net::NodeId n = 1; n < e.topo.numNodes(); ++n) {
      EXPECT_GT(e.gptp->nodeStats(n).corrections, 0) << n;
    }
    EXPECT_EQ(e.gptp->nodeStats(0).corrections, 0);
    const GptpStats& s = e.gptp->stats();
    EXPECT_EQ(s.framesSent,
              s.framesDelivered + s.framesDropped + s.framesInFlight);
    EXPECT_EQ(s.framesDropped, 0);  // no fault plan
  }
}

TEST(GptpBmca, DefaultElectionIsDeterministicAndSeedIndependent) {
  // No candidates: every node claims with the default vector and the
  // lowest identity (node 0) must win — regardless of clock drift, which
  // is the only seed-dependent input.
  GptpConfig cfg;
  Election a(workload::TopologyKind::Mesh, cfg, milliseconds(500));
  Election b(workload::TopologyKind::Mesh, cfg, milliseconds(500), nullptr,
             {40'000, -35'000, 10'000, -5'000, 25'000, 0, -40'000, 15'000});
  expectSpanningTree(a, 0);
  expectSpanningTree(b, 0);
  for (net::NodeId n = 0; n < a.topo.numNodes(); ++n) {
    EXPECT_EQ(a.gptp->slavePortOf(n), b.gptp->slavePortOf(n)) << n;
  }
  EXPECT_EQ(a.gptp->stats().announcesSent, b.gptp->stats().announcesSent);
}

TEST(GptpBmca, ReelectsAfterGrandmasterKillOnEveryTopologyFamily) {
  using workload::TopologyKind;
  for (const TopologyKind kind : {TopologyKind::Line, TopologyKind::Ring,
                                  TopologyKind::Tree, TopologyKind::Mesh}) {
    GptpConfig cfg;
    cfg.candidates = {{0, 100, 6}, {1, 110, 6}};  // runner-up on node 1
    FaultPlan plan;
    GptpKill kill;
    kill.node = 0;
    kill.at = milliseconds(500);
    plan.gptpKills = {kill};
    Election e(kind, cfg, milliseconds(1'500), &plan);

    // A dead stack partitions gPTP at that node (data ports still
    // forward, but announces are not relayed): nodes still reachable
    // from the runner-up without crossing the corpse follow it; any cut
    // off fragment elects its own partition-best (lowest identity, since
    // no candidate lives there).
    std::vector<bool> reachable(static_cast<std::size_t>(e.topo.numNodes()));
    reachable[1] = true;
    std::vector<net::NodeId> frontier = {1};
    while (!frontier.empty()) {
      const net::NodeId u = frontier.back();
      frontier.pop_back();
      for (const net::LinkId l : e.topo.outLinks(u)) {
        const net::NodeId w = e.topo.link(l).to;
        if (w == 0 || reachable[static_cast<std::size_t>(w)]) continue;
        reachable[static_cast<std::size_t>(w)] = true;
        frontier.push_back(w);
      }
    }
    for (net::NodeId n = 1; n < e.topo.numNodes(); ++n) {
      if (reachable[static_cast<std::size_t>(n)]) {
        EXPECT_EQ(e.gptp->masterIdentityOf(n), Gptp::identityOf(1))
            << "kind " << static_cast<int>(kind) << " node " << n;
      } else {
        EXPECT_NE(e.gptp->masterIdentityOf(n), Gptp::identityOf(0))
            << "kind " << static_cast<int>(kind) << " node " << n;
      }
    }
    // The dead stack keeps believing in itself.
    EXPECT_EQ(e.gptp->masterIdentityOf(0), Gptp::identityOf(0));
    EXPECT_EQ(e.gptp->slavePortOf(1), net::kNoLink);
    EXPECT_GE(e.gptp->stats().reelections, 1);
    // Re-election time: timeout detection (3 announce intervals after the
    // last refresh) to the first correction under the new master — well
    // under a second at the default cadences, never instantaneous.
    TimeNs worst = 0;
    for (net::NodeId n = 1; n < e.topo.numNodes(); ++n) {
      worst = std::max(worst, e.gptp->nodeStats(n).reelectionTimeNs);
    }
    EXPECT_GT(worst, 0);
    EXPECT_LT(worst, milliseconds(700));
  }
}

// --- Servo behavior with drifting clocks ---------------------------------

TEST(GptpServo, TracksDriftAndDegradesPerHop) {
  GptpConfig cfg;
  cfg.candidates = {{0, 100, 6}};
  // Line of 4 switches: node 0 (GM) runs fast, the others sag behind at
  // increasing hop distance.
  Election e(workload::TopologyKind::Line, cfg, seconds(2), nullptr,
             {50'000, 0, -20'000, 10'000});
  expectSpanningTree(e, 0);
  for (net::NodeId n = 1; n < 4; ++n) {
    const GptpNodeStats& ns = e.gptp->nodeStats(n);
    EXPECT_GE(ns.corrections, 10) << n;
    // Emergent steady-state error: relative drift * sync interval plus
    // per-hop quantization — microseconds, not zero and not wild.
    EXPECT_GT(ns.maxOffsetError, nanoseconds(100)) << n;
    EXPECT_LT(ns.maxOffsetError, microseconds(50)) << n;
    EXPECT_EQ(ns.reelections, 0) << n;
  }
}

TEST(GptpServo, SyncOutageOnOneNodeCausesHoldoverExcursion) {
  GptpConfig cfg;
  cfg.candidates = {{0, 100, 6}};
  const std::vector<double> drifts = {0, 0, 50'000, 0};  // node 2 drifts

  FaultPlan plan;
  SyncOutage so;
  so.nodes = {2};
  so.start = milliseconds(500);
  so.stop = milliseconds(1'500);
  plan.syncOutages = {so};

  Election quiet(workload::TopologyKind::Line, cfg, seconds(2), nullptr,
                 drifts);
  Election outage(workload::TopologyKind::Line, cfg, seconds(2), &plan,
                  drifts);
  // Coasting for a second at 50 ppm accumulates ~50 us that the first
  // surviving sync has to step out; the undisturbed run stays an order of
  // magnitude tighter.
  EXPECT_GT(outage.gptp->nodeStats(2).maxOffsetError, microseconds(30));
  EXPECT_LT(quiet.gptp->nodeStats(2).maxOffsetError, microseconds(15));
  // The servo of the unaffected neighbor keeps running either way.
  EXPECT_GT(outage.gptp->nodeStats(1).corrections, 10);
}

}  // namespace
}  // namespace etsn::sim

// --- Facade integration --------------------------------------------------

namespace etsn {
namespace {

Experiment gptpExperiment() {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  net::StreamSpec s;
  s.name = "s";
  s.src = 0;
  s.dst = 2;
  s.period = milliseconds(4);
  s.maxLatency = milliseconds(4);
  s.payloadBytes = 1500;
  ex.specs = {s};
  ex.simConfig.duration = seconds(1);
  ex.simConfig.gptp.enabled = true;
  ex.simConfig.gptp.candidates = {{4, 100, 6}};  // SW1 as grandmaster
  return ex;
}

TEST(GptpFacade, DisabledByDefault) {
  Experiment ex = gptpExperiment();
  ex.simConfig.gptp = {};
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.gptp.enabled);
  EXPECT_TRUE(r.gptp.nodes.empty());
}

TEST(GptpFacade, ResultsSurfaceSyncQualityWithClosedBooks) {
  Experiment ex = gptpExperiment();
  ex.simConfig.clockDriftPpbMax = 2'000;
  ex.options.config.syncErrorMargin = microseconds(2);
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.gptp.enabled);
  EXPECT_EQ(r.gptp.grandmaster, sim::Gptp::identityOf(4));
  EXPECT_EQ(static_cast<int>(r.gptp.nodes.size()), ex.topo.numNodes());
  EXPECT_EQ(r.gptp.framesSent, r.gptp.framesDelivered +
                                   r.gptp.framesDropped +
                                   r.gptp.framesInFlight);
  EXPECT_EQ(r.gptp.framesDropped, 0);
  // 2 ppm drift, 125 ms interval: offsets stay far below the 2 us margin.
  EXPECT_EQ(r.gptp.syncMarginViolations, 0);
  EXPECT_EQ(r.gptp.reelections, 0);
  EXPECT_GT(r.gptp.maxOffsetError, 0);
  EXPECT_LT(r.gptp.maxOffsetError, microseconds(2));
  // The data plane runs to spec under gPTP discipline.
  EXPECT_GE(r.streams[0].messagesDelivered, 240);
  EXPECT_EQ(r.streams[0].deadlineMisses, 0);
}

TEST(GptpFacade, MarginViolationsReportedWhenMarginIsTooTight) {
  Experiment ex = gptpExperiment();
  ex.simConfig.duration = seconds(2);
  ex.simConfig.clockDriftPpbMax = 50'000;  // 50 ppm
  ex.options.config.syncErrorMargin = nanoseconds(200);  // act of faith
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.gptp.enabled);
  // 50 ppm * 125 ms ~ 6 us of drift per interval: the 200 ns margin is
  // broken on every drifting node.
  EXPECT_GT(r.gptp.syncMarginViolations, 0);
}

TEST(GptpFacade, RunsAreByteIdenticalAcrossRepeats) {
  Experiment ex = gptpExperiment();
  ex.simConfig.clockDriftPpbMax = 20'000;
  ex.options.config.syncErrorMargin = microseconds(5);
  const auto a = runExperiment(ex);
  const auto b = runExperiment(ex);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_EQ(a.streams[0].latencies, b.streams[0].latencies);
  EXPECT_EQ(a.gptp.maxOffsetError, b.gptp.maxOffsetError);
  EXPECT_EQ(a.gptp.framesSent, b.gptp.framesSent);
  EXPECT_EQ(a.gptp.grandmaster, b.gptp.grandmaster);
}

}  // namespace
}  // namespace etsn
