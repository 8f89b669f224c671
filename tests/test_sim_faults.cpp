// Fault-injection tests: plan semantics, injector determinism, loss
// accounting invariants, outage pause/resume with CNC notifications,
// babbling sources, sync outages, and campaign-level byte-determinism of
// faulty runs across thread counts.
#include <gtest/gtest.h>

#include "etsn/campaign.h"
#include "etsn/etsn.h"
#include "net/ethernet.h"
#include "sched/program.h"
#include "sim/faults.h"
#include "sim/network.h"

namespace etsn {
namespace {

Experiment pipelineExperiment() {
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
  return ex;
}

/// Message-level books must close for every stream.
void expectBooksClosed(const ExperimentResult& r) {
  for (const StreamResult& s : r.streams) {
    EXPECT_EQ(s.messagesSent, s.messagesDelivered + s.messagesLost +
                                  s.messagesUnterminated)
        << s.name;
  }
}

void expectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const StreamResult& x = a.streams[i];
    const StreamResult& y = b.streams[i];
    EXPECT_EQ(x.latencies, y.latencies) << x.name;
    EXPECT_EQ(x.messagesSent, y.messagesSent) << x.name;
    EXPECT_EQ(x.messagesDelivered, y.messagesDelivered) << x.name;
    EXPECT_EQ(x.messagesLost, y.messagesLost) << x.name;
    EXPECT_EQ(x.messagesUnterminated, y.messagesUnterminated) << x.name;
    EXPECT_EQ(x.framesDroppedLoss, y.framesDroppedLoss) << x.name;
    EXPECT_EQ(x.framesDroppedOutage, y.framesDroppedOutage) << x.name;
    EXPECT_EQ(x.deadlineMisses, y.deadlineMisses) << x.name;
  }
}

TEST(FaultPlan, EmptySemantics) {
  sim::FaultPlan p;
  EXPECT_TRUE(p.empty());
  // All-zero components cannot fire: still empty.
  p.losses.push_back({});
  p.outages.push_back({});
  p.babblers.push_back({});
  p.syncOutages.push_back({});
  EXPECT_TRUE(p.empty());

  sim::FaultPlan loss;
  loss.losses.push_back({});
  loss.losses.back().dropProbability = 0.1;
  EXPECT_FALSE(loss.empty());

  sim::FaultPlan outage;
  outage.outages.push_back({});
  outage.outages.back().link = 0;  // down forever from t=0
  EXPECT_FALSE(outage.empty());
}

TEST(FaultPlan, ValidateRejectsMalformedComponents) {
  const net::Topology topo = net::makeTestbedTopology();
  const auto expectRejected = [&](const sim::FaultPlan& p) {
    EXPECT_THROW(p.validate(topo, 1), ConfigError);
  };

  sim::FaultPlan negLoss;
  negLoss.losses.push_back({});
  negLoss.losses.back().dropProbability = -0.1;
  expectRejected(negLoss);

  sim::FaultPlan badLossLink;
  badLossLink.losses.push_back({});
  badLossLink.losses.back().link = 99;
  expectRejected(badLossLink);

  sim::FaultPlan badOutage;
  badOutage.outages.push_back({});
  badOutage.outages.back().link = topo.numLinks();
  expectRejected(badOutage);

  sim::FaultPlan negOutage;
  negOutage.outages.push_back({});
  negOutage.outages.back().link = 0;
  negOutage.outages.back().downAt = -1;
  expectRejected(negOutage);

  sim::FaultPlan emptyBabble;  // a rate but an empty [start, stop) window
  emptyBabble.babblers.push_back({});
  emptyBabble.babblers.back().interval = milliseconds(1);
  expectRejected(emptyBabble);

  sim::FaultPlan badBabbleSource;
  badBabbleSource.babblers.push_back({});
  badBabbleSource.babblers.back().interval = milliseconds(1);
  badBabbleSource.babblers.back().stop = milliseconds(10);
  badBabbleSource.babblers.back().ectIndex = 1;  // only source 0 exists
  expectRejected(badBabbleSource);

  sim::FaultPlan badSyncNode;
  badSyncNode.syncOutages.push_back({});
  badSyncNode.syncOutages.back().nodes = {topo.numNodes()};
  expectRejected(badSyncNode);
}

TEST(FaultPlan, ValidateAcceptsDefaultsAndForeverOutages) {
  const net::Topology topo = net::makeTestbedTopology();
  sim::FaultPlan p;
  p.losses.push_back({});
  p.outages.push_back({});
  p.babblers.push_back({});
  p.syncOutages.push_back({});
  sim::LinkOutage forever;  // upAt <= downAt: the "down for good" idiom
  forever.link = 8;
  forever.downAt = milliseconds(100);
  forever.upAt = 0;
  p.outages.push_back(forever);
  EXPECT_NO_THROW(p.validate(topo, 0));
}

TEST(FaultPlan, ValidateRejectsOverlappingOutagesOnOneCable) {
  const net::Topology topo = net::makeTestbedTopology();

  // Plain overlap on the same directed link.
  sim::FaultPlan overlap;
  overlap.outages.push_back({8, milliseconds(10), milliseconds(30)});
  overlap.outages.push_back({8, milliseconds(20), milliseconds(40)});
  try {
    overlap.validate(topo, 0);
    FAIL() << "overlapping outages were accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping outages on link"),
              std::string::npos)
        << e.what();
  }

  // The two directions of a cable are the same physical resource.
  const net::LinkId rev = topo.link(8).reverse;
  ASSERT_NE(rev, net::kNoLink);
  sim::FaultPlan bothDirections;
  bothDirections.outages.push_back({8, milliseconds(10), milliseconds(30)});
  bothDirections.outages.push_back({rev, milliseconds(20), milliseconds(40)});
  EXPECT_THROW(bothDirections.validate(topo, 0), ConfigError);

  // An open-ended outage overlaps everything after its start.
  sim::FaultPlan forever;
  forever.outages.push_back({8, milliseconds(10), 0});  // down for good
  forever.outages.push_back({8, milliseconds(50), milliseconds(60)});
  EXPECT_THROW(forever.validate(topo, 0), ConfigError);

  // Back-to-back episodes (shared endpoint) and distinct cables are fine.
  sim::FaultPlan ok;
  ok.outages.push_back({8, milliseconds(10), milliseconds(20)});
  ok.outages.push_back({8, milliseconds(20), milliseconds(30)});
  ok.outages.push_back({4, milliseconds(15), milliseconds(25)});
  EXPECT_NO_THROW(ok.validate(topo, 0));
}

TEST(FaultInjector, LinkSpecificModelOverridesGlobal) {
  const net::Topology topo = net::makeTestbedTopology();
  sim::FaultPlan plan;
  sim::LossModel global;
  global.dropProbability = 1.0;
  plan.losses.push_back(global);
  sim::LossModel quiet;
  quiet.link = 2;
  quiet.dropProbability = 0;
  plan.losses.push_back(quiet);

  sim::FaultInjector inj(topo, plan, 1);
  EXPECT_EQ(inj.lossAt(0, 0), sim::DropCause::RandomLoss);
  EXPECT_EQ(inj.lossAt(2, 0), std::nullopt);  // override wins
}

TEST(FaultInjector, OutageCoversBothDirectionsAndForever) {
  const net::Topology topo = net::makeTestbedTopology();
  sim::FaultPlan plan;
  sim::LinkOutage o;
  o.link = 8;  // SW1 -> SW2 (reverse is 9)
  o.downAt = 100;
  o.upAt = 200;
  plan.outages.push_back(o);
  sim::LinkOutage forever;
  forever.link = 0;
  forever.downAt = 50;
  forever.upAt = 0;  // upAt <= downAt: never comes back
  plan.outages.push_back(forever);

  const sim::FaultInjector inj(topo, plan, 1);
  EXPECT_FALSE(inj.linkDown(8, 99));
  EXPECT_TRUE(inj.linkDown(8, 100));
  EXPECT_TRUE(inj.linkDown(9, 150));  // the cable, not one direction
  EXPECT_FALSE(inj.linkDown(8, 200));
  EXPECT_TRUE(inj.linkDown(0, 50));
  EXPECT_TRUE(inj.linkDown(1, std::numeric_limits<TimeNs>::max() / 2));
  EXPECT_FALSE(inj.linkDown(0, 49));
}

TEST(FaultInjector, RejectsProbabilitiesOutsideUnitInterval) {
  const net::Topology topo = net::makeTestbedTopology();
  sim::FaultPlan plan;
  sim::LossModel m;
  m.dropProbability = 1.5;
  plan.losses.push_back(m);
  EXPECT_THROW(sim::FaultInjector(topo, plan, 1), ConfigError);
}

TEST(FaultInjector, SyncOutageTargetsNodeOrEveryone) {
  sim::SyncOutage all;
  all.start = 10;
  all.stop = 20;
  EXPECT_TRUE(all.covers(3, 15));
  EXPECT_FALSE(all.covers(3, 20));

  sim::SyncOutage one;
  one.nodes = {2};
  one.start = 10;
  one.stop = 20;
  EXPECT_TRUE(one.covers(2, 15));
  EXPECT_FALSE(one.covers(3, 15));

  sim::SyncOutage set;
  set.nodes = {1, 4};
  set.start = 10;
  set.stop = 20;
  EXPECT_TRUE(set.covers(1, 15));
  EXPECT_TRUE(set.covers(4, 15));
  EXPECT_FALSE(set.covers(7, 15));
  EXPECT_FALSE(set.covers(1, 20));
}

TEST(FaultPlan, ValidateRejectsBadSyncOutageNodeSets) {
  const net::Topology topo = net::makeTestbedTopology();

  // A node id outside the topology is a typo, not a no-op.
  sim::FaultPlan unknown;
  sim::SyncOutage so;
  so.nodes = {0, topo.numNodes()};
  so.start = 0;
  so.stop = milliseconds(10);
  unknown.syncOutages.push_back(so);
  EXPECT_THROW(unknown.validate(topo, 0), ConfigError);

  // Two episodes overlapping on the same node would silently union.
  sim::FaultPlan overlap;
  sim::SyncOutage a;
  a.nodes = {1, 2};
  a.start = milliseconds(10);
  a.stop = milliseconds(30);
  sim::SyncOutage b;
  b.nodes = {2, 3};
  b.start = milliseconds(20);
  b.stop = milliseconds(40);
  overlap.syncOutages = {a, b};
  try {
    overlap.validate(topo, 0);
    FAIL() << "overlapping per-node sync outages were accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping sync outages"),
              std::string::npos)
        << e.what();
  }

  // A wildcard episode (all nodes) overlaps any per-node one.
  sim::FaultPlan wildcard;
  sim::SyncOutage all;
  all.start = milliseconds(10);
  all.stop = milliseconds(30);
  sim::SyncOutage one;
  one.nodes = {3};
  one.start = milliseconds(25);
  one.stop = milliseconds(35);
  wildcard.syncOutages = {all, one};
  EXPECT_THROW(wildcard.validate(topo, 0), ConfigError);

  // Disjoint node sets and back-to-back episodes are fine.
  sim::FaultPlan ok;
  sim::SyncOutage left = a;
  sim::SyncOutage right;
  right.nodes = {3, 4};
  right.start = milliseconds(20);
  right.stop = milliseconds(40);
  sim::SyncOutage later;
  later.nodes = {1};
  later.start = milliseconds(30);
  later.stop = milliseconds(50);
  ok.syncOutages = {left, right, later};
  EXPECT_NO_THROW(ok.validate(topo, 0));
}

TEST(FaultPlan, ValidateRejectsBadGptpKills) {
  const net::Topology topo = net::makeTestbedTopology();

  sim::FaultPlan unknown;
  sim::GptpKill k;
  k.node = topo.numNodes();
  unknown.gptpKills.push_back(k);
  EXPECT_THROW(unknown.validate(topo, 0), ConfigError);

  sim::FaultPlan negative;
  sim::GptpKill neg;
  neg.node = 0;
  neg.at = -1;
  negative.gptpKills.push_back(neg);
  EXPECT_THROW(negative.validate(topo, 0), ConfigError);

  sim::FaultPlan ok;
  sim::GptpKill fine;
  fine.node = 2;
  fine.at = milliseconds(50);
  ok.gptpKills.push_back(fine);
  ok.gptpKills.push_back({});  // inactive default is fine
  EXPECT_NO_THROW(ok.validate(topo, 0));
}

TEST(SimFaults, SyncOutageExplicitAllNodesMatchesLegacyWildcard) {
  Experiment wildcard = pipelineExperiment();
  wildcard.simConfig.clockDriftPpbMax = 10'000;
  wildcard.simConfig.syncInterval = milliseconds(50);
  wildcard.options.config.syncErrorMargin = microseconds(2);
  sim::SyncOutage so;  // empty node set: everyone
  so.start = milliseconds(200);
  so.stop = milliseconds(800);
  wildcard.simConfig.faults.syncOutages.push_back(so);

  Experiment explicitSet = wildcard;
  auto& es = explicitSet.simConfig.faults.syncOutages.back();
  for (net::NodeId n = 0; n < explicitSet.topo.numNodes(); ++n) {
    es.nodes.push_back(n);
  }

  expectIdentical(runExperiment(wildcard), runExperiment(explicitSet));
}

TEST(SimFaults, ZeroPlanByteIdenticalToFaultFree) {
  Experiment clean = pipelineExperiment();
  clean.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 1500));

  Experiment zero = clean;
  zero.simConfig.faults.losses.push_back({});   // all probabilities zero
  zero.simConfig.faults.outages.push_back({});  // no link
  ASSERT_TRUE(zero.simConfig.faults.empty());

  expectIdentical(runExperiment(clean), runExperiment(zero));
}

TEST(SimFaults, RandomLossClosesTheBooks) {
  Experiment ex = pipelineExperiment();
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 1500));
  sim::LossModel loss;
  loss.dropProbability = 0.05;
  ex.simConfig.faults.losses.push_back(loss);

  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  expectBooksClosed(r);
  std::int64_t droppedLoss = 0, droppedOutage = 0, lost = 0;
  for (const StreamResult& s : r.streams) {
    droppedLoss += s.framesDroppedLoss;
    droppedOutage += s.framesDroppedOutage;
    lost += s.messagesLost;
  }
  EXPECT_GT(droppedLoss, 0);
  EXPECT_EQ(droppedOutage, 0);
  EXPECT_GT(lost, 0);
  EXPECT_LT(r.byName("s").deliveryRatio(), 1.0);
  EXPECT_GT(r.byName("s").deliveryRatio(), 0.5);
}

TEST(SimFaults, BurstLossDropsWithoutIidModel) {
  Experiment ex = pipelineExperiment();
  sim::LossModel burst;
  burst.pGoodToBad = 0.01;
  burst.pBadToGood = 0.2;
  burst.lossBad = 1.0;
  ex.simConfig.faults.losses.push_back(burst);

  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  expectBooksClosed(r);
  EXPECT_GT(r.streams[0].framesDroppedLoss, 0);
  EXPECT_LT(r.streams[0].deliveryRatio(), 1.0);
}

TEST(SimFaults, SameSeedSamePlanReproducesExactly) {
  Experiment ex = pipelineExperiment();
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 1500));
  sim::LossModel loss;
  loss.dropProbability = 0.02;
  loss.pGoodToBad = 0.005;
  loss.pBadToGood = 0.3;
  loss.lossBad = 0.9;
  ex.simConfig.faults.losses.push_back(loss);
  expectIdentical(runExperiment(ex), runExperiment(ex));
}

TEST(SimFaults, OutagePausesPortsAndNotifiesCnc) {
  Experiment ex = pipelineExperiment();
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);

  sim::SimConfig cfg = ex.simConfig;
  sim::LinkOutage o;
  o.link = 0;  // the talker's first link, D1 -> SW1
  o.downAt = milliseconds(300);
  o.upAt = milliseconds(400);
  cfg.faults.outages.push_back(o);
  std::vector<TimeNs> downs, ups;
  cfg.onLinkDown = [&](net::LinkId l, TimeNs t) {
    EXPECT_EQ(l, 0);
    downs.push_back(t);
  };
  cfg.onLinkUp = [&](net::LinkId l, TimeNs t) {
    EXPECT_EQ(l, 0);
    ups.push_back(t);
  };

  sim::Network network(ex.topo, program, cfg);
  network.run();
  EXPECT_EQ(downs, std::vector<TimeNs>{milliseconds(300)});
  EXPECT_EQ(ups, std::vector<TimeNs>{milliseconds(400)});

  const sim::StreamRecord& r = network.recorder().record(0);
  // Frames emitted during the outage wait in their queues (nothing is
  // dropped there), but the gate drains one frame per period, so the
  // backlog persists to the end of the run as in-flight messages.
  EXPECT_EQ(r.messagesSent,
            r.messagesDelivered + r.messagesLost + r.messagesUnterminated);
  EXPECT_EQ(r.framesEmitted, r.framesDelivered + r.framesDroppedLoss +
                                 r.framesDroppedOutage + r.framesInFlight);
  EXPECT_GT(r.messagesUnterminated, 0);
  EXPECT_GT(r.deadlineMisses, 0);       // the backlog arrives late
  EXPECT_GE(r.messagesDelivered, 200);  // ~250 sent, ~25 stuck in backlog
  EXPECT_LE(r.messagesLost, 1);         // at most the frame cut mid-flight
}

TEST(SimFaults, OutageCutsMidFlightFrame) {
  Experiment ex = pipelineExperiment();
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);

  // Calibrate: trace one clean run to find a transmission-end time on the
  // first link, then start the outage 1 us before it — the frame is on
  // the wire when the link dies, so it must be cut.
  TimeNs txEnd = 0;
  {
    sim::SimConfig cfg = ex.simConfig;
    cfg.trace = [&](const sim::TraceEvent& e) {
      if (e.link == 0 && e.txEnd > milliseconds(500) && txEnd == 0) {
        txEnd = e.txEnd;
      }
    };
    sim::Network network(ex.topo, program, cfg);
    network.run();
  }
  ASSERT_GT(txEnd, 0);

  sim::SimConfig cfg = ex.simConfig;
  sim::LinkOutage o;
  o.link = 0;
  o.downAt = txEnd - microseconds(1);
  o.upAt = txEnd + milliseconds(1);
  cfg.faults.outages.push_back(o);
  sim::Network network(ex.topo, program, cfg);
  network.run();

  const sim::StreamRecord& r = network.recorder().record(0);
  EXPECT_GE(r.framesDroppedOutage, 1);
  EXPECT_GE(r.messagesLost, 1);
  EXPECT_EQ(r.framesEmitted, r.framesDelivered + r.framesDroppedLoss +
                                 r.framesDroppedOutage + r.framesInFlight);
}

// A finite outage holds its frames: the trunk's ports stop, and the frames
// that queue there leave once the carrier returns.
TEST(SimFaults, FiniteOutageDeliversHeldFrames) {
  Experiment ex = pipelineExperiment();
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);

  const net::LinkId trunk = ex.topo.linkBetween(4, 5);  // SW1 -> SW2
  const net::LinkId last = ex.topo.linkBetween(5, 2);   // SW2 -> D3
  const TimeNs down = milliseconds(300);
  const TimeNs up = milliseconds(320);
  sim::SimConfig cfg = ex.simConfig;
  cfg.faults.outages.push_back({trunk, down, up});
  std::int64_t heldDelivered = 0;
  cfg.trace = [&](const sim::TraceEvent& e) {
    if (e.link == last && e.frame.created >= down && e.frame.created < up) {
      ++heldDelivered;
    }
  };
  sim::Network network(ex.topo, program, cfg);
  network.run();

  const sim::StreamRecord& r = network.recorder().record(0);
  EXPECT_EQ(heldDelivered, 5);  // every frame emitted in the 20-ms outage
  EXPECT_EQ(r.framesDroppedOutage, 0);
  EXPECT_EQ(r.framesEmitted, r.framesDelivered + r.framesDroppedLoss +
                                 r.framesDroppedOutage + r.framesInFlight);
}

// A cable that never returns drops what its ports hold.  A finite outage
// first leaves a backlog queued on both directions of the trunk (each gate
// drains one frame per period, as many as arrive); the trunk then dies for
// good with that backlog queued, and every later frame reaches a dead
// port.  Both are dropped as outage losses, so nothing is left in flight.
TEST(SimFaults, PermanentOutageDropsQueuedAndArrivingFrames) {
  Experiment ex = pipelineExperiment();
  net::StreamSpec back = ex.specs[0];
  back.name = "back";
  back.src = 2;
  back.dst = 0;
  ex.specs.push_back(back);
  // The run ends 1 ms after the last emission, so no frame is still on
  // its way to the trunk when the books close.
  ex.simConfig.duration = milliseconds(1001);
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);

  const net::LinkId trunk = ex.topo.linkBetween(4, 5);
  sim::SimConfig cfg = ex.simConfig;
  cfg.faults.outages.push_back({trunk, milliseconds(100), milliseconds(200)});
  sim::Network held(ex.topo, program, cfg);
  held.run();
  cfg.faults.outages.push_back({trunk, milliseconds(500), 0});
  sim::Network cut(ex.topo, program, cfg);
  cut.run();

  for (const std::int32_t spec : {0, 1}) {
    // The finite outage's backlog persists; the cut finds it queued.
    EXPECT_GE(held.recorder().record(spec).framesInFlight, 20);
    const sim::StreamRecord& r = cut.recorder().record(spec);
    EXPECT_EQ(r.framesInFlight, 0) << "spec " << spec;
    // The backlog plus the 126 frames emitted from the cut on.
    EXPECT_GE(r.framesDroppedOutage, 20 + 126) << "spec " << spec;
    EXPECT_EQ(r.framesEmitted, r.framesDelivered + r.framesDroppedOutage)
        << "spec " << spec;
    EXPECT_EQ(r.messagesSent, r.messagesDelivered + r.messagesLost)
        << "spec " << spec;
  }
}

TEST(SimFaults, BabblingSourceViolatesMinInterevent) {
  Experiment ex = pipelineExperiment();
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 500));
  const auto clean = runExperiment(ex);
  ASSERT_TRUE(clean.feasible);

  sim::BabblingSource b;
  b.ectIndex = 0;
  b.start = milliseconds(100);
  b.stop = milliseconds(600);
  b.interval = milliseconds(1);
  ex.simConfig.faults.babblers.push_back(b);
  const auto babbling = runExperiment(ex);
  ASSERT_TRUE(babbling.feasible);

  // ~500 extra events on top of the declared-rate baseline.
  EXPECT_GE(babbling.byName("e").messagesSent,
            clean.byName("e").messagesSent + 400);
  expectBooksClosed(babbling);
}

TEST(SimFaults, BabblerWithUnknownSourceIsRejected) {
  Experiment ex = pipelineExperiment();  // no ECT sources at all
  sim::BabblingSource b;
  b.ectIndex = 0;
  b.start = 0;
  b.stop = milliseconds(10);
  b.interval = milliseconds(1);
  ex.simConfig.faults.babblers.push_back(b);
  EXPECT_THROW(runExperiment(ex), ConfigError);
}

TEST(SimFaults, SyncOutageLetsDriftAccumulate) {
  Experiment ex = pipelineExperiment();
  ex.simConfig.duration = seconds(2);
  // With sync every 50 ms a 10 ppm clock slides at most 0.5 us between
  // corrections — well inside the 2 us schedule margin, so the synced run
  // shows only residual-error jitter.
  ex.simConfig.clockDriftPpbMax = 10'000;  // 10 ppm
  ex.simConfig.syncInterval = milliseconds(50);
  ex.simConfig.syncResidualMax = nanoseconds(100);
  ex.options.config.syncErrorMargin = microseconds(2);
  const auto synced = runExperiment(ex);

  sim::SyncOutage so;  // all nodes lose sync for the middle second
  so.start = milliseconds(500);
  so.stop = milliseconds(1500);
  ex.simConfig.faults.syncOutages.push_back(so);
  const auto outage = runExperiment(ex);

  ASSERT_TRUE(synced.feasible && outage.feasible);
  // Uncorrected drift over a second slides the gates by up to ~20 us
  // relative between nodes — frames start missing windows and wait out
  // whole cycles, dwarfing the synced run's jitter.
  EXPECT_GT(outage.streams[0].latency.stddevNs,
            10 * synced.streams[0].latency.stddevNs);
}

TEST(SimFaults, FaultCampaignIsByteIdenticalAcrossThreadCounts) {
  auto makeCampaign = [](int threads) {
    Campaign c;
    c.name = "faulty";
    c.seed = 11;
    c.threads = threads;
    for (int cell = 0; cell < 6; ++cell) {
      c.add("cell" + std::to_string(cell), [cell](std::uint64_t taskSeed) {
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
        ex.specs.push_back(
            workload::makeEct("e", 1, 3, milliseconds(16), 1000));
        ex.simConfig.duration = milliseconds(200);
        ex.simConfig.seed = taskSeed;
        if (cell % 2 == 0) {
          sim::LossModel loss;
          loss.dropProbability = 0.02;
          ex.simConfig.faults.losses.push_back(loss);
        } else {
          sim::LinkOutage o;
          o.link = 8;
          o.downAt = milliseconds(50);
          o.upAt = milliseconds(50 + 10 * cell);
          ex.simConfig.faults.outages.push_back(o);
        }
        return ex;
      });
    }
    return c;
  };

  const std::string j1 = toJson(runCampaign(makeCampaign(1)));
  const std::string j2 = toJson(runCampaign(makeCampaign(2)));
  const std::string j8 = toJson(runCampaign(makeCampaign(8)));
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(j1, j8);
}

}  // namespace
}  // namespace etsn
