// Network-level simulator tests: pipelines, forwarding, recorder
// reassembly, clock drift + PTP, and ECT suppression.
#include <gtest/gtest.h>

#include "etsn/etsn.h"
#include "net/ethernet.h"
#include "sim/network.h"

namespace etsn {
namespace {

// A minimal 3-hop pipeline: one talker across D1-SW1-SW2-D3.
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

TEST(SimNetwork, PipelineLatencyMatchesSchedule) {
  const auto r = runExperiment(pipelineExperiment());
  ASSERT_TRUE(r.feasible);
  const StreamResult& s = r.streams[0];
  // ~250 instances in 1 s at 4 ms.
  EXPECT_GE(s.messagesDelivered, 249);
  // 3 hops of one MTU: >= 3 * 123us wire time; with zero queueing the
  // jitter is identically zero (fully deterministic pipeline).
  EXPECT_GE(s.latency.minNs, 3 * net::frameTxTime(1500, 100'000'000));
  EXPECT_EQ(s.latency.minNs, s.latency.maxNs);
  EXPECT_EQ(s.deadlineMisses, 0);
}

TEST(SimNetwork, MultiFrameMessageReassembled) {
  auto ex = pipelineExperiment();
  ex.specs[0].payloadBytes = 4000;  // 3 frames
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  const StreamResult& s = r.streams[0];
  EXPECT_GE(s.messagesDelivered, 249);
  // Latency covers all three frames: at least 3 frames on the first link
  // plus the pipeline of the last frame.
  EXPECT_GE(s.latency.minNs, 3 * net::frameTxTime(1500, 100'000'000));
  EXPECT_EQ(s.deadlineMisses, 0);
}

TEST(SimNetwork, TwoStreamsIndependentRoutes) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  for (int i = 0; i < 2; ++i) {
    net::StreamSpec s;
    s.name = "s" + std::to_string(i);
    s.src = i;          // D1 and D2
    s.dst = 2 + i;      // D3 and D4
    s.period = milliseconds(4);
    s.maxLatency = milliseconds(4);
    s.payloadBytes = 1000;
    ex.specs.push_back(s);
  }
  ex.simConfig.duration = seconds(1);
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  for (const auto& s : r.streams) {
    EXPECT_GE(s.messagesDelivered, 249) << s.name;
    EXPECT_EQ(s.deadlineMisses, 0) << s.name;
  }
}

TEST(SimNetwork, SuppressEctTraffic) {
  Experiment ex = pipelineExperiment();
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 1500));
  ex.simConfig.suppressEctTraffic = true;
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.byName("e").messagesDelivered, 0);
  EXPECT_GT(r.byName("s").messagesDelivered, 0);
}

TEST(SimNetwork, EctJitterWindowControlsArrivalDensity) {
  Experiment ex = pipelineExperiment();
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(10), 500));
  ex.simConfig.duration = seconds(5);
  ex.simConfig.ectJitterWindow = milliseconds(1);  // ~10.5 ms interarrival
  const auto dense = runExperiment(ex);
  ex.simConfig.ectJitterWindow = milliseconds(20);  // ~20 ms interarrival
  const auto sparse = runExperiment(ex);
  ASSERT_TRUE(dense.feasible && sparse.feasible);
  EXPECT_GT(dense.byName("e").messagesDelivered,
            sparse.byName("e").messagesDelivered);
}

TEST(SimNetwork, ClockDriftWithPtpStillDelivers) {
  Experiment ex = pipelineExperiment();
  ex.simConfig.duration = seconds(2);
  ex.simConfig.clockDriftPpbMax = 2'000;  // 2 ppm residual rate error
  ex.simConfig.syncInterval = milliseconds(125);
  ex.simConfig.syncResidualMax = nanoseconds(100);
  // Gates slide by at most drift * syncInterval ≈ 250 ns between
  // corrections; schedule with a matching per-hop sync margin.
  ex.options.config.syncErrorMargin = microseconds(2);
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  const StreamResult& s = r.streams[0];
  EXPECT_GE(s.messagesDelivered, 490);
  EXPECT_EQ(s.deadlineMisses, 0);
}

TEST(SimNetwork, UnsynchronizedClocksBreakDeterminism) {
  Experiment ex = pipelineExperiment();
  ex.simConfig.duration = seconds(2);
  ex.simConfig.clockDriftPpbMax = 50'000;
  ex.simConfig.syncInterval = seconds(10);  // effectively no sync
  const auto drifting = runExperiment(ex);
  ex.simConfig.clockDriftPpbMax = 0;
  const auto perfect = runExperiment(ex);
  ASSERT_TRUE(drifting.feasible && perfect.feasible);
  // Perfect clocks: zero jitter.  Uncorrected 50 ppm drift across a
  // 3-hop path: visible jitter (gates slide ~100 us over 2 s).
  EXPECT_EQ(perfect.streams[0].latency.stddevNs, 0);
  EXPECT_GT(drifting.streams[0].latency.stddevNs, 0);
}

TEST(SimNetwork, RecorderCountsConsistent) {
  Experiment ex = pipelineExperiment();
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 3000));
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  for (const auto& s : r.streams) {
    EXPECT_EQ(static_cast<std::int64_t>(s.latencies.size()),
              s.messagesDelivered);
    EXPECT_EQ(s.latency.count, s.messagesDelivered);
  }
}

}  // namespace
}  // namespace etsn

namespace etsn {
namespace {

// Every emitted frame must be accounted for: delivered, dropped (with a
// cause) or still in flight when the run ends.  A lossy link plus a
// mid-run outage exercises all four buckets at once.
TEST(SimNetwork, FrameAccountingClosesUnderFaults) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  net::StreamSpec s;
  s.name = "s";
  s.src = 0;
  s.dst = 2;
  s.period = milliseconds(4);
  s.maxLatency = milliseconds(4);
  s.payloadBytes = 3000;  // 2 frames: losing one leaves the other dangling
  ex.specs = {s};
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 1500));
  ex.simConfig.duration = seconds(1);

  sim::LossModel loss;
  loss.dropProbability = 0.05;
  ex.simConfig.faults.losses.push_back(loss);
  sim::LinkOutage outage;
  outage.link = 8;  // SW1 -> SW2 trunk
  outage.downAt = milliseconds(400);
  outage.upAt = milliseconds(450);
  ex.simConfig.faults.outages.push_back(outage);

  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);
  sim::Network network(ex.topo, program, ex.simConfig);
  network.run();

  bool anyLoss = false;
  for (std::int32_t i = 0; i < 2; ++i) {
    const sim::StreamRecord& r = network.recorder().record(i);
    EXPECT_GT(r.framesEmitted, 0) << "stream " << i;
    EXPECT_EQ(r.framesEmitted,
              r.framesDelivered + r.framesDroppedLoss + r.framesDroppedOutage +
                  r.framesDroppedPolicer + r.framesDroppedOverflow +
                  r.framesInFlight)
        << "stream " << i;
    EXPECT_EQ(r.messagesSent,
              r.messagesDelivered + r.messagesLost + r.messagesUnterminated)
        << "stream " << i;
    anyLoss = anyLoss || r.framesDroppedLoss > 0;
  }
  EXPECT_TRUE(anyLoss);
}

// The same closure with the two PR-5 buckets active: an unpoliced flood
// into bounded queues fills framesDroppedOverflow, and a policed flood
// fills framesDroppedPolicer — in both cases
//   framesEmitted == delivered + droppedLoss + droppedOutage
//                    + droppedPolicer + droppedOverflow + inFlight
// holds for every stream.
TEST(SimNetwork, FrameAccountingClosesUnderPolicingAndOverflow) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  net::StreamSpec s;
  s.name = "s";
  s.src = 0;
  s.dst = 2;
  s.period = milliseconds(4);
  s.maxLatency = milliseconds(4);
  s.payloadBytes = 1500;
  s.share = true;
  ex.specs = {s};
  ex.specs.push_back(workload::makeEct("e", 1, 3, milliseconds(16), 1500));
  ex.simConfig.duration = milliseconds(300);
  ex.simConfig.suppressEctTraffic = true;
  sim::BabblingSource b;  // 1500 B every 10 us: > 100% of the source link
  b.ectIndex = 0;
  b.start = milliseconds(10);
  b.stop = milliseconds(300);
  b.interval = microseconds(10);
  ex.simConfig.faults.babblers.push_back(b);

  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);

  auto checkBooks = [](const sim::Network& network, std::int64_t* policer,
                       std::int64_t* overflow) {
    *policer = *overflow = 0;
    for (std::int32_t i = 0; i < network.recorder().numSpecs(); ++i) {
      const sim::StreamRecord& r = network.recorder().record(i);
      EXPECT_EQ(r.framesEmitted,
                r.framesDelivered + r.framesDroppedLoss +
                    r.framesDroppedOutage + r.framesDroppedPolicer +
                    r.framesDroppedOverflow + r.framesInFlight)
          << "spec " << i;
      *policer += r.framesDroppedPolicer;
      *overflow += r.framesDroppedOverflow;
    }
  };

  std::int64_t policer = 0, overflow = 0;
  {
    sim::SimConfig cfg = ex.simConfig;
    cfg.queueCapacity = 16;  // flood backlog becomes tail drops
    sim::Network network(ex.topo, program, cfg);
    network.run();
    checkBooks(network, &policer, &overflow);
    EXPECT_EQ(policer, 0);
    EXPECT_GT(overflow, 0);
  }
  {
    sim::SimConfig cfg = ex.simConfig;
    cfg.police.enabled = true;  // flood stopped at ingress instead
    cfg.police.filters = net::compileFilters(ex.topo, ms);
    sim::Network network(ex.topo, program, cfg);
    network.run();
    checkBooks(network, &policer, &overflow);
    EXPECT_GT(policer, 0);
    EXPECT_EQ(overflow, 0);
  }
}

TEST(SimNetwork, TraceHookSeesEveryTransmission) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  net::StreamSpec s;
  s.name = "s";
  s.src = 0;
  s.dst = 2;  // 3 hops
  s.period = milliseconds(4);
  s.maxLatency = milliseconds(4);
  s.payloadBytes = 3000;  // 2 frames
  ex.specs = {s};
  ex.simConfig.duration = milliseconds(20);  // 5 instances

  std::vector<sim::TraceEvent> events;
  ex.simConfig.trace = [&](const sim::TraceEvent& e) {
    events.push_back(e);
  };
  const auto r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  // 5 instances * 2 frames * 3 hops transmissions.
  EXPECT_EQ(events.size(), 5u * 2u * 3u);
  // Timestamps are monotone per link and hops advance along the route.
  for (const auto& e : events) {
    EXPECT_EQ(e.frame.specId, 0);
    EXPECT_GE(e.frame.hop, 0);
    EXPECT_LT(e.frame.hop, 3);
    EXPECT_GT(e.txEnd, 0);
  }
}

}  // namespace
}  // namespace etsn
