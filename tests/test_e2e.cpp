// End-to-end tests: schedule → GCL → simulate, comparing E-TSN against the
// PERIOD and AVB baselines on the paper's testbed topology (§VI-B).  These
// assert the paper's *qualitative* claims: E-TSN delivers much lower ECT
// latency and jitter, bounded worst case, and never breaks TCT deadlines.
#include <gtest/gtest.h>

#include "etsn/etsn.h"

namespace etsn {
namespace {

Experiment testbedExperiment(sched::Method method, double load,
                             std::uint64_t seed = 7) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  workload::TctWorkload w;
  w.numStreams = 10;
  w.networkLoad = load;
  w.seed = seed;
  ex.specs = workload::generateTct(ex.topo, w);
  // The §VI-B ECT stream: D2 -> D4, one MTU, min interevent 16 ms.
  ex.specs.push_back(
      workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
  ex.options.method = method;
  ex.options.config.numProbabilistic = 8;
  ex.simConfig.duration = seconds(5);
  ex.simConfig.seed = seed;
  return ex;
}

TEST(EndToEnd, EtsnTestbedDeliversEverything) {
  const auto result = runExperiment(testbedExperiment(sched::Method::ETSN, 0.5));
  ASSERT_TRUE(result.feasible);
  for (const StreamResult& s : result.streams) {
    EXPECT_GT(s.messagesDelivered, 0) << s.name;
  }
  // ~5 s / ~24 ms mean interarrival ≈ 200 events.
  const StreamResult& ect = result.byName("ect");
  EXPECT_GT(ect.messagesDelivered, 150);
  EXPECT_GT(ect.latency.meanNs, 0);
}

TEST(EndToEnd, EtsnTctMeetsDeadlines) {
  const auto result = runExperiment(testbedExperiment(sched::Method::ETSN, 0.5));
  ASSERT_TRUE(result.feasible);
  for (const StreamResult& s : result.streams) {
    if (s.type != net::TrafficClass::TimeTriggered) continue;
    EXPECT_EQ(s.deadlineMisses, 0) << s.name << " missed deadlines";
  }
}

TEST(EndToEnd, EtsnBeatsBaselinesOnEctLatency) {
  const auto etsn = runExperiment(testbedExperiment(sched::Method::ETSN, 0.5));
  const auto period =
      runExperiment(testbedExperiment(sched::Method::PERIOD, 0.5));
  const auto avb = runExperiment(testbedExperiment(sched::Method::AVB, 0.5));
  ASSERT_TRUE(etsn.feasible);
  ASSERT_TRUE(period.feasible);
  ASSERT_TRUE(avb.feasible);
  const auto& e = etsn.byName("ect").latency;
  const auto& p = period.byName("ect").latency;
  const auto& a = avb.byName("ect").latency;
  // The paper reports ~an order of magnitude at 75% load; at this 50%
  // setting require a conservative 2.5x on average latency (measured
  // ~3x vs PERIOD, ~4x vs AVB) and larger factors on jitter.
  EXPECT_LT(e.meanNs * 2.5, p.meanNs)
      << "E-TSN " << e.meanUs() << "us vs PERIOD " << p.meanUs() << "us";
  EXPECT_LT(e.meanNs * 2.5, a.meanNs)
      << "E-TSN " << e.meanUs() << "us vs AVB " << a.meanUs() << "us";
  EXPECT_LT(e.stddevNs * 3, p.stddevNs);
  EXPECT_LT(e.maxNs * 2, p.maxNs);
}

TEST(EndToEnd, EtsnStableAcrossLoads) {
  // §VI-B: E-TSN's ECT latency is essentially independent of network load.
  const auto lo = runExperiment(testbedExperiment(sched::Method::ETSN, 0.25));
  const auto hi = runExperiment(testbedExperiment(sched::Method::ETSN, 0.75));
  ASSERT_TRUE(lo.feasible);
  ASSERT_TRUE(hi.feasible);
  const auto& l = lo.byName("ect").latency;
  const auto& h = hi.byName("ect").latency;
  EXPECT_LT(h.meanNs, l.meanNs * 3) << "E-TSN degraded with load";
}

TEST(EndToEnd, AvbDegradesWithLoad) {
  // §VI-B: AVB's ECT latency rises sharply as TCT load grows.
  const auto lo = runExperiment(testbedExperiment(sched::Method::AVB, 0.25));
  const auto hi = runExperiment(testbedExperiment(sched::Method::AVB, 0.75));
  ASSERT_TRUE(lo.feasible);
  ASSERT_TRUE(hi.feasible);
  EXPECT_GT(hi.byName("ect").latency.meanNs,
            lo.byName("ect").latency.meanNs);
}

TEST(EndToEnd, EctWorstCaseBoundedByDeadline) {
  const auto result =
      runExperiment(testbedExperiment(sched::Method::ETSN, 0.75));
  ASSERT_TRUE(result.feasible);
  const StreamResult& ect = result.byName("ect");
  // The deadline is the min interevent time (16 ms); E-TSN should beat it
  // by a wide margin — the paper reports 515 us worst case over 3 hops.
  EXPECT_EQ(ect.deadlineMisses, 0);
  EXPECT_LT(ect.latency.maxNs, milliseconds(4));
}

TEST(EndToEnd, DeterministicAcrossRuns) {
  const auto a = runExperiment(testbedExperiment(sched::Method::ETSN, 0.5));
  const auto b = runExperiment(testbedExperiment(sched::Method::ETSN, 0.5));
  ASSERT_TRUE(a.feasible && b.feasible);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].latencies, b.streams[i].latencies) << i;
  }
}

TEST(EndToEnd, HeuristicEngineRunsTheSamePipeline) {
  auto ex = testbedExperiment(sched::Method::ETSN, 0.5);
  ex.options.engine = sched::Engine::Greedy;
  const auto result = runExperiment(ex);
  ASSERT_TRUE(result.feasible);
  const StreamResult& ect = result.byName("ect");
  EXPECT_GT(ect.messagesDelivered, 150);
  EXPECT_EQ(ect.deadlineMisses, 0);
  for (const StreamResult& s : result.streams) {
    if (s.type == net::TrafficClass::TimeTriggered) {
      EXPECT_EQ(s.deadlineMisses, 0) << s.name;
    }
  }
}

TEST(EndToEnd, MultiMtuEctDelivered) {
  auto ex = testbedExperiment(sched::Method::ETSN, 0.5);
  ex.specs.back().payloadBytes = 3 * 1500;  // 3-MTU event message
  const auto result = runExperiment(ex);
  ASSERT_TRUE(result.feasible);
  const StreamResult& ect = result.byName("ect");
  EXPECT_GT(ect.messagesDelivered, 100);
  EXPECT_EQ(ect.deadlineMisses, 0);
}

}  // namespace
}  // namespace etsn
