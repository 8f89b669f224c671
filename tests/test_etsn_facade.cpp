// Tests for the public façade (etsn/etsn.h): experiment plumbing,
// error handling, and result bookkeeping.
#include <gtest/gtest.h>

#include "etsn/etsn.h"

namespace etsn {
namespace {

Experiment smallExperiment() {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  net::StreamSpec s;
  s.name = "tct";
  s.src = 0;
  s.dst = 2;
  s.period = milliseconds(4);
  s.maxLatency = milliseconds(4);
  s.payloadBytes = 800;
  ex.specs = {s};
  ex.specs.push_back(workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
  ex.options.config.numProbabilistic = 4;
  ex.simConfig.duration = seconds(1);
  return ex;
}

TEST(Facade, RunsEndToEnd) {
  const auto r = runExperiment(smallExperiment());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.method, sched::Method::ETSN);
  EXPECT_EQ(r.streams.size(), 2u);
  EXPECT_EQ(r.streams[0].name, "tct");
  EXPECT_EQ(r.streams[0].type, net::TrafficClass::TimeTriggered);
  EXPECT_EQ(r.streams[1].type, net::TrafficClass::EventTriggered);
  EXPECT_GT(r.solve.smtClauses, 0);
}

TEST(Facade, ByNameLookup) {
  const auto r = runExperiment(smallExperiment());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.byName("tct").name, "tct");
  EXPECT_EQ(r.byName("ect").name, "ect");
  EXPECT_THROW(r.byName("nope"), ConfigError);
}

TEST(Facade, InfeasibleReturnsEmptyStreams) {
  Experiment ex = smallExperiment();
  // Overload: two 3-frame streams in a period that fits only one chain.
  ex.specs.clear();
  for (int i = 0; i < 2; ++i) {
    net::StreamSpec s;
    s.name = "s" + std::to_string(i);
    s.src = i;
    s.dst = 2;
    s.period = microseconds(500);
    s.maxLatency = microseconds(500);
    s.payloadBytes = 3 * 1500;
    ex.specs.push_back(s);
  }
  const auto r = runExperiment(ex);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.streams.empty());
}

TEST(Facade, InvalidSpecThrows) {
  Experiment ex = smallExperiment();
  ex.specs[0].payloadBytes = -5;
  EXPECT_THROW(runExperiment(ex), ConfigError);
}

TEST(Facade, SeedChangesEctSamplesOnly) {
  Experiment a = smallExperiment();
  a.simConfig.duration = seconds(2);
  Experiment b = a;
  b.simConfig.seed = a.simConfig.seed + 1;
  const auto ra = runExperiment(a);
  const auto rb = runExperiment(b);
  ASSERT_TRUE(ra.feasible && rb.feasible);
  // TCT is schedule-driven: identical across sim seeds.
  EXPECT_EQ(ra.byName("tct").latencies, rb.byName("tct").latencies);
  // ECT occurrences are stochastic: samples differ.
  EXPECT_NE(ra.byName("ect").latencies, rb.byName("ect").latencies);
}

TEST(Facade, MethodsShareWorkload) {
  // The same Experiment with a different method keeps the TCT specs
  // byte-identical (fair comparisons).
  Experiment ex = smallExperiment();
  ex.options.method = sched::Method::PERIOD;
  const auto rp = runExperiment(ex);
  ex.options.method = sched::Method::AVB;
  const auto ra = runExperiment(ex);
  ASSERT_TRUE(rp.feasible && ra.feasible);
  EXPECT_GT(rp.byName("ect").messagesDelivered, 0);
  EXPECT_GT(ra.byName("ect").messagesDelivered, 0);
}

TEST(Facade, ValidateScheduleFlag) {
  Experiment ex = smallExperiment();
  ex.validateSchedule = true;  // default; must not throw on valid output
  EXPECT_NO_THROW(runExperiment(ex));
}

TEST(Facade, PresolvedScheduleMatchesFreshSolve) {
  // Sweeps reuse one solve across cells that differ only in runtime knobs;
  // the reused path must be indistinguishable from solving in place.
  Experiment ex = smallExperiment();
  const auto fresh = runExperiment(ex);
  ex.presolved = solveSchedule(ex);
  const auto reused = runExperiment(ex);
  ASSERT_TRUE(fresh.feasible && reused.feasible);
  ASSERT_EQ(fresh.streams.size(), reused.streams.size());
  for (std::size_t i = 0; i < fresh.streams.size(); ++i) {
    EXPECT_EQ(fresh.streams[i].latencies, reused.streams[i].latencies);
    EXPECT_EQ(fresh.streams[i].messagesDelivered,
              reused.streams[i].messagesDelivered);
  }
}

TEST(Facade, PresolvedMismatchRejected) {
  Experiment ex = smallExperiment();
  ex.presolved = solveSchedule(ex);

  Experiment wrongMethod = ex;
  wrongMethod.options.method = sched::Method::AVB;
  EXPECT_THROW(runExperiment(wrongMethod), ConfigError);

  Experiment wrongSpecs = ex;
  wrongSpecs.specs.push_back(
      workload::makeEct("extra", 0, 2, milliseconds(16), 800));
  EXPECT_THROW(runExperiment(wrongSpecs), ConfigError);

  Experiment wrongName = ex;
  wrongName.specs[0].name = "renamed";
  EXPECT_THROW(runExperiment(wrongName), ConfigError);
}

}  // namespace
}  // namespace etsn
