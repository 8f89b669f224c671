// 802.1CB FRER tests: the sequence-recovery relay in isolation (vector
// recovery window, rogue handling, reset timeout, latent-error alarm),
// then end-to-end protected experiments — frame books closing copy-for-
// copy, seamless delivery through a single-path kill, and burst-loss
// recovery by the surviving member.
#include <gtest/gtest.h>

#include "etsn/etsn.h"
#include "sched/program.h"
#include "sched/scheduler.h"
#include "sim/frer.h"
#include "sim/network.h"

namespace etsn {
namespace {

sim::Frame copy(std::int32_t spec, std::int64_t seq) {
  sim::Frame f;
  f.specId = spec;
  f.seq = seq;
  return f;
}

sim::FrerConfig unitConfig() {
  sim::FrerConfig cfg;
  cfg.historyLength = 8;
  cfg.resetTimeout = milliseconds(1);
  return cfg;
}

TEST(FrerRelay, FirstCopyPassesSecondEliminated) {
  sim::FrerRelay relay(unitConfig(), {2});
  for (std::int64_t seq = 0; seq < 10; ++seq) {
    EXPECT_TRUE(relay.accept(copy(0, seq), microseconds(seq)));
    EXPECT_FALSE(relay.accept(copy(0, seq), microseconds(seq)));
  }
  EXPECT_EQ(relay.passed(0), 10);
  EXPECT_EQ(relay.discarded(0), 10);
  EXPECT_EQ(relay.resets(0), 0);
}

TEST(FrerRelay, OutOfOrderCopyInsideWindowPassesOnce) {
  sim::FrerRelay relay(unitConfig(), {2});
  EXPECT_TRUE(relay.accept(copy(0, 0), 0));
  EXPECT_TRUE(relay.accept(copy(0, 2), 0));  // seq 1 skipped so far
  EXPECT_TRUE(relay.accept(copy(0, 1), 0));  // late copy fills the gap
  EXPECT_FALSE(relay.accept(copy(0, 1), 0));  // its sibling is a duplicate
  EXPECT_FALSE(relay.accept(copy(0, 2), 0));
  EXPECT_EQ(relay.passed(0), 3);
}

TEST(FrerRelay, FarAheadJumpForgetsTheWindow) {
  sim::FrerRelay relay(unitConfig(), {2});
  EXPECT_TRUE(relay.accept(copy(0, 0), 0));
  EXPECT_TRUE(relay.accept(copy(0, 100), 0));  // window slides past 0..91
  // Inside the new window and never seen: passes.
  EXPECT_TRUE(relay.accept(copy(0, 99), 0));
  // Behind the new window: rogue, indistinguishable from a replay.
  EXPECT_FALSE(relay.accept(copy(0, 0), 0));
}

TEST(FrerRelay, BehindWindowIsRogue) {
  sim::FrerRelay relay(unitConfig(), {2});  // historyLength 8
  EXPECT_TRUE(relay.accept(copy(0, 20), 0));
  EXPECT_TRUE(relay.accept(copy(0, 13), 0));   // delta 7, inside
  EXPECT_FALSE(relay.accept(copy(0, 11), 0));  // delta 9, behind
  EXPECT_EQ(relay.discarded(0), 1);
}

TEST(FrerRelay, ResetTimeoutTakesAnySequence) {
  sim::FrerRelay relay(unitConfig(), {2});  // resetTimeout 1 ms
  EXPECT_TRUE(relay.accept(copy(0, 500), 0));
  // Without a reset this would be rogue (far behind 500); after a silent
  // millisecond the recovery forgets the window and takes any.
  EXPECT_TRUE(relay.accept(copy(0, 3), milliseconds(2)));
  EXPECT_EQ(relay.resets(0), 1);
  // The window restarted at 3: its duplicate is eliminated again.
  EXPECT_FALSE(relay.accept(copy(0, 3), milliseconds(2)));
}

TEST(FrerRelay, LatentErrorAlarmOnSilentMember) {
  sim::FrerConfig cfg;
  cfg.historyLength = 32;
  cfg.resetTimeout = 0;
  cfg.latentErrorPeriod = milliseconds(1);
  cfg.latentErrorThreshold = 4;
  int alarms = 0;
  std::int32_t alarmSpec = -1;
  cfg.onLatentError = [&](std::int32_t spec, TimeNs) {
    ++alarms;
    alarmSpec = spec;
  };
  sim::FrerRelay relay(std::move(cfg), {2});
  // A healthy k=2 stream: every pass is matched by one discard — the
  // imbalance (k-1)*passed - discarded stays at zero, no alarm.
  TimeNs now = 0;
  for (std::int64_t seq = 0; seq < 20; ++seq) {
    now = microseconds(100) * seq;
    relay.accept(copy(0, seq), now);
    relay.accept(copy(0, seq), now);
  }
  EXPECT_EQ(alarms, 0);
  // One member goes silent: only single copies arrive, the imbalance
  // grows past the threshold and the alarm fires on a later arrival.
  for (std::int64_t seq = 20; seq < 60; ++seq) {
    now = microseconds(100) * seq;
    relay.accept(copy(0, seq), now);
  }
  EXPECT_GT(alarms, 0);
  EXPECT_EQ(alarmSpec, 0);
}

TEST(FrerRelay, RejectsBadConfig) {
  EXPECT_THROW(
      {
        sim::FrerConfig cfg;
        cfg.historyLength = 0;
        sim::FrerRelay relay(cfg, {2});
      },
      InvariantError);
  EXPECT_THROW(
      {
        sim::FrerConfig cfg;
        cfg.historyLength = 65;
        sim::FrerRelay relay(cfg, {2});
      },
      InvariantError);
}

// --- End-to-end: protected streams through the full pipeline. ---

Experiment protectedExperiment() {
  Experiment ex;
  ex.topo = net::makeRedundantTopology(/*spineLength=*/2,
                                       /*devicesPerSwitch=*/0);
  net::StreamSpec crit;  // nodes: T=0, L=1, A1=2, A2=3, B1=4, B2=5
  crit.name = "crit";
  crit.src = 0;
  crit.dst = 1;
  crit.period = milliseconds(4);
  crit.maxLatency = milliseconds(4);
  crit.payloadBytes = 1000;
  crit.redundancy = 2;
  ex.specs.push_back(crit);
  ex.options.config.numProbabilistic = 2;
  ex.simConfig.duration = seconds(1);
  ex.simConfig.seed = 11;
  return ex;
}

/// Frame books must close copy-for-copy, message books message-for-message.
void expectBooksClosed(const sim::StreamRecord& r) {
  EXPECT_EQ(r.framesEmitted,
            r.framesDelivered + r.framesDroppedLoss + r.framesDroppedOutage +
                r.framesDroppedPolicer + r.framesDroppedOverflow +
                r.duplicatesEliminated + r.framesInFlight);
  EXPECT_EQ(r.messagesSent,
            r.messagesDelivered + r.messagesLost + r.messagesUnterminated);
}

/// Run a protected experiment at simulator level so the frame-level
/// StreamRecord is visible (the façade only surfaces message counters).
sim::StreamRecord runProtected(const Experiment& ex) {
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  EXPECT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);
  sim::Network network(ex.topo, program, ex.simConfig);
  network.run();
  expectBooksClosed(network.recorder().record(0));
  return network.recorder().record(0);
}

TEST(FrerEndToEnd, CleanRunEliminatesEveryDuplicate) {
  const sim::StreamRecord r = runProtected(protectedExperiment());
  EXPECT_GT(r.messagesSent, 0);
  EXPECT_EQ(r.messagesLost, 0);
  EXPECT_EQ(r.deadlineMisses, 0);
  // k=2: one extra copy per fragment, and on a clean run every one of
  // them reaches the merge point and dies there.
  EXPECT_EQ(r.framesReplicated, r.framesEmitted / 2);
  EXPECT_EQ(r.duplicatesEliminated + r.framesInFlight / 2,
            r.framesReplicated);
  EXPECT_EQ(r.recoveredByRedundancy, 0);
}

TEST(FrerEndToEnd, SingleLinkKillIsSeamless) {
  Experiment ex = protectedExperiment();
  sim::LinkOutage o;  // the primary member's trunk dies for good
  o.link = ex.topo.linkBetween(2, 3);
  o.downAt = ex.simConfig.duration / 2;
  o.upAt = o.downAt;
  ex.simConfig.faults.outages.push_back(o);
  const sim::StreamRecord r = runProtected(ex);
  EXPECT_GT(r.messagesSent, 0);
  EXPECT_EQ(r.messagesLost, 0);      // the surviving member masks the cut
  EXPECT_EQ(r.deadlineMisses, 0);    // seamlessly — no gap, no late frames
  EXPECT_GT(r.duplicatesEliminated, 0);
  EXPECT_EQ(r.messagesDelivered + r.messagesUnterminated, r.messagesSent);
}

TEST(FrerEndToEnd, BurstLossOnOneMemberIsRecovered) {
  Experiment ex = protectedExperiment();
  sim::LossModel loss;  // bursts on the primary spine's trunk only
  loss.link = ex.topo.linkBetween(2, 3);
  loss.pGoodToBad = 0.05;
  loss.pBadToGood = 0.1;
  loss.lossBad = 1.0;
  ex.simConfig.faults.losses.push_back(loss);
  const sim::StreamRecord r = runProtected(ex);
  EXPECT_GT(r.framesDroppedLoss, 0);  // copies really died in bursts
  EXPECT_EQ(r.messagesLost, 0);       // yet nothing was lost
  EXPECT_EQ(r.deadlineMisses, 0);
  EXPECT_GT(r.recoveredByRedundancy, 0);
  EXPECT_EQ(r.messagesDelivered + r.messagesUnterminated, r.messagesSent);
}

TEST(FrerEndToEnd, LatentAlarmSurfacesInResults) {
  Experiment ex = protectedExperiment();
  ex.simConfig.frer.latentErrorPeriod = milliseconds(50);
  sim::LinkOutage o;
  o.link = ex.topo.linkBetween(2, 3);
  o.downAt = ex.simConfig.duration / 4;
  o.upAt = o.downAt;
  ex.simConfig.faults.outages.push_back(o);
  const ExperimentResult r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  const StreamResult& s = r.byName("crit");
  EXPECT_EQ(s.messagesLost, 0);
  EXPECT_EQ(s.deadlineMisses, 0);
  EXPECT_GT(s.frerLatentAlarms, 0);
  EXPECT_GT(s.duplicatesEliminated, 0);
}

TEST(FrerEndToEnd, ProtectedEctStreamSurvivesKill) {
  Experiment ex = protectedExperiment();
  net::StreamSpec stop =
      workload::makeEct("stop", 0, 1, milliseconds(16), 500);
  stop.redundancy = 2;
  ex.specs.push_back(stop);
  sim::LinkOutage o;
  o.link = ex.topo.linkBetween(2, 3);
  o.downAt = ex.simConfig.duration / 2;
  o.upAt = o.downAt;
  ex.simConfig.faults.outages.push_back(o);
  const ExperimentResult r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  const StreamResult& s = r.byName("stop");
  EXPECT_GT(s.messagesSent, 0);
  EXPECT_EQ(s.messagesLost, 0);
  EXPECT_GT(s.duplicatesEliminated, 0);
}

TEST(FrerEndToEnd, DeterministicAcrossRuns) {
  Experiment ex = protectedExperiment();
  sim::LossModel loss;
  loss.link = ex.topo.linkBetween(2, 3);
  loss.pGoodToBad = 0.05;
  loss.pBadToGood = 0.1;
  loss.lossBad = 1.0;
  ex.simConfig.faults.losses.push_back(loss);
  const ExperimentResult a = runExperiment(ex);
  const ExperimentResult b = runExperiment(ex);
  ASSERT_TRUE(a.feasible);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].latencies, b.streams[i].latencies);
    EXPECT_EQ(a.streams[i].messagesDelivered, b.streams[i].messagesDelivered);
    EXPECT_EQ(a.streams[i].duplicatesEliminated,
              b.streams[i].duplicatesEliminated);
    EXPECT_EQ(a.streams[i].recoveredByRedundancy,
              b.streams[i].recoveredByRedundancy);
  }
}

}  // namespace
}  // namespace etsn
