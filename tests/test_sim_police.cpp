// PSFP ingress-policing tests: filter compilation from a solved schedule
// (gate windows, meter budgets), token-bucket refill arithmetic at ns
// granularity, the fail-silent block/auto-recover state machine, and the
// network-level isolation property — with policing on, a babbling source
// leaves every well-behaved stream byte-identical to the fault-free run,
// and with policing off the same babbler measurably degrades its victim.
#include <gtest/gtest.h>

#include "etsn/campaign.h"
#include "etsn/etsn.h"
#include "net/ethernet.h"
#include "net/psfp.h"
#include "sched/program.h"
#include "sim/network.h"
#include "sim/police.h"

namespace etsn {
namespace {

/// Shared-slot TCT victim + non-shared TCT bystander + a small-payload ECT
/// stream the fault layer can turn into a babbler.  The victim's shared
/// slots are exactly where an EP-priority flood can displace TCT (§III-C),
/// so it is the degradation witness; the bystander checks that non-shared
/// isolation holds regardless.
Experiment policeExperiment() {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  net::StreamSpec v;
  v.name = "victim";
  v.src = 0;
  v.dst = 2;
  v.period = milliseconds(4);
  v.maxLatency = milliseconds(4);
  v.payloadBytes = 1500;
  v.share = true;
  net::StreamSpec bys = v;
  bys.name = "bystander";
  bys.share = false;
  ex.specs = {v, bys};
  ex.specs.push_back(workload::makeEct("bab", 1, 3, milliseconds(16), 1500));
  ex.simConfig.duration = seconds(1);
  return ex;
}

/// A 1500 B frame every 10 us is ~123% of a GbE link: the babbler's EP
/// queue backlogs without bound, so every EP-open instant downstream has a
/// flood frame ready — the worst case for shared-slot TCT.
sim::BabblingSource floodFrom(TimeNs start) {
  sim::BabblingSource b;
  b.ectIndex = 0;
  b.start = start;
  b.stop = seconds(1);
  b.interval = microseconds(10);
  return b;
}

void expectWellBehavedIdentical(const ExperimentResult& a,
                                const ExperimentResult& b,
                                const std::string& name) {
  const StreamResult& x = a.byName(name);
  const StreamResult& y = b.byName(name);
  EXPECT_EQ(x.latencies, y.latencies) << name;
  EXPECT_EQ(x.messagesSent, y.messagesSent) << name;
  EXPECT_EQ(x.messagesDelivered, y.messagesDelivered) << name;
  EXPECT_EQ(x.deadlineMisses, y.deadlineMisses) << name;
  EXPECT_EQ(x.messagesUnterminated, y.messagesUnterminated) << name;
  EXPECT_EQ(x.framesDroppedPolicer, y.framesDroppedPolicer) << name;
}

void expectFrameBooksClosed(const sim::Network& network) {
  for (std::int32_t i = 0; i < network.recorder().numSpecs(); ++i) {
    const sim::StreamRecord& r = network.recorder().record(i);
    EXPECT_EQ(r.framesEmitted,
              r.framesDelivered + r.framesDroppedLoss + r.framesDroppedOutage +
                  r.framesDroppedPolicer + r.framesDroppedOverflow +
                  r.framesInFlight)
        << "spec " << i;
  }
}

TEST(Psfp, GateConformsHandlesWrapAndBounds) {
  net::GateFilter g;
  g.period = 1000;
  g.windows = {{100, 200}, {900, 1000}};
  EXPECT_TRUE(g.conforms(100));
  EXPECT_TRUE(g.conforms(199));
  EXPECT_FALSE(g.conforms(200));  // half-open
  EXPECT_FALSE(g.conforms(99));
  EXPECT_TRUE(g.conforms(950));
  EXPECT_TRUE(g.conforms(3150));  // modulo the period grid
  EXPECT_FALSE(g.conforms(3500));
  EXPECT_TRUE(g.conforms(0) == false);
}

TEST(Psfp, CompileGateWindowsFromSchedule) {
  Experiment ex = policeExperiment();
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const net::PsfpConfig filters = net::compileFilters(ex.topo, ms);
  ASSERT_EQ(filters.filters.size(), ex.specs.size());

  for (std::size_t i = 0; i < 2; ++i) {  // the two TCT specs
    const net::StreamFilter& f = filters.filters[i];
    ASSERT_EQ(f.kind, net::StreamFilter::Kind::Gate) << i;
    ASSERT_EQ(f.gates.size(), 1u) << i;
    const net::GateFilter& gate = f.gates[0];
    EXPECT_EQ(gate.period, milliseconds(4));
    ASSERT_FALSE(gate.windows.empty());
    // Windows are sorted, disjoint and inside [0, period).
    TimeNs prevEnd = 0;
    for (const net::ArrivalWindow& w : gate.windows) {
      EXPECT_GE(w.start, prevEnd);
      EXPECT_LT(w.start, w.end);
      EXPECT_LE(w.end, gate.period);
      prevEnd = w.end;
    }
    // Every hop-0 slot maps into a conformant window around
    // slot.start + propagation, and the guard band widens both sides.
    const sched::StreamId sid = ms.schedule.specToStreams[i][0];
    const sched::ExpandedStream& s =
        ms.schedule.streams[static_cast<std::size_t>(sid)];
    const TimeNs prop = ex.topo.link(s.path[0]).propagationDelay;
    for (const sched::Slot& slot : ms.schedule.slots) {
      if (slot.stream != sid || slot.hop != 0) continue;
      EXPECT_TRUE(gate.conforms(slot.start + prop));
      EXPECT_TRUE(gate.conforms(slot.start + slot.duration + prop));
    }
  }

  // The schedule does not fill the whole period for a single 1500 B frame,
  // so some phase must be non-conformant (the filter has teeth).
  const net::GateFilter& gate = filters.filters[0].gates.at(0);
  bool anyClosed = false;
  for (TimeNs t = 0; t < gate.period; t += microseconds(10)) {
    anyClosed = anyClosed || !gate.conforms(t);
  }
  EXPECT_TRUE(anyClosed);
}

TEST(Psfp, CompileMeterFromDeclaredRateAndExpansion) {
  Experiment ex = policeExperiment();
  ex.specs[2] = workload::makeEct("bab", 1, 3, milliseconds(16), 4000);
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const net::PsfpConfig filters = net::compileFilters(ex.topo, ms);

  const net::StreamFilter& f = filters.filters[2];
  ASSERT_EQ(f.kind, net::StreamFilter::Kind::Meter);
  // 4000 B fragments into 3 frames; rate is k per declared T, capacity
  // k + ceil(k/N) with the default N = 8.
  EXPECT_EQ(f.meter.tokensPerInterval, 3);
  EXPECT_EQ(f.meter.interval, milliseconds(16));
  EXPECT_EQ(f.meter.bucketCapacity, 4);
}

TEST(Police, TokenBucketRefillExactAtNsGranularity) {
  sim::PolicingConfig pc;
  pc.enabled = true;
  net::StreamFilter f;
  f.specId = 0;
  f.kind = net::StreamFilter::Kind::Meter;
  f.meter.tokensPerInterval = 3;
  f.meter.interval = 1'000'000;  // 3 tokens per millisecond
  f.meter.bucketCapacity = 4;
  pc.filters.filters = {f};
  sim::IngressPolicer police(pc);

  sim::Frame frame;
  frame.specId = 0;
  // Drain the full bucket at t = 0, then the next frame violates.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(police.admit(frame, 0).pass) << i;
  }
  EXPECT_FALSE(police.admit(frame, 0).pass);
  // 3 * 333'333 = 999'999 < interval: still no whole token.
  EXPECT_FALSE(police.admit(frame, 333'333).pass);
  // One ns later the carry crosses the interval: exactly one token.
  EXPECT_TRUE(police.admit(frame, 333'334).pass);
  // The remainder (2) persists: 2 + 3 * 333'332 = 999'998 — no token yet,
  // but one more ns of carry yields the next.
  EXPECT_FALSE(police.admit(frame, 666'666).pass);
  EXPECT_TRUE(police.admit(frame, 666'667).pass);
  // A long idle stretch caps at bucketCapacity, not rate * elapsed.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(police.admit(frame, seconds(10)).pass) << i;
  }
  EXPECT_FALSE(police.admit(frame, seconds(10)).pass);
}

TEST(Police, BlockAndAutoRecoverStateMachine) {
  sim::PolicingConfig pc;
  pc.enabled = true;
  pc.blockOnViolation = true;
  pc.quietPeriod = milliseconds(1);
  net::StreamFilter f;
  f.specId = 0;
  f.kind = net::StreamFilter::Kind::Meter;
  f.meter.tokensPerInterval = 1;
  f.meter.interval = milliseconds(1);
  f.meter.bucketCapacity = 1;
  pc.filters.filters = {f};
  std::vector<TimeNs> blocks, recovers;
  pc.onBlock = [&](std::int32_t spec, TimeNs at) {
    EXPECT_EQ(spec, 0);
    blocks.push_back(at);
  };
  pc.onRecover = [&](std::int32_t spec, TimeNs at) {
    EXPECT_EQ(spec, 0);
    recovers.push_back(at);
  };
  sim::IngressPolicer police(pc);
  sim::Frame frame;
  frame.specId = 0;

  EXPECT_TRUE(police.admit(frame, 0).pass);  // spends the only token
  const auto violated = police.admit(frame, 1000);
  EXPECT_FALSE(violated.pass);
  EXPECT_TRUE(violated.violation);
  EXPECT_TRUE(violated.blockStarted);
  EXPECT_TRUE(police.isBlocked(0, 1000));

  // Frames inside the quiet period are dropped silently (not violations)
  // and restart the quiet clock.
  const auto silent = police.admit(frame, microseconds(500));
  EXPECT_FALSE(silent.pass);
  EXPECT_FALSE(silent.violation);
  EXPECT_FALSE(silent.blockStarted);
  // 1.4 ms is past the original deadline but < 0.5 ms + quietPeriod.
  EXPECT_FALSE(police.admit(frame, microseconds(1400)).pass);
  EXPECT_TRUE(police.isBlocked(0, microseconds(1400)));

  // Quiet since 1.4 ms: the next arrival after 2.4 ms is readmitted with a
  // freshly full bucket.
  const auto back = police.admit(frame, microseconds(2500));
  EXPECT_TRUE(back.pass);
  EXPECT_TRUE(back.recovered);
  EXPECT_FALSE(police.isBlocked(0, microseconds(2500)));
  EXPECT_EQ(blocks, std::vector<TimeNs>{1000});
  EXPECT_EQ(recovers, std::vector<TimeNs>{microseconds(2500)});
}

TEST(Police, UnpolicedSpecsAlwaysPass) {
  sim::PolicingConfig pc;
  pc.enabled = true;
  sim::IngressPolicer police(pc);  // empty filter table
  sim::Frame frame;
  frame.specId = 5;
  EXPECT_TRUE(police.admit(frame, 0).pass);
  EXPECT_FALSE(police.isBlocked(5, 0));
}

// Policing must be transparent for conformant traffic: a clean run with
// filters enabled is byte-identical to one without, and records zero
// violations — guards against overtight gate windows or meter budgets.
TEST(SimPolice, CleanTrafficIsUntouchedByPolicing) {
  Experiment plain = policeExperiment();
  Experiment policed = plain;
  policed.simConfig.police.enabled = true;
  policed.simConfig.police.blockOnViolation = true;

  const auto a = runExperiment(plain);
  const auto b = runExperiment(policed);
  ASSERT_TRUE(a.feasible && b.feasible);
  for (const StreamResult& s : b.streams) {
    EXPECT_EQ(s.policerViolations, 0) << s.name;
    EXPECT_EQ(s.framesDroppedPolicer, 0) << s.name;
    EXPECT_EQ(s.blockedIntervals, 0) << s.name;
  }
  for (const std::string& name : {"victim", "bystander", "bab"}) {
    expectWellBehavedIdentical(a, b, name);
  }
}

// The flagship isolation property.  ECT generation is suppressed in every
// run so the babbler is the *only* traffic on its stream; the meter then
// admits at most bucketCapacity frames before fail-silent blocking mutes
// the stream for good (the 50 us flood never satisfies the quiet period).
TEST(SimPolice, PolicingIsolatesWellBehavedStreamsFromBabbler) {
  Experiment ex = policeExperiment();
  ex.simConfig.suppressEctTraffic = true;
  ex.simConfig.police.enabled = true;
  ex.simConfig.police.blockOnViolation = true;
  ex.simConfig.police.quietPeriod = milliseconds(10);

  const auto clean = runExperiment(ex);
  ASSERT_TRUE(clean.feasible);
  EXPECT_GT(clean.byName("victim").messagesDelivered, 200);
  EXPECT_EQ(clean.byName("victim").deadlineMisses, 0);

  // Babble from 102 ms (phase 2 ms of the victim's 4 ms cycle, away from
  // its slots) to the end of the run.
  Experiment babbling = ex;
  babbling.simConfig.faults.babblers.push_back(floodFrom(milliseconds(102)));
  const auto contained = runExperiment(babbling);
  ASSERT_TRUE(contained.feasible);

  // Well-behaved streams: byte-identical to the fault-free run.
  expectWellBehavedIdentical(clean, contained, "victim");
  expectWellBehavedIdentical(clean, contained, "bystander");

  // The babbler itself was contained: one block episode, a couple of
  // conformant frames admitted, everything else dropped at ingress.
  const StreamResult& bab = contained.byName("bab");
  EXPECT_EQ(bab.blockedIntervals, 1);
  EXPECT_GE(bab.policerViolations, 1);
  // The source link's own EP gate throttles the flood, so only a fraction
  // of the ~90k emitted frames ever reach the switch — every one of them
  // (minus the meter's initial bucket) dies at ingress.
  EXPECT_GT(bab.framesDroppedPolicer, 1'000);

  // Non-vacuity guard: the identical scenario with policing off measurably
  // degrades the shared-slot victim (EP flood displaces its slots).
  Experiment open = babbling;
  open.simConfig.police.enabled = false;
  const auto degraded = runExperiment(open);
  ASSERT_TRUE(degraded.feasible);
  const StreamResult& victim = degraded.byName("victim");
  EXPECT_TRUE(victim.deadlineMisses > 0 ||
              victim.messagesDelivered <
                  clean.byName("victim").messagesDelivered)
      << "babbler caused no victim degradation — vacuous isolation test";
}

// One switch arms policing: with only simConfig.police.enabled set,
// runExperiment compiles the filter table from the solved schedule, so the
// babbler's flood dies at ingress while the meter passes its declared rate.
TEST(SimPolice, SimConfigFlagAloneCompilesFiltersAndPolices) {
  Experiment ex = policeExperiment();
  ex.simConfig.suppressEctTraffic = true;
  ex.simConfig.police.enabled = true;
  ex.simConfig.faults.babblers.push_back(floodFrom(milliseconds(102)));
  const ExperimentResult r = runExperiment(ex);
  ASSERT_TRUE(r.feasible);
  const StreamResult& bab = r.byName("bab");
  EXPECT_GT(bab.framesDroppedPolicer, 1'000);
  EXPECT_EQ(bab.policerViolations, bab.framesDroppedPolicer);  // no blocking
}

// Bounded queues turn the unpoliced flood's unbounded backlog into
// attributed tail drops, and the frame books still close.
TEST(SimPolice, BoundedQueuesTailDropUnderFloodAndBooksClose) {
  Experiment ex = policeExperiment();
  ex.simConfig.suppressEctTraffic = true;
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);

  sim::SimConfig cfg = ex.simConfig;
  cfg.duration = milliseconds(300);
  cfg.queueCapacity = 16;
  cfg.faults.babblers.push_back(floodFrom(milliseconds(10)));
  sim::Network network(ex.topo, program, cfg);
  network.run();

  std::int64_t overflow = 0;
  for (std::int32_t i = 0; i < network.recorder().numSpecs(); ++i) {
    overflow += network.recorder().record(i).framesDroppedOverflow;
  }
  EXPECT_GT(overflow, 0);
  expectFrameBooksClosed(network);

  // Port-level attribution agrees with the recorder's total.
  std::int64_t portOverflow = 0;
  for (net::LinkId l = 0; l < ex.topo.numLinks(); ++l) {
    portOverflow += network.port(l).stats().framesDroppedOverflow;
  }
  EXPECT_EQ(portOverflow, overflow);
}

// With policing on, the flood is stopped at ingress and the books close
// through the policer bucket instead.
TEST(SimPolice, PolicerDropsCloseTheBooks) {
  Experiment ex = policeExperiment();
  ex.simConfig.suppressEctTraffic = true;
  const sched::MethodSchedule ms =
      sched::buildSchedule(ex.topo, ex.specs, ex.options);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);

  sim::SimConfig cfg = ex.simConfig;
  cfg.duration = milliseconds(300);
  cfg.police.enabled = true;
  cfg.police.filters = net::compileFilters(ex.topo, ms);
  cfg.faults.babblers.push_back(floodFrom(milliseconds(10)));
  sim::Network network(ex.topo, program, cfg);
  network.run();

  const sim::StreamRecord& bab = network.recorder().record(2);
  EXPECT_GT(bab.framesDroppedPolicer, 1000);
  EXPECT_EQ(bab.policerViolations, bab.framesDroppedPolicer);  // no blocking
  expectFrameBooksClosed(network);
}

// The campaign JSON carries the policing counters (the sweep bench feeds
// on them), and stays byte-deterministic across thread counts.
TEST(SimPolice, CampaignJsonCarriesPolicerCounters) {
  auto makeCampaign = [](int threads) {
    Campaign c;
    c.name = "police";
    c.seed = 7;
    c.threads = threads;
    for (int cell = 0; cell < 4; ++cell) {
      c.add("cell" + std::to_string(cell), [cell](std::uint64_t taskSeed) {
        Experiment ex = policeExperiment();
        ex.simConfig.duration = milliseconds(100);
        ex.simConfig.seed = taskSeed;
        ex.simConfig.suppressEctTraffic = true;
        ex.simConfig.police.enabled = cell % 2 == 0;
        ex.simConfig.faults.babblers.push_back(
            floodFrom(milliseconds(10 + cell)));
        return ex;
      });
    }
    return c;
  };
  const std::string j1 = toJson(runCampaign(makeCampaign(1)));
  const std::string j2 = toJson(runCampaign(makeCampaign(2)));
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"dropped_policer\":"), std::string::npos);
  EXPECT_NE(j1.find("\"policer_violations\":"), std::string::npos);
  EXPECT_NE(j1.find("\"dropped_overflow\":"), std::string::npos);
  EXPECT_NE(j1.find("\"blocked_intervals\":"), std::string::npos);
}

}  // namespace
}  // namespace etsn
