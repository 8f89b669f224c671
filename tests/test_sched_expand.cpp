// Unit tests for stream expansion: probabilistic-stream derivation
// (§III-B), priority assignment (constraint (6)), and prudent reservation
// (Alg. 1).
#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "sched/admission.h"
#include "sched/expand.h"
#include "sched/scheduler.h"

namespace etsn::sched {
namespace {

net::StreamSpec tct(const net::Topology& t, const std::string& name,
                    net::NodeId src, net::NodeId dst, TimeNs period,
                    int payload, bool share) {
  net::StreamSpec s;
  s.name = name;
  s.src = src;
  s.dst = dst;
  s.period = period;
  s.maxLatency = period;
  s.payloadBytes = payload;
  s.share = share;
  (void)t;
  return s;
}

net::StreamSpec ect(const std::string& name, net::NodeId src, net::NodeId dst,
                    TimeNs minInterevent, int payload) {
  net::StreamSpec s;
  s.name = name;
  s.src = src;
  s.dst = dst;
  s.period = minInterevent;
  s.maxLatency = minInterevent;
  s.payloadBytes = payload;
  s.type = net::TrafficClass::EventTriggered;
  return s;
}

TEST(Expand, TctBecomesOneDetStream) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  const auto exp = expandStreams(t, {tct(t, "s1", 0, 2, milliseconds(4),
                                         100, false)},
                                 cfg);
  ASSERT_EQ(exp.streams.size(), 1u);
  const ExpandedStream& s = exp.streams[0];
  EXPECT_EQ(s.kind, StreamKind::Det);
  EXPECT_EQ(s.period, milliseconds(4));
  EXPECT_EQ(s.baseFrames(), 1);
  EXPECT_EQ(s.path.size(), 3u);  // D1-SW1-SW2-D3
  EXPECT_EQ(s.framesOnLink, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(exp.specToStreams[0], (std::vector<StreamId>{0}));
}

TEST(Expand, EctBecomesNProbStreams) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  cfg.numProbabilistic = 5;
  const auto exp =
      expandStreams(t, {ect("e1", 1, 3, milliseconds(16), 1500)}, cfg);
  ASSERT_EQ(exp.streams.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    const ExpandedStream& s = exp.streams[static_cast<std::size_t>(k)];
    EXPECT_EQ(s.kind, StreamKind::Prob);
    EXPECT_EQ(s.priority, cfg.ectPriority);
    EXPECT_EQ(s.period, milliseconds(16));
    // ot_k = (k) * T/N, deadline tightened by T/N (§III-B).
    EXPECT_EQ(s.occurrence, k * milliseconds(16) / 5);
    EXPECT_EQ(s.maxLatency, milliseconds(16) - milliseconds(16) / 5);
    EXPECT_EQ(s.specId, 0);
  }
}

TEST(Expand, PriorityGroupsRoundRobin) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;  // non-shared 1..3, shared 4..6
  std::vector<net::StreamSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(tct(t, "ns" + std::to_string(i), 0, 2, milliseconds(4),
                        100, false));
    specs.push_back(tct(t, "sh" + std::to_string(i), 0, 2, milliseconds(4),
                        100, true));
  }
  const auto exp = expandStreams(t, specs, cfg);
  for (const ExpandedStream& s : exp.streams) {
    if (s.share) {
      EXPECT_GE(s.priority, cfg.sharedPrioLow);
      EXPECT_LE(s.priority, cfg.sharedPrioHigh);
    } else {
      EXPECT_GE(s.priority, cfg.nonSharedPrioLow);
      EXPECT_LE(s.priority, cfg.nonSharedPrioHigh);
    }
  }
  // Round-robin wraps: 4 streams over 3 priorities reuses the first.
  EXPECT_EQ(exp.streams[0].priority, exp.streams[6].priority);
}

TEST(Expand, ExplicitPriorityValidated) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  auto s = tct(t, "s", 0, 2, milliseconds(4), 100, false);
  s.priority = 5;  // shared group, but stream is non-shared
  EXPECT_THROW(expandStreams(t, {s}, cfg), ConfigError);
  s.priority = 2;
  EXPECT_NO_THROW(expandStreams(t, {s}, cfg));
}

TEST(Expand, EctDeadlineTooTightThrows) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  cfg.numProbabilistic = 2;
  auto e = ect("e", 1, 3, milliseconds(16), 100);
  e.maxLatency = milliseconds(8);  // e2e - T/N = 0 → impossible
  EXPECT_THROW(expandStreams(t, {e}, cfg), ConfigError);
  cfg.numProbabilistic = 4;  // e2e - T/4 = 4ms > 0 → fine
  EXPECT_NO_THROW(expandStreams(t, {e}, cfg));
}

TEST(Expand, EctPeriodBelowNThrowsConfigError) {
  // T/N == 0: the possibilities cannot be staggered.  Malformed input, so
  // ConfigError (not an invariant failure).
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  cfg.numProbabilistic = 4;
  EXPECT_THROW(expandStreams(t, {ect("e", 1, 3, /*minInterevent=*/3, 100)},
                             cfg),
               ConfigError);
}

// Slots repeat with the period on each link's time-unit grid, so a period
// off that grid is malformed input: every engine must reject it with a
// ConfigError (not report a schedule the validator refuses, nor trip an
// internal check), PERIOD's converted ECT period included, and the
// admission engine must reject such a request as "invalid".
/// The testbed with D2's cable on a 2-us time unit (node ids as in
/// makeTestbedTopology).
net::Topology coarseD2Testbed() {
  net::Topology t;
  const net::NodeId d1 = t.addDevice("D1");
  const net::NodeId d2 = t.addDevice("D2");
  const net::NodeId d3 = t.addDevice("D3");
  const net::NodeId d4 = t.addDevice("D4");
  const net::NodeId sw1 = t.addSwitch("SW1");
  const net::NodeId sw2 = t.addSwitch("SW2");
  net::LinkParams coarse;
  coarse.timeUnit = microseconds(2);
  t.connect(d1, sw1);
  t.connect(d2, sw1, coarse);
  t.connect(d3, sw2);
  t.connect(d4, sw2);
  t.connect(sw1, sw2);
  return t;
}

TEST(Expand, OffGridPeriodIsConfigErrorForEveryEngine) {
  // D1 -> D3 and D2 -> D4 share the SW1 -> SW2 trunk (1 us time unit).
  const net::Topology testbed = net::makeTestbedTopology();
  const net::StreamSpec onGrid =
      tct(testbed, "on", 0, 2, milliseconds(4), 200, false);
  const net::StreamSpec offGrid =
      tct(testbed, "off", 1, 3, milliseconds(4) + 1, 200, false);
  // On the coarse testbed D2 -> D4 crosses the 2-us cable: a 4001-us
  // period is off its grid, and a 4-ms one mixes time units on one path.
  const net::Topology coarse = coarseD2Testbed();
  const net::StreamSpec offCoarse =
      tct(coarse, "off", 1, 3, microseconds(4001), 200, false);
  const net::StreamSpec mixed =
      tct(coarse, "mixed", 1, 3, milliseconds(4), 200, false);
  // PERIOD with 3 slots per 16 ms interevent time: a 16/3 ms period.
  const net::StreamSpec stop = ect("stop", 1, 3, milliseconds(16), 200);
  const std::vector<std::pair<const net::Topology*, net::StreamSpec>> cases =
      {{&testbed, offGrid}, {&coarse, offCoarse}, {&coarse, mixed}};
  for (const auto& [topo, bad] : cases) {
    const std::string at = bad.name + " on " +
                           (topo == &coarse ? "the coarse testbed"
                                            : "the testbed");
    for (const char* engine : {"smt", "greedy", "tabu", "portfolio"}) {
      ScheduleOptions opt;
      opt.engine = engineFromString(engine);
      EXPECT_THROW(buildSchedule(*topo, {onGrid, bad}, opt), ConfigError)
          << engine << ", " << at;
      opt.method = Method::PERIOD;
      opt.periodSlotFactor = 3;
      EXPECT_THROW(buildSchedule(*topo, {onGrid, stop}, opt), ConfigError)
          << engine << ", " << at;
    }
    EXPECT_THROW(AdmissionEngine(*topo, {onGrid, bad}, SchedulerConfig{}),
                 ConfigError)
        << at;

    AdmissionEngine eng(*topo, {onGrid}, SchedulerConfig{});
    ASSERT_TRUE(eng.feasible()) << at;
    const std::uint64_t before = scheduleHash(eng.schedule());
    const AdmissionDecision d = eng.request(addRequest(bad));
    EXPECT_FALSE(d.admitted) << at;
    EXPECT_EQ(d.rung, "invalid") << at;
    EXPECT_EQ(scheduleHash(eng.schedule()), before) << at;
  }
}

// Three TCT streams on disjoint links with prime periods of about 1 s:
// their hyperperiod, ~1.00002e21 ns, does not fit int64.  Every engine
// raises ConfigError instead of exporting a wrapped hyperperiod; the
// admission engine admits two of them and rejects the third as invalid.
TEST(Expand, HyperperiodOverflowIsConfigErrorForEveryEngine) {
  const net::Topology topo = net::makeTestbedTopology();
  // D1 -> D2, D2 -> D1 and D3 -> D4 share no directed link.
  const std::vector<net::StreamSpec> specs = {
      tct(topo, "p1", 0, 1, microseconds(1000003), 200, false),
      tct(topo, "p2", 1, 0, microseconds(999983), 200, false),
      tct(topo, "p3", 2, 3, microseconds(1000033), 200, false)};
  for (const char* engine : {"smt", "greedy", "tabu", "portfolio"}) {
    ScheduleOptions opt;
    opt.engine = engineFromString(engine);
    EXPECT_THROW(buildSchedule(topo, specs, opt), ConfigError) << engine;
  }
  EXPECT_THROW(AdmissionEngine(topo, specs, SchedulerConfig{}), ConfigError);

  AdmissionEngine eng(topo, {specs[0]}, SchedulerConfig{});
  ASSERT_TRUE(eng.feasible());
  const AdmissionDecision second = eng.request(addRequest(specs[1]));
  EXPECT_TRUE(second.admitted);
  EXPECT_EQ(second.rung, "delta");
  const std::uint64_t before = eng.stateHash();
  const AdmissionDecision third = eng.request(addRequest(specs[2]));
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.rung, "invalid");
  EXPECT_NE(third.detail.find("overflow"), std::string::npos) << third.detail;
  EXPECT_EQ(eng.stateHash(), before);
  EXPECT_EQ(eng.schedule().hyperperiod, microseconds(999985999949));
}

TEST(Expand, PrudentReservationOnlyOnSharedOverlappingLinks) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  cfg.numProbabilistic = 4;
  // Shared TCT D1->D3 crosses SW1-SW2 and SW2-D3; ECT D2->D3 crosses
  // D2-SW1, SW1-SW2, SW2-D3.  Overlap on hops 1 and 2 of the TCT stream.
  std::vector<net::StreamSpec> specs{
      tct(t, "shared", 0, 2, milliseconds(8), 1000, true),
      tct(t, "nonshared", 0, 2, milliseconds(8), 1000, false),
      ect("e1", 1, 2, milliseconds(16), 1500),
  };
  const auto exp = expandStreams(t, specs, cfg);
  const ExpandedStream& shared = exp.streams[0];
  EXPECT_EQ(shared.framesOnLink[0], 1);  // D1-SW1: ECT absent → no extras
  EXPECT_EQ(shared.framesOnLink[1], 2);  // SW1-SW2: +1 (1-frame ECT)
  EXPECT_EQ(shared.framesOnLink[2], 2);  // SW2-D3: +1
  const ExpandedStream& nonshared = exp.streams[1];
  EXPECT_EQ(nonshared.framesOnLink, (std::vector<int>{1, 1, 1}));
}

TEST(Expand, PrudentExtraFramesFormula) {
  // n = ect_frames * ceil(tct_frames * frame_time / min_interevent).
  EXPECT_EQ(prudentExtraFrames(3, microseconds(123), 1, milliseconds(16)), 1);
  EXPECT_EQ(prudentExtraFrames(3, microseconds(123), 2, milliseconds(16)), 2);
  // A very chatty TCT burst vs a very frequent ECT: multiple events can
  // land within one burst.
  EXPECT_EQ(prudentExtraFrames(10, microseconds(123), 1, microseconds(500)),
            3);  // ceil(1230/500) = 3
}

TEST(Expand, MultiMtuEctFragmentsAndReserves) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  cfg.numProbabilistic = 3;
  std::vector<net::StreamSpec> specs{
      tct(t, "shared", 0, 2, milliseconds(8), 1000, true),
      ect("e5mtu", 1, 2, milliseconds(16), 5 * 1500),
  };
  const auto exp = expandStreams(t, specs, cfg);
  // Each probabilistic stream carries 5 frames.
  EXPECT_EQ(exp.streams[1].baseFrames(), 5);
  // Shared stream reserves 5 extra frames on overlapping links.
  EXPECT_EQ(exp.streams[0].framesOnLink[1], 1 + 5);
}

TEST(Expand, FrameTxTimeUniformForSharedAndProb) {
  net::Topology t = net::makeTestbedTopology();
  const net::Link& link = t.link(0);
  ExpandedStream s;
  s.kind = StreamKind::Det;
  s.share = true;
  s.framePayloads = {1500, 200};
  // Shared streams use max-size slots so displaced frames always fit.
  EXPECT_EQ(frameTxTimeOf(s, 0, link), frameTxTimeOf(s, 1, link));
  EXPECT_EQ(frameTxTimeOf(s, 0, link),
            net::frameTxTime(1500, link.bandwidthBps));
  s.share = false;
  EXPECT_EQ(frameTxTimeOf(s, 1, link),
            net::frameTxTime(200, link.bandwidthBps));
}

TEST(Expand, ProtectedTctBecomesDisjointMemberGroups) {
  net::Topology t = net::makeRedundantTopology(/*spineLength=*/2,
                                               /*devicesPerSwitch=*/0);
  net::StreamSpec spec = tct(t, "crit", 0, 1, milliseconds(4), 100, false);
  spec.redundancy = 2;
  SchedulerConfig cfg;
  const auto exp = expandStreams(t, {spec}, cfg);
  ASSERT_EQ(exp.streams.size(), 2u);
  ASSERT_EQ(exp.specToStreams[0], (std::vector<StreamId>{0, 1}));
  const ExpandedStream& m0 = exp.streams[0];
  const ExpandedStream& m1 = exp.streams[1];
  EXPECT_EQ(m0.member, 0);
  EXPECT_EQ(m1.member, 1);
  EXPECT_EQ(m0.name, "crit/m1");
  EXPECT_EQ(m1.name, "crit/m2");
  // Structural replicas...
  EXPECT_EQ(m0.kind, m1.kind);
  EXPECT_EQ(m0.period, m1.period);
  EXPECT_EQ(m0.priority, m1.priority);
  EXPECT_EQ(m0.framePayloads, m1.framePayloads);
  // ...over cable-disjoint paths.
  for (const net::LinkId a : m0.path) {
    for (const net::LinkId b : m1.path) {
      EXPECT_NE(a, b);
      EXPECT_NE(t.link(a).reverse, b);
    }
  }
}

TEST(Expand, ProtectedEctIsMemberMajor) {
  net::Topology t = net::makeRedundantTopology(2, 0);
  net::StreamSpec spec = ect("stop", 0, 1, milliseconds(16), 200);
  spec.redundancy = 2;
  SchedulerConfig cfg;
  cfg.numProbabilistic = 3;
  const auto exp = expandStreams(t, {spec}, cfg);
  // redundancy * N Prob streams, member-major: m1/ps1..3 then m2/ps1..3.
  ASSERT_EQ(exp.streams.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const ExpandedStream& s = exp.streams[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.kind, StreamKind::Prob);
    EXPECT_EQ(s.member, i / 3);
    // Same possibility index -> same occurrence offset on both members.
    EXPECT_EQ(s.occurrence,
              exp.streams[static_cast<std::size_t>(i % 3)].occurrence);
  }
  EXPECT_EQ(exp.streams[0].name, "stop/m1/ps1");
  EXPECT_EQ(exp.streams[5].name, "stop/m2/ps3");
}

TEST(Expand, RedundancyExceedingTopologyThrows) {
  // The testbed has one trunk: no two disjoint paths device-to-device.
  net::Topology t = net::makeTestbedTopology();
  net::StreamSpec spec = tct(t, "crit", 0, 2, milliseconds(4), 100, false);
  spec.redundancy = 2;
  SchedulerConfig cfg;
  EXPECT_THROW(expandStreams(t, {spec}, cfg), ConfigError);
}

TEST(Expand, BadPriorityConfigRejected) {
  net::Topology t = net::makeTestbedTopology();
  SchedulerConfig cfg;
  cfg.sharedPrioLow = 6;
  cfg.sharedPrioHigh = 5;  // inverted
  EXPECT_THROW(
      expandStreams(t, {tct(t, "s", 0, 2, milliseconds(4), 100, false)}, cfg),
      InvariantError);
}

}  // namespace
}  // namespace etsn::sched
