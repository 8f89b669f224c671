// Integration tests for the SMT scheduling pipeline: E-TSN, PERIOD, AVB.
// Every produced schedule must pass the independent validator.
#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "sched/program.h"
#include "sched/scheduler.h"
#include "sched/validate.h"

namespace etsn::sched {
namespace {

net::StreamSpec tct(const std::string& name, net::NodeId src, net::NodeId dst,
                    TimeNs period, int payload, bool share) {
  net::StreamSpec s;
  s.name = name;
  s.src = src;
  s.dst = dst;
  s.period = period;
  s.maxLatency = period;
  s.payloadBytes = payload;
  s.share = share;
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

TEST(SmtSchedule, PaperFig4TwoTctStreams) {
  // The §II example: s1 D1->D3 (3 frames), s2 D2->D3 (1 frame), both with
  // cycle 5T and deadline 5T, contending on SW1-D3.
  net::Topology t;
  const auto d1 = t.addDevice("D1");
  const auto d2 = t.addDevice("D2");
  const auto d3 = t.addDevice("D3");
  const auto sw = t.addSwitch("SW1");
  t.connect(d1, sw);
  t.connect(d2, sw);
  t.connect(sw, d3);
  // T (one MTU at 100 Mbps) ≈ 123 us; use period 5T ≈ 640 us.
  const TimeNs period = microseconds(640);
  auto s1 = tct("s1", d1, d3, period, 3 * 1500, false);
  auto s2 = tct("s2", d2, d3, period, 1500, false);
  ScheduleOptions opt;
  const auto ms = buildSchedule(t, {s1, s2}, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  EXPECT_TRUE(validate(t, ms.schedule).empty());
  // Four frames share SW1-D3 within the 640us cycle.
  const auto onLink = ms.schedule.slotsOnLink(t.linkBetween(sw, d3), t);
  EXPECT_EQ(onLink.size(), 4u);
}

TEST(SmtSchedule, InfeasibleWhenLinkOverloaded) {
  net::Topology t = net::makeTestbedTopology();
  // Two 3-frame streams with period barely above 3 frames of wire time
  // must collide on the shared SW1-SW2 link: 6 frames don't fit.
  const TimeNs period = microseconds(400);  // 3 * 123us ≈ 369us each
  auto s1 = tct("s1", 0, 2, period, 3 * 1500, false);
  auto s2 = tct("s2", 1, 3, period, 3 * 1500, false);
  ScheduleOptions opt;
  const auto ms = buildSchedule(t, {s1, s2}, opt);
  EXPECT_FALSE(ms.schedule.info.feasible);
}

TEST(SmtSchedule, EtsnTestbedWithEct) {
  // Miniature of the §VI-B testbed setup: TCT streams plus one shared ECT.
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(4), 1000, true),
      tct("t2", 1, 3, milliseconds(8), 2000, true),
      tct("t3", 3, 0, milliseconds(8), 500, false),
      ect("e1", 1, 3, milliseconds(16), 1500),
  };
  ScheduleOptions opt;
  opt.config.numProbabilistic = 8;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const auto violations = validate(t, ms.schedule);
  for (const auto& v : violations) {
    ADD_FAILURE() << v.constraint << ": " << v.detail;
  }
  // 3 Det + 8 Prob streams expanded.
  EXPECT_EQ(ms.schedule.streams.size(), 11u);
  EXPECT_EQ(ms.schedule.specToStreams[3].size(), 8u);
  EXPECT_EQ(ms.schedule.hyperperiod, milliseconds(16));
}

TEST(SmtSchedule, EtsnEctWindowsCoverThePeriod) {
  // The union of probabilistic first-link slots must leave no gap larger
  // than T/N plus the per-possibility deadline headroom; a coarse check:
  // the N slots must have distinct, increasing occurrence coverage.
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(4), 1000, true),
      ect("e1", 1, 3, milliseconds(16), 1500),
  };
  ScheduleOptions opt;
  opt.config.numProbabilistic = 8;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  ASSERT_TRUE(validate(t, ms.schedule).empty());
  // Each probabilistic stream's first-link slot is at or after its ot and
  // within its tightened deadline.
  for (const StreamId sid : ms.schedule.specToStreams[1]) {
    const ExpandedStream& ps =
        ms.schedule.streams[static_cast<std::size_t>(sid)];
    const auto slots = ms.schedule.slotsOf(sid, 0);
    ASSERT_EQ(slots.size(), 1u);
    EXPECT_GE(slots[0].start, ps.occurrence);
    const auto lastHopSlots = ms.schedule.slotsOf(sid, ps.hops() - 1);
    EXPECT_LE(lastHopSlots.back().start - ps.occurrence, ps.maxLatency);
  }
}

TEST(SmtSchedule, PeriodBaselineConvertsEct) {
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(8), 1000, true),
      ect("e1", 1, 3, milliseconds(16), 1500),
  };
  ScheduleOptions opt;
  opt.method = Method::PERIOD;
  opt.periodSlotFactor = 4;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  EXPECT_TRUE(validate(t, ms.schedule).empty());
  // ECT became one Det stream with period T/4 = 4ms.
  ASSERT_EQ(ms.schedule.specToStreams[1].size(), 1u);
  const ExpandedStream& e = ms.schedule.streams[static_cast<std::size_t>(
      ms.schedule.specToStreams[1][0])];
  EXPECT_EQ(e.kind, StreamKind::Det);
  EXPECT_EQ(e.period, milliseconds(4));
  // No prudent extras under PERIOD (no sharing).
  for (const ExpandedStream& s : ms.schedule.streams) {
    for (std::size_t h = 0; h < s.path.size(); ++h) {
      EXPECT_EQ(s.framesOnLink[h], s.baseFrames());
    }
  }
}

TEST(SmtSchedule, AvbBaselineSchedulesOnlyTct) {
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(8), 1000, true),
      ect("e1", 1, 3, milliseconds(16), 1500),
  };
  ScheduleOptions opt;
  opt.method = Method::AVB;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  EXPECT_TRUE(validate(t, ms.schedule).empty());
  EXPECT_TRUE(ms.schedule.specToStreams[1].empty());
  EXPECT_EQ(ms.schedule.streams.size(), 1u);
}

TEST(SmtSchedule, HeuristicMatchesSmtOnFeasibility) {
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(4), 1000, true),
      tct("t2", 1, 3, milliseconds(8), 2000, true),
      tct("t3", 3, 0, milliseconds(8), 500, false),
      ect("e1", 1, 3, milliseconds(16), 1500),
  };
  ScheduleOptions opt;
  opt.engine = Engine::Greedy;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  EXPECT_EQ(ms.schedule.info.engine, "greedy");
  const auto violations = validate(t, ms.schedule);
  for (const auto& v : violations) {
    ADD_FAILURE() << v.constraint << ": " << v.detail;
  }
}

TEST(SmtSchedule, ProgramCompilation) {
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(4), 1000, true),
      ect("e1", 1, 3, milliseconds(16), 1500),
  };
  ScheduleOptions opt;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const NetworkProgram prog = compileProgram(t, ms);
  EXPECT_EQ(prog.gclCycle, milliseconds(16));
  ASSERT_EQ(prog.talkers.size(), 1u);
  EXPECT_EQ(prog.talkers[0].period, milliseconds(4));
  ASSERT_EQ(prog.ectSources.size(), 1u);
  EXPECT_EQ(prog.ectSources[0].priority, opt.config.ectPriority);
  EXPECT_TRUE(prog.cbs.empty());

  // The talker's first-link GCL must open its queue at its offset.
  const TalkerConfig& talker = prog.talkers[0];
  const net::Gcl& gcl =
      prog.linkGcl[static_cast<std::size_t>(talker.members[0].route[0])];
  ASSERT_TRUE(gcl.installed());
  EXPECT_TRUE(gcl.gateOpen(talker.priority, talker.offset));
  // Every probabilistic slot opens the EP gate on its link.
  for (const Slot& slot : ms.schedule.slots) {
    const ExpandedStream& s =
        ms.schedule.streams[static_cast<std::size_t>(slot.stream)];
    if (s.kind != StreamKind::Prob) continue;
    const net::Gcl& g = prog.linkGcl[static_cast<std::size_t>(
        s.path[static_cast<std::size_t>(slot.hop)])];
    EXPECT_TRUE(g.gateOpen(s.priority, slot.start % prog.gclCycle));
  }
}

TEST(SmtSchedule, AvbProgramHasCbsAndUnallocatedGates) {
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(4), 1000, false),
      ect("e1", 1, 3, milliseconds(16), 1500),
  };
  ScheduleOptions opt;
  opt.method = Method::AVB;
  opt.avbIdleSlopeFraction = 0.5;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const NetworkProgram prog = compileProgram(t, ms);
  ASSERT_EQ(prog.cbs.size(), 1u);
  EXPECT_EQ(prog.cbs[0].queue, opt.config.ectPriority);
  EXPECT_DOUBLE_EQ(prog.cbs[0].idleSlopeFraction, 0.5);
  // On a scheduled link, the AVB queue must be closed during a TCT slot
  // and open outside it.
  const auto& talker = prog.talkers[0];
  const net::Gcl& g =
      prog.linkGcl[static_cast<std::size_t>(talker.members[0].route[0])];
  ASSERT_TRUE(g.installed());
  EXPECT_FALSE(g.gateOpen(prog.cbs[0].queue, talker.offset));
  EXPECT_TRUE(g.gateOpen(talker.priority, talker.offset));
}

TEST(SmtSchedule, SolveInfoPopulated) {
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      tct("t1", 0, 2, milliseconds(4), 1000, false),
      tct("t2", 1, 3, milliseconds(8), 1000, false),
  };
  ScheduleOptions opt;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  EXPECT_EQ(ms.schedule.info.engine, "smt");
  EXPECT_GT(ms.schedule.info.smtAtoms, 0);
  EXPECT_GT(ms.schedule.info.smtClauses, 0);
  EXPECT_GE(ms.schedule.info.solveSeconds, 0.0);
}

}  // namespace
}  // namespace etsn::sched

namespace etsn::sched {
namespace {

net::StreamSpec mkTct(const std::string& name, net::NodeId src,
                      net::NodeId dst, TimeNs period, int payload,
                      bool share) {
  net::StreamSpec s;
  s.name = name;
  s.src = src;
  s.dst = dst;
  s.period = period;
  s.maxLatency = period;
  s.payloadBytes = payload;
  s.share = share;
  return s;
}

TEST(IsolationModes, AllModesProduceValidSchedules) {
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      mkTct("a", 0, 2, milliseconds(4), 2000, true),
      mkTct("b", 0, 2, milliseconds(4), 1000, true),
      mkTct("c", 1, 3, milliseconds(8), 3000, false),
  };
  net::StreamSpec e;
  e.name = "e";
  e.src = 1;
  e.dst = 3;
  e.period = milliseconds(16);
  e.maxLatency = milliseconds(16);
  e.payloadBytes = 1500;
  e.type = net::TrafficClass::EventTriggered;
  specs.push_back(e);

  for (const auto mode :
       {SchedulerConfig::Isolation::None, SchedulerConfig::Isolation::FifoOrder,
        SchedulerConfig::Isolation::Presence,
        SchedulerConfig::Isolation::Flow}) {
    ScheduleOptions opt;
    opt.config.isolation = mode;
    opt.config.numProbabilistic = 4;
    const auto ms = buildSchedule(t, specs, opt);
    ASSERT_TRUE(ms.schedule.info.feasible)
        << "mode " << static_cast<int>(mode);
    const auto violations = validate(t, ms.schedule);
    for (const auto& v : violations) {
      ADD_FAILURE() << static_cast<int>(mode) << " " << v.constraint << ": "
                    << v.detail;
    }
  }
}

TEST(IsolationModes, FlowSeparatesWholeBursts) {
  // Two same-queue 2-frame streams from the same device: under Flow their
  // first-link bursts must not interleave.
  net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs{
      mkTct("a", 0, 2, milliseconds(4), 3000, false),
      mkTct("b", 0, 2, milliseconds(4), 3000, false),
  };
  specs[0].priority = 1;
  specs[1].priority = 1;  // force the same queue
  ScheduleOptions opt;
  opt.config.isolation = SchedulerConfig::Isolation::Flow;
  const auto ms = buildSchedule(t, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  EXPECT_TRUE(validate(t, ms.schedule).empty());
  const auto sa = ms.schedule.slotsOf(0, 0);
  const auto sb = ms.schedule.slotsOf(1, 0);
  ASSERT_EQ(sa.size(), 2u);
  ASSERT_EQ(sb.size(), 2u);
  const bool aFirst = sa.back().start + sa.back().duration <= sb.front().start;
  const bool bFirst = sb.back().start + sb.back().duration <= sa.front().start;
  EXPECT_TRUE(aFirst || bFirst) << "bursts interleave under Flow isolation";
}

}  // namespace
}  // namespace etsn::sched
