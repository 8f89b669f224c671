// Tests for link-failure repair and the pinning it builds on.
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/repair.h"
#include "sched/scheduler.h"
#include "sched/smt_builder.h"
#include "sched/validate.h"
#include "workload/iec60802.h"

namespace etsn::sched {
namespace {

net::StreamSpec tct(const std::string& name, net::NodeId src, net::NodeId dst,
                    TimeNs period, int payload, bool share = false) {
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

SchedulerConfig config() {
  SchedulerConfig c;
  c.numProbabilistic = 4;
  return c;
}

// A switch ring (devices 0..3, switches 4..6): killing one trunk leaves
// an alternate path for everything, so repair can reroute instead of drop.
net::Topology ringTopology() {
  net::Topology t;
  const net::NodeId d1 = t.addDevice("D1");
  const net::NodeId d2 = t.addDevice("D2");
  const net::NodeId d3 = t.addDevice("D3");
  const net::NodeId d4 = t.addDevice("D4");
  const net::NodeId sw1 = t.addSwitch("SW1");
  const net::NodeId sw2 = t.addSwitch("SW2");
  const net::NodeId sw3 = t.addSwitch("SW3");
  t.connect(d1, sw1);
  t.connect(d2, sw1);
  t.connect(d3, sw2);
  t.connect(d4, sw3);
  t.connect(sw1, sw2);
  t.connect(sw2, sw3);
  t.connect(sw1, sw3);
  return t;
}

TEST(RepairLinkDown, ReroutesAffectedAndKeepsOthersBitForBit) {
  const net::Topology t = ringTopology();
  // telemetry (spec 0) avoids the SW1-SW3 trunk; control (1) and the ECT
  // stream (2) take it as their shortest path.
  std::vector<net::StreamSpec> specs = {
      tct("telemetry", 0, 2, milliseconds(4), 1000),
      tct("control", 1, 3, milliseconds(4), 500),
      workload::makeEct("estop", 0, 3, milliseconds(16), 200)};
  ScheduleOptions options;
  options.config = config();
  const MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);

  const net::LinkId trunk = t.linkBetween(4, 6);
  const LinkDownRepair repair = repairLinkDown(t, base.schedule, trunk);
  ASSERT_TRUE(repair.schedule.info.feasible);
  EXPECT_TRUE(validate(t, repair.schedule).empty());

  EXPECT_EQ(repair.droppedSpecs.size(), 0u);
  ASSERT_EQ(repair.reroutedSpecs.size(), 2u);
  EXPECT_EQ(repair.reroutedSpecs[0], 1);
  EXPECT_EQ(repair.reroutedSpecs[1], 2);
  EXPECT_GE(repair.untouchedStreams, 1);
  EXPECT_GE(repair.repairedStreams, 2);
  EXPECT_FALSE(repair.schedule.info.degraded);
  EXPECT_EQ(repair.schedule.info.engine, "smt-repair");

  // No repaired stream may touch the dead cable (either direction).
  const net::LinkId trunkRev = t.link(trunk).reverse;
  for (const ExpandedStream& st : repair.schedule.streams) {
    for (const net::LinkId l : st.path) {
      EXPECT_NE(l, trunk);
      EXPECT_NE(l, trunkRev);
    }
  }

  // The untouched spec keeps path AND slots bit-for-bit.
  ASSERT_EQ(repair.schedule.specToStreams[0].size(),
            base.schedule.specToStreams[0].size());
  const StreamId b = base.schedule.specToStreams[0][0];
  const StreamId r = repair.schedule.specToStreams[0][0];
  const ExpandedStream& bs = base.schedule.streams[static_cast<std::size_t>(b)];
  const ExpandedStream& rs =
      repair.schedule.streams[static_cast<std::size_t>(r)];
  ASSERT_EQ(bs.path, rs.path);
  for (std::size_t link = 0; link < bs.path.size(); ++link) {
    const auto before = base.schedule.slotsOf(b, static_cast<int>(link));
    const auto after = repair.schedule.slotsOf(r, static_cast<int>(link));
    ASSERT_EQ(before.size(), after.size()) << "link " << link;
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].start, after[i].start)
          << "slot " << i << " on link " << link << " moved";
      EXPECT_EQ(before[i].duration, after[i].duration);
    }
  }
}

TEST(RepairLinkDown, UnreachableSpecIsDroppedOthersSurvive) {
  // The testbed topology has a single trunk: cutting it strands every
  // cross-switch stream, while same-switch streams keep their slots.
  const net::Topology t = net::makeTestbedTopology();
  std::vector<net::StreamSpec> specs = {
      tct("local", 0, 1, milliseconds(4), 1000),   // D1 -> D2, same switch
      tct("cross", 0, 2, milliseconds(4), 1000)};  // D1 -> D3, via trunk
  ScheduleOptions options;
  options.config = config();
  const MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);

  const net::LinkId trunk = t.linkBetween(4, 5);
  const LinkDownRepair repair = repairLinkDown(t, base.schedule, trunk);
  ASSERT_TRUE(repair.schedule.info.feasible);
  EXPECT_TRUE(validate(t, repair.schedule).empty());

  ASSERT_EQ(repair.droppedSpecs.size(), 1u);
  EXPECT_EQ(repair.droppedSpecs[0], 1);
  EXPECT_TRUE(repair.reroutedSpecs.empty());
  EXPECT_TRUE(repair.schedule.specToStreams[1].empty());
  ASSERT_EQ(repair.schedule.specToStreams[0].size(), 1u);

  const StreamId b = base.schedule.specToStreams[0][0];
  const StreamId r = repair.schedule.specToStreams[0][0];
  const auto before = base.schedule.slotsOf(b, 0);
  const auto after = repair.schedule.slotsOf(r, 0);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].start, after[i].start);
  }
}

TEST(RepairLinkDown, RepairedScheduleAcceptsFurtherAdmissions) {
  // Degraded is not dead: the repaired schedule still validates and a
  // fresh build on the pruned stream set matches its feasibility.
  const net::Topology t = ringTopology();
  std::vector<net::StreamSpec> specs = {
      tct("a", 0, 2, milliseconds(4), 1000, true),
      workload::makeEct("e", 1, 3, milliseconds(16), 1500)};
  ScheduleOptions options;
  options.config = config();
  const MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);
  const net::LinkId trunk = t.linkBetween(5, 6);  // SW2-SW3
  const LinkDownRepair repair = repairLinkDown(t, base.schedule, trunk);
  ASSERT_TRUE(repair.schedule.info.feasible);
  EXPECT_TRUE(validate(t, repair.schedule).empty());
  EXPECT_TRUE(repair.droppedSpecs.empty());
}

TEST(RepairLinksDown, MultiLinkFailureReroutesAndDrops) {
  const net::Topology t = ringTopology();
  std::vector<net::StreamSpec> specs = {
      tct("telemetry", 0, 2, milliseconds(4), 1000),   // D1 -> D3 via SW1-SW2
      tct("to-d4", 1, 3, milliseconds(4), 500)};       // D2 -> D4
  ScheduleOptions options;
  options.config = config();
  const MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);

  // Cut both trunks into SW3: D4 is stranded, the SW1-SW2 path survives.
  const std::vector<net::LinkId> cut = {t.linkBetween(4, 6),
                                        t.linkBetween(5, 6)};
  const LinkDownRepair repair = repairLinksDown(t, base.schedule, cut);
  ASSERT_TRUE(repair.schedule.info.feasible);
  EXPECT_TRUE(validate(t, repair.schedule).empty());
  ASSERT_EQ(repair.droppedSpecs.size(), 1u);
  EXPECT_EQ(repair.droppedSpecs[0], 1);
  ASSERT_EQ(repair.schedule.specToStreams[0].size(), 1u);
  // The survivor's repaired path avoids every cut cable, both directions.
  for (const ExpandedStream& st : repair.schedule.streams) {
    for (const net::LinkId l : st.path) {
      for (const net::LinkId c : cut) {
        EXPECT_NE(l, c);
        EXPECT_NE(l, t.link(c).reverse);
      }
    }
  }
}

TEST(RepairLinksDown, UnknownFailedLinkThrows) {
  const net::Topology t = ringTopology();
  std::vector<net::StreamSpec> specs = {tct("a", 0, 2, milliseconds(4), 1000)};
  ScheduleOptions options;
  options.config = config();
  const MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);
  EXPECT_THROW(repairLinkDown(t, base.schedule,
                              static_cast<net::LinkId>(t.numLinks())),
               ConfigError);
}

// An infeasible base is caller input, not a library bug: ConfigError.
TEST(RepairLinksDown, InfeasibleBaseThrowsConfigError) {
  const net::Topology t = ringTopology();
  std::vector<net::StreamSpec> specs = {tct("a", 0, 2, milliseconds(4), 1000)};
  ScheduleOptions options;
  options.config = config();
  MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);
  base.schedule.info.feasible = false;
  EXPECT_THROW(repairLinkDown(t, base.schedule, 0), ConfigError);
}

TEST(RepairLinksDown, ScheduleReferencingMissingLinkThrows) {
  // A schedule solved against the ring must not be repaired against a
  // smaller topology whose link-id space doesn't contain its paths: the
  // pinned streams would reference links that no longer exist.
  const net::Topology ring = ringTopology();
  std::vector<net::StreamSpec> specs = {
      tct("a", 0, 3, milliseconds(4), 1000)};  // D1 -> D4, uses high link ids
  ScheduleOptions options;
  options.config = config();
  const MethodSchedule base = buildSchedule(ring, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);

  net::Topology tiny;
  const net::NodeId d = tiny.addDevice("D");
  const net::NodeId s = tiny.addSwitch("SW");
  tiny.connect(d, s);
  EXPECT_THROW(
      repairLinkDown(tiny, base.schedule, static_cast<net::LinkId>(0)),
      ConfigError);
}

net::NodeId nodeNamed(const net::Topology& t, const std::string& name) {
  for (net::NodeId n = 0; n < t.numNodes(); ++n) {
    if (t.node(n).name == name) return n;
  }
  ADD_FAILURE() << "no node named " << name;
  return net::kNoNode;
}

// Every FRER member of an ECT spec reserves on the shared streams it
// crosses: here member 2 (via spine B) is the one sharing B1->B2 with the
// TCT.  Repairing a link nothing uses must re-derive the same grids and
// pin every stream where it was.
TEST(RepairLinksDown, UnusedLinkChangesNothing) {
  const net::Topology t = net::makeRedundantTopology(2, 1);
  net::StreamSpec crit = workload::makeEct("crit", nodeNamed(t, "T"),
                                           nodeNamed(t, "L"), milliseconds(16),
                                           200);
  crit.redundancy = 2;
  const std::vector<net::StreamSpec> specs = {
      crit, tct("shared", nodeNamed(t, "DB1.1"), nodeNamed(t, "DB2.1"),
                milliseconds(4), 1000, true)};
  ScheduleOptions options;
  options.config = config();
  const MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);
  const ExpandedStream& shared = base.schedule.streams.back();
  ASSERT_EQ(shared.name, "shared");
  const net::LinkId b1b2 =
      t.linkBetween(nodeNamed(t, "B1"), nodeNamed(t, "B2"));
  const auto hop = std::find(shared.path.begin(), shared.path.end(), b1b2);
  ASSERT_NE(hop, shared.path.end());
  EXPECT_EQ(shared.framesOnLink[static_cast<std::size_t>(
                hop - shared.path.begin())],
            2);  // 1 base + 1 prudent extra for member 2

  const net::LinkId unused =
      t.linkBetween(nodeNamed(t, "DA1.1"), nodeNamed(t, "A1"));
  const LinkDownRepair repair = repairLinkDown(t, base.schedule, unused);
  ASSERT_TRUE(repair.schedule.info.feasible);
  EXPECT_TRUE(validate(t, repair.schedule).empty());
  EXPECT_EQ(repair.repairedStreams, 0);
  EXPECT_TRUE(repair.reroutedSpecs.empty());
  EXPECT_TRUE(repair.droppedSpecs.empty());
  EXPECT_FALSE(repair.schedule.info.degraded);
  ASSERT_EQ(repair.schedule.streams.size(), base.schedule.streams.size());
  for (std::size_t i = 0; i < base.schedule.streams.size(); ++i) {
    EXPECT_EQ(repair.schedule.streams[i].framesOnLink,
              base.schedule.streams[i].framesOnLink)
        << base.schedule.streams[i].name;
  }
  ASSERT_EQ(repair.schedule.slots.size(), base.schedule.slots.size());
  for (std::size_t i = 0; i < base.schedule.slots.size(); ++i) {
    const Slot& a = base.schedule.slots[i];
    const Slot& b = repair.schedule.slots[i];
    EXPECT_EQ(a.stream, b.stream) << "slot " << i;
    EXPECT_EQ(a.hop, b.hop) << "slot " << i;
    EXPECT_EQ(a.frameIndex, b.frameIndex) << "slot " << i;
    EXPECT_EQ(a.start, b.start) << "slot " << i;
    EXPECT_EQ(a.duration, b.duration) << "slot " << i;
  }
}

// A pinned repair that runs out of SMT budget re-places every surviving
// stream with greedy and says so.
TEST(RepairLinkDown, PinnedRepairOverBudgetDegradesToGreedy) {
  const net::Topology t = ringTopology();
  std::vector<net::StreamSpec> specs;
  for (int i = 0; i < 8; ++i) {
    const net::NodeId src = i % 4;
    const net::NodeId dst = (i + 1 + i / 4) % 4;
    specs.push_back(tct("s" + std::to_string(i), src, dst,
                        milliseconds(4), 300 + 100 * i));
  }
  ScheduleOptions options;
  options.config = config();
  MethodSchedule base = buildSchedule(t, specs, options);
  ASSERT_TRUE(base.schedule.info.feasible);
  base.schedule.config.conflictBudget = 1;

  const LinkDownRepair repair =
      repairLinkDown(t, base.schedule, t.linkBetween(4, 6));
  EXPECT_TRUE(repair.schedule.info.degraded);
  EXPECT_EQ(repair.schedule.info.engine, "greedy-repair");
  ASSERT_TRUE(repair.schedule.info.feasible);
  EXPECT_TRUE(validate(t, repair.schedule).empty());
  EXPECT_FALSE(repair.reroutedSpecs.empty());
}

// FRER repair decides per member.  Two spines A and B (plus an optional
// third, C) join talker T to listener L; `crit` is a 2-member TCT whose
// members take spines A and B.
struct FrerCase {
  net::Topology topo;
  MethodSchedule base;
};

FrerCase frerCase(net::Topology topo) {
  net::StreamSpec crit = tct("crit", nodeNamed(topo, "T"),
                             nodeNamed(topo, "L"), milliseconds(4), 1000);
  crit.redundancy = 2;
  ScheduleOptions options;
  options.config = config();
  MethodSchedule base = buildSchedule(topo, {crit}, options);
  return {std::move(topo), std::move(base)};
}

/// The repaired schedule is valid and no stream uses a cut cable.
void expectSoundRepair(const net::Topology& t, const LinkDownRepair& repair,
                       net::LinkId cut) {
  ASSERT_TRUE(repair.schedule.info.feasible);
  const auto violations = validate(t, repair.schedule);
  EXPECT_TRUE(violations.empty())
      << violations.front().constraint << " " << violations.front().detail;
  for (const ExpandedStream& st : repair.schedule.streams) {
    for (const net::LinkId l : st.path) {
      EXPECT_NE(l, cut) << st.name;
      EXPECT_NE(l, t.link(cut).reverse) << st.name;
    }
  }
}

// Cutting member 1's spine leaves no path disjoint from member 2: member 1
// is dropped, and member 2 keeps its path and slots as the sole member.
TEST(RepairLinksDown, FrerMemberOneCutIsDroppedNotMergedOntoMemberTwo) {
  const FrerCase c = frerCase(net::makeRedundantTopology(3, 1));
  ASSERT_TRUE(c.base.schedule.info.feasible);
  const net::LinkId cut =
      c.topo.linkBetween(nodeNamed(c.topo, "A1"), nodeNamed(c.topo, "A2"));
  const LinkDownRepair repair = repairLinkDown(c.topo, c.base.schedule, cut);
  expectSoundRepair(c.topo, repair, cut);
  EXPECT_FALSE(repair.schedule.info.degraded);
  EXPECT_TRUE(repair.reroutedSpecs.empty());
  EXPECT_TRUE(repair.droppedSpecs.empty());
  EXPECT_EQ(repair.lostMemberSpecs, std::vector<std::int32_t>{0});
  EXPECT_EQ(repair.schedule.specs[0].redundancy, 1);
  ASSERT_EQ(repair.schedule.specToStreams[0].size(), 1u);
  const ExpandedStream& survivor = repair.schedule.streams[static_cast<
      std::size_t>(repair.schedule.specToStreams[0][0])];
  const ExpandedStream& m2 = c.base.schedule.streams[1];
  EXPECT_EQ(survivor.member, 0);
  EXPECT_EQ(survivor.path, m2.path);
  EXPECT_EQ(repair.untouchedStreams, 1);
  const auto before = c.base.schedule.slotsOf(m2.id, 0);
  const auto after = repair.schedule.slotsOf(survivor.id, 0);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].start, after[i].start);
  }
}

// Cutting member 2's spine must not leave member 2 on the dead cable.
TEST(RepairLinksDown, FrerMemberTwoCutLeavesNoStreamOnTheDeadCable) {
  const FrerCase c = frerCase(net::makeRedundantTopology(3, 1));
  ASSERT_TRUE(c.base.schedule.info.feasible);
  const net::LinkId cut =
      c.topo.linkBetween(nodeNamed(c.topo, "B1"), nodeNamed(c.topo, "B2"));
  const LinkDownRepair repair = repairLinkDown(c.topo, c.base.schedule, cut);
  expectSoundRepair(c.topo, repair, cut);
  EXPECT_EQ(repair.lostMemberSpecs, std::vector<std::int32_t>{0});
  EXPECT_EQ(repair.schedule.specs[0].redundancy, 1);
  ASSERT_EQ(repair.schedule.specToStreams[0].size(), 1u);
  EXPECT_EQ(repair.schedule.streams[0].path, c.base.schedule.streams[0].path);
}

// With a third disjoint route, the cut member is rerouted onto it and the
// spec keeps both members.
TEST(RepairLinksDown, FrerMemberReroutesOntoAThirdDisjointRoute) {
  net::Topology t;
  const net::NodeId talker = t.addDevice("T");
  const net::NodeId listener = t.addDevice("L");
  for (const char* spine : {"A", "B", "C"}) {
    const net::NodeId first = t.addSwitch(std::string(spine) + "1");
    const net::NodeId second = t.addSwitch(std::string(spine) + "2");
    t.connect(talker, first);
    t.connect(first, second);
    t.connect(second, listener);
  }
  const FrerCase c = frerCase(std::move(t));
  ASSERT_TRUE(c.base.schedule.info.feasible);
  const net::LinkId cut =
      c.topo.linkBetween(nodeNamed(c.topo, "A1"), nodeNamed(c.topo, "A2"));
  ASSERT_NE(std::find(c.base.schedule.streams[0].path.begin(),
                      c.base.schedule.streams[0].path.end(), cut),
            c.base.schedule.streams[0].path.end());
  const LinkDownRepair repair = repairLinkDown(c.topo, c.base.schedule, cut);
  expectSoundRepair(c.topo, repair, cut);
  EXPECT_EQ(repair.reroutedSpecs, std::vector<std::int32_t>{0});
  EXPECT_TRUE(repair.lostMemberSpecs.empty());
  EXPECT_EQ(repair.schedule.specs[0].redundancy, 2);
  ASSERT_EQ(repair.schedule.specToStreams[0].size(), 2u);
  EXPECT_EQ(repair.schedule.streams[1].path, c.base.schedule.streams[1].path);
  const net::NodeId c1 = nodeNamed(c.topo, "C1");
  EXPECT_EQ(c.topo.link(repair.schedule.streams[0].path.front()).to, c1);
}

// pinStreamTo contract: stale slots must be rejected with ConfigError —
// never silently mis-pinned or read out of bounds (see smt_builder.h).

MethodSchedule singleStreamBase(const net::Topology& t) {
  ScheduleOptions options;
  options.config = config();
  return buildSchedule(t, {tct("t1", 0, 2, milliseconds(4), 1000)}, options);
}

TEST(PinStreamTo, UnknownStreamIdThrows) {
  const net::Topology t = net::makeTestbedTopology();
  const MethodSchedule base = singleStreamBase(t);
  ASSERT_TRUE(base.schedule.info.feasible);
  ScheduleSmt smt(t, base.schedule.streams, config());
  smt.buildConstraints();
  EXPECT_THROW(smt.pinStreamTo(5, base.schedule.slots), ConfigError);
}

TEST(PinStreamTo, StaleReservationGridThrows) {
  const net::Topology t = net::makeTestbedTopology();
  const MethodSchedule base = singleStreamBase(t);
  ASSERT_TRUE(base.schedule.info.feasible);
  // The stream's grid grew by one prudent frame (as an ECT reroute would
  // cause) after the slots were extracted: incomplete coverage, throw.
  std::vector<ExpandedStream> grown = base.schedule.streams;
  grown[0].framesOnLink[1] += 1;
  ScheduleSmt smt(t, grown, config());
  smt.buildConstraints();
  EXPECT_THROW(smt.pinStreamTo(0, base.schedule.slots), ConfigError);
}

TEST(PinStreamTo, SlotOffTheGridThrows) {
  const net::Topology t = net::makeTestbedTopology();
  const MethodSchedule base = singleStreamBase(t);
  ASSERT_TRUE(base.schedule.info.feasible);
  ScheduleSmt smt(t, base.schedule.streams, config());
  smt.buildConstraints();
  // A slot whose hop points past the stream's (shrunken) path — e.g.
  // extracted before a reroute onto a shorter path.
  std::vector<Slot> stale = base.schedule.slots;
  stale.front().hop = 99;
  EXPECT_THROW(smt.pinStreamTo(0, stale), ConfigError);
  std::vector<Slot> dup = base.schedule.slots;
  dup.push_back(dup.front());
  EXPECT_THROW(smt.pinStreamTo(0, dup), ConfigError);
}

}  // namespace
}  // namespace etsn::sched
