// Tests for the Qcc configuration interchange: round trips, hand-written
// documents, and error reporting.
#include <gtest/gtest.h>

#include "net/qcc.h"
#include "sched/program.h"
#include "sched/scheduler.h"
#include "workload/iec60802.h"

namespace etsn::net {
namespace {

QccConfig sampleConfig() {
  QccConfig c;
  c.cycle = milliseconds(16);
  StreamSpec s;
  s.name = "telemetry 1";  // the space must survive (escaped)
  s.src = 0;
  s.dst = 2;
  s.period = milliseconds(4);
  s.maxLatency = milliseconds(4);
  s.payloadBytes = 1500;
  s.priority = 4;
  s.share = true;
  s.releaseOffset = microseconds(123);
  s.path = {0, 8, 5};
  c.streams.push_back(s);
  c.streams.push_back(
      etsn::workload::makeEct("alarm", 1, 3, milliseconds(16), 200));

  GclBuilder b(milliseconds(16));
  b.open(4, microseconds(100), microseconds(350));
  b.open(7, microseconds(100), microseconds(350));
  b.openInUnallocated(0);
  c.gcls.push_back({3, b.build()});
  return c;
}

TEST(Qcc, RoundTripPreservesEverything) {
  const QccConfig a = sampleConfig();
  const QccConfig b = parseQcc(serializeQcc(a));
  EXPECT_EQ(b.cycle, a.cycle);
  ASSERT_EQ(b.streams.size(), a.streams.size());
  const StreamSpec& s0 = b.streams[0];
  EXPECT_EQ(s0.name, "telemetry_1");  // whitespace escaped
  EXPECT_EQ(s0.src, 0);
  EXPECT_EQ(s0.dst, 2);
  EXPECT_EQ(s0.period, milliseconds(4));
  EXPECT_EQ(s0.maxLatency, milliseconds(4));
  EXPECT_EQ(s0.payloadBytes, 1500);
  EXPECT_EQ(s0.priority, 4);
  EXPECT_TRUE(s0.share);
  EXPECT_EQ(s0.releaseOffset, microseconds(123));
  EXPECT_EQ(s0.path, (std::vector<LinkId>{0, 8, 5}));
  EXPECT_EQ(b.streams[1].type, TrafficClass::EventTriggered);

  ASSERT_EQ(b.gcls.size(), 1u);
  EXPECT_EQ(b.gcls[0].link, 3);
  const Gcl& g = b.gcls[0].gcl;
  EXPECT_EQ(g.cycle(), milliseconds(16));
  EXPECT_TRUE(g.gateOpen(4, microseconds(200)));
  EXPECT_TRUE(g.gateOpen(7, microseconds(200)));
  EXPECT_FALSE(g.gateOpen(0, microseconds(200)));
  EXPECT_TRUE(g.gateOpen(0, microseconds(500)));
}

TEST(Qcc, DoubleRoundTripIsIdentity) {
  const std::string once = serializeQcc(sampleConfig());
  const std::string twice = serializeQcc(parseQcc(once));
  EXPECT_EQ(once, twice);
}

TEST(Qcc, HandWrittenDocument) {
  const std::string doc = R"(# hand written
etsn-config cycle=1000000
stream name=s src=1 dst=2 period=1000000 max-latency=500000 payload=64 priority=2 type=time-triggered share=0 release=0
gcl link=0 cycle=1000000
  entry duration=400000 gates=0x04
  entry duration=600000 gates=0x01
)";
  const QccConfig c = parseQcc(doc);
  EXPECT_EQ(c.cycle, milliseconds(1));
  ASSERT_EQ(c.streams.size(), 1u);
  EXPECT_EQ(c.streams[0].maxLatency, microseconds(500));
  ASSERT_EQ(c.gcls.size(), 1u);
  EXPECT_TRUE(c.gcls[0].gcl.gateOpen(2, microseconds(100)));
  EXPECT_TRUE(c.gcls[0].gcl.gateOpen(0, microseconds(500)));
}

TEST(Qcc, ErrorsCarryLineNumbers) {
  EXPECT_THROW(parseQcc("stream name=s\n"), ConfigError);  // missing fields
  EXPECT_THROW(parseQcc("bogus a=1\n"), ConfigError);
  EXPECT_THROW(parseQcc("etsn-config cycle=1\nstream name=x src=0 dst=1 "
                        "period=5 max-latency=5 payload=1 priority=0 "
                        "type=warp-speed share=0 release=0\n"),
               ConfigError);
  EXPECT_THROW(parseQcc("etsn-config cycle=1\nentry duration=1 gates=0x1\n"),
               ConfigError);  // entry outside gcl
  EXPECT_THROW(parseQcc(""), ConfigError);  // no header
  // Entries must sum to the cycle.
  EXPECT_THROW(parseQcc("etsn-config cycle=10\ngcl link=0 cycle=10\n"
                        "entry duration=3 gates=0x1\n"),
               ConfigError);
  // key without value.
  EXPECT_THROW(parseQcc("etsn-config cycle\n"), ConfigError);
}

// Malformed GCL blocks and numbers are input errors: none may surface as
// an InvariantError from Gcl's own checks, escape as a std:: exception, or
// parse into something other than what was written.
TEST(Qcc, MalformedNumbersAndGclsAreConfigErrors) {
  const std::string head = "etsn-config cycle=10\ngcl link=0 cycle=10\n";
  EXPECT_THROW(parseQcc(head + "entry duration=0 gates=0x1\n"
                               "entry duration=10 gates=0x2\n"),
               ConfigError);
  // Negative entries that still sum to the cycle.
  EXPECT_THROW(parseQcc(head + "entry duration=15 gates=0x1\n"
                               "entry duration=-5 gates=0x2\n"),
               ConfigError);
  EXPECT_THROW(parseQcc("etsn-config cycle=10\ngcl link=0 cycle=0\n"
                        "entry duration=0 gates=0x1\n"),
               ConfigError);
  // Durations whose sum overflows.
  EXPECT_THROW(parseQcc(head + "entry duration=9223372036854775807 gates=0x1\n"
                               "entry duration=9223372036854775807 gates=0x1\n"
                               "entry duration=12 gates=0x1\n"),
               ConfigError);
  // Nine gates for eight queues.
  EXPECT_THROW(parseQcc(head + "entry duration=10 gates=0x100\n"), ConfigError);
  // Trailing garbage after a number.
  EXPECT_THROW(parseQcc(head + "entry duration=10x gates=0x1\n"), ConfigError);
  const std::string stream =
      "etsn-config cycle=10\nstream name=x src=0 dst=1 period=5 "
      "max-latency=5 payload=1 priority=0 type=time-triggered share=0 "
      "release=0 path=";
  EXPECT_THROW(parseQcc(stream + "a,b\n"), ConfigError);
  EXPECT_THROW(parseQcc(stream + "1,,2\n"), ConfigError);
  EXPECT_EQ(parseQcc(stream + "1,2\n").streams[0].path,
            (std::vector<LinkId>{1, 2}));
}

TEST(Qcc, ExportsARealSchedule) {
  // End-to-end: schedule the testbed, export the program, re-parse, and
  // check the GCLs match gate-for-gate.
  Topology topo = makeTestbedTopology();
  std::vector<StreamSpec> specs{
      etsn::workload::makeEct("e", 1, 3, milliseconds(16), 1500)};
  StreamSpec t;
  t.name = "t";
  t.src = 0;
  t.dst = 2;
  t.period = milliseconds(4);
  t.maxLatency = milliseconds(4);
  t.payloadBytes = 1000;
  t.share = true;
  specs.push_back(t);
  sched::ScheduleOptions opt;
  opt.config.numProbabilistic = 4;
  const auto ms = sched::buildSchedule(topo, specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  const sched::NetworkProgram prog = sched::compileProgram(topo, ms);

  QccConfig c;
  c.cycle = prog.gclCycle;
  c.streams = specs;
  for (LinkId l = 0; l < topo.numLinks(); ++l) {
    if (prog.linkGcl[static_cast<std::size_t>(l)].installed()) {
      c.gcls.push_back({l, prog.linkGcl[static_cast<std::size_t>(l)]});
    }
  }
  const QccConfig back = parseQcc(serializeQcc(c));
  ASSERT_EQ(back.gcls.size(), c.gcls.size());
  for (std::size_t i = 0; i < c.gcls.size(); ++i) {
    const Gcl& orig = c.gcls[i].gcl;
    const Gcl& rt = back.gcls[i].gcl;
    ASSERT_EQ(rt.cycle(), orig.cycle());
    for (TimeNs probe = 0; probe < orig.cycle();
         probe += microseconds(50)) {
      EXPECT_EQ(rt.maskAt(probe), orig.maskAt(probe)) << probe;
    }
  }
}

}  // namespace
}  // namespace etsn::net
