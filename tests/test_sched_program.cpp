// Byte-identity pins for deploy output: compileProgram's result and
// compileFilters' tables, hashed on fixed small schedules that cover each
// compilation path (E-TSN with ECT sharing the TCT slots, PERIOD, AVB and
// a two-member FRER spec).  The schedule's own hash is pinned beside them,
// so a failure says whether the schedule or its compilation moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/psfp.h"
#include "net/topology.h"
#include "sched/admission.h"
#include "sched/program.h"
#include "sched/scheduler.h"
#include "workload/iec60802.h"

namespace etsn::sched {
namespace {

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(x) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double x) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  template <typename T>
  void addAll(const std::vector<T>& v) {
    add(static_cast<std::int64_t>(v.size()));
    for (const T& x : v) add(static_cast<std::int64_t>(x));
  }
};

std::uint64_t programHash(const NetworkProgram& p) {
  Fnv f;
  f.add(p.gclCycle);
  f.add(p.switchProcessingDelay);
  f.add(static_cast<std::int64_t>(p.bestEffortQueue));
  f.add(static_cast<std::int64_t>(p.linkGcl.size()));
  for (const net::Gcl& g : p.linkGcl) {
    f.add(g.cycle());
    f.add(static_cast<std::int64_t>(g.entries().size()));
    for (const net::GclEntry& e : g.entries()) {
      f.add(e.duration);
      f.add(static_cast<std::int64_t>(e.gateMask));
    }
  }
  // Member 0's stream, offsets and route are fed where the pin was
  // recorded from single-path copies of them.
  for (const TalkerConfig& t : p.talkers) {
    const TalkerMember& m0 = t.members.at(0);
    f.add(static_cast<std::int64_t>(t.specId));
    f.add(static_cast<std::int64_t>(m0.stream));
    f.add(static_cast<std::int64_t>(t.priority));
    f.add(t.offset);
    f.add(t.period);
    f.add(t.maxLatency);
    f.addAll(t.framePayloads);
    f.addAll(m0.frameOffsets);
    f.addAll(m0.route);
    f.add(static_cast<std::int64_t>(t.members.size()));
    for (const TalkerMember& m : t.members) {
      f.add(static_cast<std::int64_t>(m.stream));
      f.add(m.offset);
      f.addAll(m.frameOffsets);
      f.addAll(m.route);
    }
  }
  for (const EctSourceConfig& e : p.ectSources) {
    f.add(static_cast<std::int64_t>(e.specId));
    f.add(static_cast<std::int64_t>(e.priority));
    f.add(e.minInterevent);
    f.add(e.maxLatency);
    f.addAll(e.framePayloads);
    f.addAll(e.memberRoutes.at(0));
    f.add(static_cast<std::int64_t>(e.memberRoutes.size()));
    for (const auto& r : e.memberRoutes) f.addAll(r);
  }
  for (const CbsConfig& c : p.cbs) {
    f.add(static_cast<std::int64_t>(c.queue));
    f.add(c.idleSlopeFraction);
  }
  return f.h;
}

std::uint64_t filtersHash(const net::PsfpConfig& c) {
  Fnv f;
  auto addGate = [&](const net::GateFilter& g) {
    f.add(g.period);
    f.add(static_cast<std::int64_t>(g.windows.size()));
    for (const net::ArrivalWindow& w : g.windows) {
      f.add(w.start);
      f.add(w.end);
    }
  };
  for (const net::StreamFilter& s : c.filters) {
    f.add(static_cast<std::int64_t>(s.specId));
    f.add(static_cast<std::int64_t>(s.kind));
    f.add(static_cast<std::int64_t>(s.members));
    // The pins were recorded from a single gate field (member 0's gate,
    // empty for meters) plus a per-member list filled only for two or
    // more members; feed the same bytes from the one gate list.
    addGate(s.gates.empty() ? net::GateFilter{} : s.gates[0]);
    const std::size_t perMember = s.gates.size() > 1 ? s.gates.size() : 0;
    f.add(static_cast<std::int64_t>(perMember));
    for (std::size_t m = 0; m < perMember; ++m) addGate(s.gates[m]);
    f.add(s.meter.tokensPerInterval);
    f.add(s.meter.interval);
    f.add(s.meter.bucketCapacity);
  }
  return f.h;
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Deployed {
  MethodSchedule ms;
  NetworkProgram program;
  net::PsfpConfig filters;
};

Deployed deploy(const net::Topology& topo,
                const std::vector<net::StreamSpec>& specs,
                const ScheduleOptions& options) {
  Deployed d;
  d.ms = buildSchedule(topo, specs, options);
  EXPECT_TRUE(d.ms.schedule.info.feasible);
  if (d.ms.schedule.info.feasible) {
    d.program = compileProgram(topo, d.ms);
    d.filters = net::compileFilters(topo, d.ms);
  }
  return d;
}

/// Expected hex hashes of the schedule, the program and the filters.
void expectPinned(const Deployed& d, const char* schedule, const char* program,
                  const char* filters) {
  EXPECT_EQ(hex(scheduleHash(d.ms.schedule)), schedule);
  EXPECT_EQ(hex(programHash(d.program)), program);
  EXPECT_EQ(hex(filtersHash(d.filters)), filters);
}

/// Does some GCL entry open both queues at once?
bool opensTogether(const NetworkProgram& p, int a, int b) {
  const unsigned both = (1u << a) | (1u << b);
  for (const net::Gcl& g : p.linkGcl) {
    for (const net::GclEntry& e : g.entries()) {
      if ((e.gateMask & both) == both) return true;
    }
  }
  return false;
}

/// Testbed cell: an ECT stream and a sharing TCT stream cross the trunk
/// together, next to a non-sharing TCT stream.
std::vector<net::StreamSpec> testbedSpecs() {
  std::vector<net::StreamSpec> specs{
      workload::makeEct("alarm", 1, 3, milliseconds(16), 1500)};
  net::StreamSpec shared;
  shared.name = "shared";
  shared.src = 0;
  shared.dst = 2;
  shared.period = milliseconds(4);
  shared.maxLatency = milliseconds(4);
  shared.payloadBytes = 3000;  // two frames
  shared.share = true;
  specs.push_back(shared);
  net::StreamSpec own = shared;
  own.name = "own";
  own.dst = 3;
  own.period = milliseconds(8);
  own.payloadBytes = 400;
  own.share = false;
  specs.push_back(own);
  return specs;
}

ScheduleOptions options(Method method) {
  ScheduleOptions o;
  o.method = method;
  o.engine = Engine::Greedy;
  o.config.numProbabilistic = 4;
  return o;
}

TEST(DeployPin, EtsnWithEctSharing) {
  const Deployed d = deploy(net::makeTestbedTopology(), testbedSpecs(),
                            options(Method::ETSN));
  // The EP gate opens inside the sharing stream's slots.
  const int ep = d.ms.schedule.config.ectPriority;
  ASSERT_EQ(d.program.talkers.size(), 2u);
  EXPECT_TRUE(opensTogether(d.program, d.program.talkers[0].priority, ep));
  EXPECT_FALSE(opensTogether(d.program, d.program.talkers[1].priority, ep));
  expectPinned(d, "11565dfe040eb1e5", "96b9627522e498a8", "54fb2d215590ec5b");
}

TEST(DeployPin, Period) {
  const Deployed d = deploy(net::makeTestbedTopology(), testbedSpecs(),
                            options(Method::PERIOD));
  // The ECT spec became dedicated Det slots.
  const auto& ids = d.ms.schedule.specToStreams[0];
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(d.ms.schedule.streams[static_cast<std::size_t>(ids[0])].kind,
            StreamKind::Det);
  expectPinned(d, "10b74782b0d9242c", "065bb8e6a7dd4c90", "54fb2d215590ec5b");
}

TEST(DeployPin, Avb) {
  const Deployed d = deploy(net::makeTestbedTopology(), testbedSpecs(),
                            options(Method::AVB));
  // The AVB class rides in the unallocated time, shaped by a CBS.
  const int avb = d.ms.schedule.config.ectPriority;
  ASSERT_EQ(d.program.cbs.size(), 1u);
  EXPECT_EQ(d.program.cbs[0].queue, avb);
  EXPECT_TRUE(opensTogether(d.program, avb, d.program.bestEffortQueue));
  EXPECT_FALSE(opensTogether(d.program, avb, d.program.talkers[0].priority));
  expectPinned(d, "47735d136771eb8c", "1a85a27eb3d39f69", "54fb2d215590ec5b");
}

/// Dual-spine cell (nodes T=0, L=1, A1=2, A2=3, B1=4, B2=5, one
/// background device per spine switch): a two-member sharing TCT spec and
/// a two-member ECT spec, both T -> L.
std::vector<net::StreamSpec> frerSpecs() {
  net::StreamSpec crit;
  crit.name = "crit";
  crit.src = 0;
  crit.dst = 1;
  crit.period = milliseconds(4);
  crit.maxLatency = milliseconds(4);
  crit.payloadBytes = 1000;
  crit.redundancy = 2;
  crit.share = true;
  net::StreamSpec stop =
      workload::makeEct("stop", 0, 1, milliseconds(16), 500);
  stop.redundancy = 2;
  return {crit, stop};
}

TEST(DeployPin, FrerTwoMembers) {
  const net::Topology topo = net::makeRedundantTopology(2, 1);
  const Deployed d = deploy(topo, frerSpecs(), options(Method::ETSN));
  ASSERT_EQ(d.program.talkers.size(), 1u);
  EXPECT_EQ(d.program.talkers[0].members.size(), 2u);
  ASSERT_EQ(d.program.ectSources.size(), 1u);
  EXPECT_EQ(d.program.ectSources[0].memberRoutes.size(), 2u);
  EXPECT_EQ(d.filters.filters[0].gates.size(), 2u);
  expectPinned(d, "78aa01a0e34acc94", "1a94d07858e0c5f8", "2464d694e8429d6c");
}

// AVB never expands its ECT specs, yet a protected one must replicate over
// the member paths the scheduled methods route it on.
TEST(Deploy, AvbRedundantEctTakesItsEtsnMemberPaths) {
  const net::Topology topo = net::makeRedundantTopology(2, 1);
  const Deployed etsn = deploy(topo, frerSpecs(), options(Method::ETSN));
  const Deployed avb = deploy(topo, frerSpecs(), options(Method::AVB));
  const Schedule& s = etsn.ms.schedule;
  std::vector<std::vector<net::LinkId>> expanded;
  for (const StreamId id : s.specToStreams[1]) {
    const ExpandedStream& st = s.streams[static_cast<std::size_t>(id)];
    if (static_cast<std::size_t>(st.member) == expanded.size()) {
      expanded.push_back(st.path);
    }
  }
  ASSERT_EQ(expanded.size(), 2u);
  EXPECT_NE(expanded[0], expanded[1]);
  ASSERT_EQ(avb.program.ectSources.size(), 1u);
  EXPECT_EQ(avb.program.ectSources[0].memberRoutes, expanded);
}

}  // namespace
}  // namespace etsn::sched
