// Unit tests for the network substrate: Ethernet timing, topology/routing,
// stream validation, and GCL construction/lookup.
#include <gtest/gtest.h>

#include <random>

#include "net/ethernet.h"
#include "net/gcl.h"
#include "net/stream.h"
#include "net/topology.h"

namespace etsn::net {
namespace {

TEST(Ethernet, WireBytesIncludesOverheadAndPadding) {
  // 1500B payload + 18 L2 + 8 preamble + 12 IFG = 1538.
  EXPECT_EQ(wireBytes(kMtuPayloadBytes), 1538);
  // Tiny payloads are padded to the 46-byte minimum.
  EXPECT_EQ(wireBytes(1), 46 + 18 + 8 + 12);
  EXPECT_EQ(wireBytes(46), wireBytes(10));
}

TEST(Ethernet, TxTimeAt100Mbps) {
  // 1538 B * 8 / 100 Mbps = 123.04 us.
  EXPECT_EQ(frameTxTime(kMtuPayloadBytes, 100'000'000), 123'040);
  // 1 Gbps is 10x faster.
  EXPECT_EQ(frameTxTime(kMtuPayloadBytes, 1'000'000'000), 12'304);
}

TEST(Ethernet, TxTimeRoundsUp) {
  // 100 bytes at 3 bps: 800e9/3 ns is not integral; must round up.
  EXPECT_EQ(txTime(100, 3), (100 * 8 * kNsPerSec + 2) / 3);
}

TEST(Ethernet, FragmentationSplitsAtMtu) {
  EXPECT_EQ(fragmentPayload(100), (std::vector<int>{100}));
  EXPECT_EQ(fragmentPayload(1500), (std::vector<int>{1500}));
  EXPECT_EQ(fragmentPayload(1501), (std::vector<int>{1500, 1}));
  EXPECT_EQ(fragmentPayload(7500), (std::vector<int>(5, 1500)));
  const auto f = fragmentPayload(4000);
  EXPECT_EQ(f, (std::vector<int>{1500, 1500, 1000}));
}

TEST(Topology, ConnectCreatesBothDirections) {
  Topology t;
  const NodeId a = t.addDevice("A");
  const NodeId b = t.addSwitch("B");
  const auto [ab, ba] = t.connect(a, b);
  EXPECT_EQ(t.link(ab).from, a);
  EXPECT_EQ(t.link(ab).to, b);
  EXPECT_EQ(t.link(ba).from, b);
  EXPECT_EQ(t.link(ba).to, a);
  EXPECT_EQ(t.link(ab).reverse, ba);
  EXPECT_EQ(t.link(ba).reverse, ab);
  EXPECT_EQ(t.linkBetween(a, b), ab);
  EXPECT_EQ(t.linkBetween(b, a), ba);
}

TEST(Topology, RejectsSelfAndDuplicateLinks) {
  Topology t;
  const NodeId a = t.addDevice("A");
  const NodeId b = t.addDevice("B");
  EXPECT_THROW(t.connect(a, a), ConfigError);
  t.connect(a, b);
  EXPECT_THROW(t.connect(a, b), ConfigError);
  EXPECT_THROW(t.connect(b, a), ConfigError);
}

TEST(Topology, ShortestPathSingleHop) {
  Topology t = makeTestbedTopology();
  // D1 (0) -> D2 (1) goes via SW1: two hops.
  const auto path = t.shortestPath(0, 1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(t.link(path[0]).from, 0);
  EXPECT_EQ(t.link(path[1]).to, 1);
}

TEST(Topology, TestbedShape) {
  Topology t = makeTestbedTopology();
  EXPECT_EQ(t.numNodes(), 6);
  EXPECT_EQ(t.numLinks(), 10);  // 5 cables
  EXPECT_EQ(t.devices().size(), 4u);
  // D2 (1) -> D4 (3): D2-SW1-SW2-D4 = 3 hops (the paper's 3-hop ECT path).
  EXPECT_EQ(t.shortestPath(1, 3).size(), 3u);
}

TEST(Topology, SimulationShape) {
  Topology t = makeSimulationTopology();
  EXPECT_EQ(t.numNodes(), 16);
  EXPECT_EQ(t.numLinks(), 30);  // 12 device cables + 3 inter-switch
  // D1 (0) -> D12 (11): D1-SW1-SW2-SW3-SW4-D12 = 5 hops.
  EXPECT_EQ(t.shortestPath(0, 11).size(), 5u);
}

TEST(Topology, PathIsConnectedChain) {
  Topology t = makeSimulationTopology();
  const auto path = t.shortestPath(2, 9);
  NodeId at = 2;
  for (const LinkId l : path) {
    EXPECT_EQ(t.link(l).from, at);
    at = t.link(l).to;
  }
  EXPECT_EQ(at, 9);
}

TEST(Topology, UnreachableThrows) {
  Topology t;
  const NodeId a = t.addDevice("A");
  const NodeId b = t.addDevice("B");
  (void)b;
  const NodeId c = t.addDevice("C");
  t.connect(a, c);
  EXPECT_THROW(t.shortestPath(a, b), ConfigError);
}

TEST(Topology, AvoidingTheOnlyPathReturnsEmpty) {
  // A line T - SW - L: cutting either cable strands the endpoints, and
  // the avoiding variant degrades to empty instead of throwing.
  Topology t;
  const NodeId a = t.addDevice("T");
  const NodeId sw = t.addSwitch("SW");
  const NodeId b = t.addDevice("L");
  t.connect(a, sw);
  t.connect(sw, b);
  EXPECT_TRUE(t.shortestPathAvoiding(a, b, t.linkBetween(a, sw)).empty());
  // Avoiding the REVERSE direction cuts the same cable: still empty.
  EXPECT_TRUE(t.shortestPathAvoiding(a, b, t.linkBetween(sw, a)).empty());
}

TEST(Topology, AvoidingRedundantTrunkReroutes) {
  // The redundant cell: killing spine A's trunk leaves the spine-B route.
  Topology t = makeRedundantTopology(/*spineLength=*/2,
                                     /*devicesPerSwitch=*/0);
  const LinkId trunkA = t.linkBetween(2, 3);
  const auto detour = t.shortestPathAvoiding(0, 1, trunkA);
  ASSERT_EQ(detour.size(), 3u);  // T -> B1 -> B2 -> L
  for (const LinkId l : detour) {
    EXPECT_NE(l, trunkA);
    EXPECT_NE(t.link(l).reverse, trunkA);
  }
}

TEST(Topology, AvoidingMultipleLinksCutsEveryCable) {
  Topology t = makeRedundantTopology(/*spineLength=*/2,
                                     /*devicesPerSwitch=*/0);
  const std::vector<LinkId> both = {t.linkBetween(2, 3), t.linkBetween(4, 5)};
  // Both trunks dead: T and L are disconnected.
  EXPECT_TRUE(t.shortestPathAvoiding(0, 1, both).empty());
  // One dead trunk (span form) still reroutes.
  const std::vector<LinkId> one = {t.linkBetween(2, 3)};
  EXPECT_EQ(t.shortestPathAvoiding(0, 1, one).size(), 3u);
}

/// No two disjoint paths may share a cable: not a link, not its reverse.
void expectCableDisjoint(const Topology& t,
                         const std::vector<std::vector<LinkId>>& paths) {
  std::vector<char> used(static_cast<std::size_t>(t.numLinks()), 0);
  for (const auto& path : paths) {
    for (const LinkId l : path) {
      EXPECT_FALSE(used[static_cast<std::size_t>(l)]);
      used[static_cast<std::size_t>(l)] = 1;
      const LinkId rev = t.link(l).reverse;
      if (rev != kNoLink) {
        EXPECT_FALSE(used[static_cast<std::size_t>(rev)]);
        used[static_cast<std::size_t>(rev)] = 1;
      }
    }
  }
}

TEST(Topology, DisjointPathsShareNoCable) {
  const Topology t = makeRedundantTopology(/*spineLength=*/3,
                                           /*devicesPerSwitch=*/1);
  const auto paths = t.disjointPaths(0, 1, 2);
  ASSERT_EQ(paths.size(), 2u);
  expectCableDisjoint(t, paths);
  // Both are real T -> L chains.
  for (const auto& path : paths) {
    ASSERT_FALSE(path.empty());
    NodeId at = 0;
    for (const LinkId l : path) {
      EXPECT_EQ(t.link(l).from, at);
      at = t.link(l).to;
    }
    EXPECT_EQ(at, 1);
  }
  // Member 0 is the shortest path (spine A, wired first).
  EXPECT_EQ(paths[0], t.shortestPath(0, 1));
}

TEST(Topology, DisjointPathsReturnsFewerWhenExhausted) {
  // The testbed has a single trunk: only one T -> L path exists.
  const Topology testbed = makeTestbedTopology();
  EXPECT_EQ(testbed.disjointPaths(0, 2, 2).size(), 1u);
  // The redundant cell supplies exactly two; asking for three caps at two.
  const Topology cell = makeRedundantTopology(2, 0);
  const auto paths = cell.disjointPaths(0, 1, 3);
  EXPECT_EQ(paths.size(), 2u);
  expectCableDisjoint(cell, paths);
}

TEST(Topology, DisjointPathsPropertyOnRandomGrids) {
  // Property: on randomly wired double-ladder graphs, any two returned
  // paths are cable-disjoint, connected T -> L chains.
  std::mt19937 rng(1234);
  for (int round = 0; round < 20; ++round) {
    Topology t;
    const NodeId src = t.addDevice("T");
    const NodeId dst = t.addDevice("L");
    const int switches = 4 + static_cast<int>(rng() % 5);
    std::vector<NodeId> sw;
    for (int i = 0; i < switches; ++i) {
      sw.push_back(t.addSwitch("S" + std::to_string(i)));
    }
    // A random connected mesh: chain everything, then extra chords.
    t.connect(src, sw.front());
    for (std::size_t i = 0; i + 1 < sw.size(); ++i) {
      t.connect(sw[i], sw[i + 1]);
    }
    t.connect(sw.back(), dst);
    t.connect(src, sw[rng() % sw.size() / 2 + sw.size() / 2]);
    const int chords = static_cast<int>(rng() % 4);
    for (int i = 0; i < chords; ++i) {
      const NodeId a = sw[rng() % sw.size()];
      const NodeId b = sw[rng() % sw.size()];
      if (a != b && t.linkBetween(a, b) == kNoLink) t.connect(a, b);
    }
    const auto paths = t.disjointPaths(src, dst, 2);
    ASSERT_GE(paths.size(), 1u);
    expectCableDisjoint(t, paths);
    for (const auto& path : paths) {
      NodeId at = src;
      for (const LinkId l : path) {
        EXPECT_EQ(t.link(l).from, at);
        at = t.link(l).to;
      }
      EXPECT_EQ(at, dst);
    }
  }
}

StreamSpec validSpec(const Topology& t) {
  StreamSpec s;
  s.name = "s";
  s.src = 0;
  s.dst = 3;
  s.maxLatency = milliseconds(4);
  s.payloadBytes = 100;
  s.period = milliseconds(4);
  (void)t;
  return s;
}

TEST(StreamSpecValidation, AcceptsValid) {
  Topology t = makeTestbedTopology();
  EXPECT_NO_THROW(validateSpec(t, validSpec(t)));
}

TEST(StreamSpecValidation, RejectsBadFields) {
  Topology t = makeTestbedTopology();
  auto s = validSpec(t);
  s.src = -1;
  EXPECT_THROW(validateSpec(t, s), ConfigError);
  s = validSpec(t);
  s.dst = s.src;
  EXPECT_THROW(validateSpec(t, s), ConfigError);
  s = validSpec(t);
  s.payloadBytes = 0;
  EXPECT_THROW(validateSpec(t, s), ConfigError);
  s = validSpec(t);
  s.period = 0;
  EXPECT_THROW(validateSpec(t, s), ConfigError);
  s = validSpec(t);
  s.maxLatency = -1;
  EXPECT_THROW(validateSpec(t, s), ConfigError);
  s = validSpec(t);
  s.priority = 8;
  EXPECT_THROW(validateSpec(t, s), ConfigError);
}

TEST(StreamSpecValidation, ChecksExplicitPath) {
  Topology t = makeTestbedTopology();
  auto s = validSpec(t);
  s.path = t.shortestPath(s.src, s.dst);
  EXPECT_NO_THROW(validateSpec(t, s));
  // Path ending elsewhere is rejected.
  s.path = t.shortestPath(s.src, 1);
  EXPECT_THROW(validateSpec(t, s), ConfigError);
  // Disconnected path is rejected.
  s.path = {t.shortestPath(1, 3)[0]};
  EXPECT_THROW(validateSpec(t, s), ConfigError);
}

TEST(Gcl, UninstalledIsAlwaysOpen) {
  Gcl g;
  EXPECT_FALSE(g.installed());
  EXPECT_TRUE(g.gateOpen(0, 0));
  EXPECT_TRUE(g.gateOpen(7, milliseconds(123)));
  EXPECT_EQ(g.maskAt(42), 0xFF);
}

TEST(Gcl, EntriesMustSumToCycle) {
  EXPECT_THROW(Gcl(100, {{50, 1}}), InvariantError);
  EXPECT_NO_THROW(Gcl(100, {{50, 1}, {50, 2}}));
}

TEST(GclBuilder, SingleWindow) {
  GclBuilder b(microseconds(1000));
  b.open(3, microseconds(100), microseconds(200));
  const Gcl g = b.build();
  EXPECT_TRUE(g.installed());
  EXPECT_FALSE(g.gateOpen(3, microseconds(50)));
  EXPECT_TRUE(g.gateOpen(3, microseconds(100)));
  EXPECT_TRUE(g.gateOpen(3, microseconds(199)));
  EXPECT_FALSE(g.gateOpen(3, microseconds(200)));
  // Other queues closed throughout.
  EXPECT_FALSE(g.gateOpen(0, microseconds(150)));
}

TEST(GclBuilder, PeriodicWrap) {
  GclBuilder b(microseconds(1000));
  b.open(1, microseconds(900), microseconds(1100));  // wraps
  const Gcl g = b.build();
  EXPECT_TRUE(g.gateOpen(1, microseconds(950)));
  EXPECT_TRUE(g.gateOpen(1, microseconds(50)));
  EXPECT_FALSE(g.gateOpen(1, microseconds(150)));
  // Second cycle behaves identically.
  EXPECT_TRUE(g.gateOpen(1, microseconds(1950)));
  EXPECT_TRUE(g.gateOpen(1, microseconds(1050)));
}

TEST(GclBuilder, OverlappingWindowsUnion) {
  GclBuilder b(microseconds(100));
  b.open(2, microseconds(10), microseconds(30));
  b.open(5, microseconds(20), microseconds(40));
  const Gcl g = b.build();
  EXPECT_EQ(g.maskAt(microseconds(25)), (1u << 2) | (1u << 5));
  EXPECT_EQ(g.maskAt(microseconds(15)), 1u << 2);
  EXPECT_EQ(g.maskAt(microseconds(35)), 1u << 5);
  EXPECT_EQ(g.maskAt(microseconds(95)), 0u);
}

TEST(GclBuilder, UnallocatedQueueFillsGaps) {
  GclBuilder b(microseconds(100));
  b.open(6, microseconds(10), microseconds(30));
  b.openInUnallocated(0);
  const Gcl g = b.build();
  // Queue 0 open only where queue 6's window is absent.
  EXPECT_FALSE(g.gateOpen(0, microseconds(20)));
  EXPECT_TRUE(g.gateOpen(0, microseconds(5)));
  EXPECT_TRUE(g.gateOpen(0, microseconds(50)));
  EXPECT_TRUE(g.gateOpen(6, microseconds(20)));
  EXPECT_FALSE(g.gateOpen(6, microseconds(50)));
}

TEST(GclBuilder, AlwaysOpenQueue) {
  GclBuilder b(microseconds(100));
  b.open(6, microseconds(10), microseconds(30));
  b.alwaysOpen(7);
  const Gcl g = b.build();
  EXPECT_TRUE(g.gateOpen(7, microseconds(20)));
  EXPECT_TRUE(g.gateOpen(7, microseconds(90)));
}

TEST(Gcl, NextChangeWalksEntries) {
  GclBuilder b(microseconds(100));
  b.open(1, microseconds(20), microseconds(40));
  const Gcl g = b.build();
  EXPECT_EQ(g.nextChange(0), microseconds(20));
  EXPECT_EQ(g.nextChange(microseconds(25)), microseconds(40));
  // Entry boundaries include the cycle wrap (mask may be unchanged there;
  // the simulator tolerates spurious wakeups).
  EXPECT_EQ(g.nextChange(microseconds(40)), microseconds(100));
  // Across cycles.
  EXPECT_EQ(g.nextChange(microseconds(125)), microseconds(140));
}

TEST(Gcl, OpenTimeRemaining) {
  GclBuilder b(microseconds(100));
  b.open(1, microseconds(20), microseconds(40));
  const Gcl g = b.build();
  EXPECT_EQ(g.openTimeRemaining(1, microseconds(20)), microseconds(20));
  EXPECT_EQ(g.openTimeRemaining(1, microseconds(35)), microseconds(5));
  EXPECT_EQ(g.openTimeRemaining(1, microseconds(40)), 0);
  EXPECT_EQ(g.openTimeRemaining(1, 0), 0);
}

TEST(Gcl, OpenTimeRemainingMergedWindows) {
  // Adjacent windows for the same queue behave as one long window.
  GclBuilder b(microseconds(100));
  b.open(1, microseconds(20), microseconds(40));
  b.open(1, microseconds(40), microseconds(60));
  const Gcl g = b.build();
  EXPECT_EQ(g.openTimeRemaining(1, microseconds(20)), microseconds(40));
}

}  // namespace
}  // namespace etsn::net

namespace etsn::net {
namespace {

// Property: a GCL built from random windows must agree with a brute-force
// interval evaluation at random probe times, including wrap-around.
TEST(GclProperty, MatchesBruteForceOnRandomWindows) {
  std::mt19937 rng(31337);
  for (int round = 0; round < 50; ++round) {
    const TimeNs cycle = microseconds(1000);
    GclBuilder b(cycle);
    struct W {
      int q;
      TimeNs s, e;  // normalized [s, e) possibly wrapping
    };
    std::vector<W> windows;
    const int n = 1 + static_cast<int>(rng() % 6);
    for (int i = 0; i < n; ++i) {
      const int q = static_cast<int>(rng() % 8);
      const TimeNs s = microseconds(static_cast<int>(rng() % 1000));
      const TimeNs len = microseconds(1 + static_cast<int>(rng() % 400));
      b.open(q, s, s + len);
      windows.push_back({q, s, s + len});
    }
    const Gcl gcl = b.build();
    for (int probe = 0; probe < 200; ++probe) {
      const TimeNs t = microseconds(static_cast<int>(rng() % 3000));
      const TimeNs off = t % cycle;
      for (int q = 0; q < 8; ++q) {
        bool expect = false;
        for (const W& w : windows) {
          if (w.q != q) continue;
          if (w.e <= cycle) {
            expect |= (off >= w.s && off < w.e);
          } else {  // wraps
            expect |= (off >= w.s || off < w.e - cycle);
          }
        }
        EXPECT_EQ(gcl.gateOpen(q, t), expect)
            << "round " << round << " t=" << t << " q=" << q;
      }
    }
    // nextChange always advances and lands on a boundary.
    TimeNs at = 0;
    for (int i = 0; i < 20; ++i) {
      const TimeNs next = gcl.nextChange(at);
      EXPECT_GT(next, at);
      at = next;
    }
    EXPECT_LE(at, 20 * cycle);
  }
}

// Property: openTimeRemaining is consistent with gateOpen sampling.
TEST(GclProperty, OpenTimeRemainingConsistent) {
  std::mt19937 rng(99);
  const TimeNs cycle = microseconds(500);
  GclBuilder b(cycle);
  b.open(3, microseconds(50), microseconds(170));
  b.open(3, microseconds(300), microseconds(420));
  b.open(5, microseconds(100), microseconds(220));
  const Gcl gcl = b.build();
  for (int probe = 0; probe < 300; ++probe) {
    const TimeNs t = microseconds(static_cast<int>(rng() % 1500));
    for (int q = 0; q < 8; ++q) {
      const TimeNs rem = gcl.openTimeRemaining(q, t);
      if (rem == 0) {
        EXPECT_FALSE(gcl.gateOpen(q, t));
      } else {
        EXPECT_TRUE(gcl.gateOpen(q, t));
        // Open through the remaining interval, closed right after.
        EXPECT_TRUE(gcl.gateOpen(q, t + rem - 1));
        if (rem < cycle) {
          EXPECT_FALSE(gcl.gateOpen(q, t + rem));
        }
      }
    }
  }
}

}  // namespace
}  // namespace etsn::net

namespace etsn::net {
namespace {

TEST(Gcl, NextOpenFindsUpcomingWindow) {
  GclBuilder b(microseconds(100));
  b.open(2, microseconds(40), microseconds(60));
  const Gcl g = b.build();
  EXPECT_EQ(g.nextOpen(2, 0), microseconds(40));
  EXPECT_EQ(g.nextOpen(2, microseconds(40)), microseconds(40));
  EXPECT_EQ(g.nextOpen(2, microseconds(50)), microseconds(50));  // inside
  // After the window: next cycle's occurrence.
  EXPECT_EQ(g.nextOpen(2, microseconds(60)), microseconds(140));
  // A queue that never opens reports -1.
  EXPECT_EQ(g.nextOpen(5, 0), -1);
  // Uninstalled GCL: open immediately.
  EXPECT_EQ(Gcl().nextOpen(3, microseconds(7)), microseconds(7));
}

}  // namespace
}  // namespace etsn::net
