// Unit tests for the IEC 60802-style workload generator.
#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "workload/iec60802.h"

namespace etsn::workload {
namespace {

TEST(Workload, DeterministicUnderSeed) {
  net::Topology t = net::makeTestbedTopology();
  TctWorkload w;
  w.seed = 5;
  const auto a = generateTct(t, w);
  const auto b = generateTct(t, w);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].period, b[i].period);
    EXPECT_EQ(a[i].payloadBytes, b[i].payloadBytes);
    EXPECT_EQ(a[i].releaseOffset, b[i].releaseOffset);
  }
  w.seed = 6;
  const auto c = generateTct(t, w);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs |= a[i].src != c[i].src || a[i].period != c[i].period ||
               a[i].releaseOffset != c[i].releaseOffset;
  }
  EXPECT_TRUE(differs);
}

TEST(Workload, FieldsWithinBounds) {
  net::Topology t = net::makeSimulationTopology();
  TctWorkload w;
  w.numStreams = 25;
  w.periods = {milliseconds(5), milliseconds(10)};
  const auto specs = generateTct(t, w);
  ASSERT_EQ(specs.size(), 25u);
  for (const auto& s : specs) {
    EXPECT_NE(s.src, s.dst);
    EXPECT_EQ(t.node(s.src).kind, net::NodeKind::Device);
    EXPECT_EQ(t.node(s.dst).kind, net::NodeKind::Device);
    EXPECT_TRUE(s.period == milliseconds(5) || s.period == milliseconds(10));
    EXPECT_EQ(s.maxLatency, s.period);
    EXPECT_GT(s.payloadBytes, 0);
    EXPECT_GE(s.releaseOffset, 0);
    EXPECT_LT(s.releaseOffset, s.period);
    EXPECT_EQ(s.type, net::TrafficClass::TimeTriggered);
    EXPECT_NO_THROW(net::validateSpec(t, s));
  }
}

TEST(Workload, BottleneckLoadTargeting) {
  net::Topology t = net::makeTestbedTopology();
  TctWorkload w;
  w.numStreams = 10;
  w.networkLoad = 0.6;
  w.seed = 3;
  const auto specs = generateTct(t, w);
  // Recompute per-directed-link utilization from the generated payloads.
  std::vector<double> util(static_cast<std::size_t>(t.numLinks()), 0.0);
  for (const auto& s : specs) {
    const double rate =
        static_cast<double>(net::wireBytes(s.payloadBytes) * 8) /
        (static_cast<double>(s.period) / kNsPerSec);
    for (const net::LinkId l : t.shortestPath(s.src, s.dst)) {
      util[static_cast<std::size_t>(l)] +=
          rate / static_cast<double>(t.link(l).bandwidthBps);
    }
  }
  const double maxUtil = *std::max_element(util.begin(), util.end());
  // The fragmentation approximation keeps this within a few percent.
  EXPECT_GT(maxUtil, 0.5);
  EXPECT_LT(maxUtil, 0.7);
}

TEST(Workload, LoadScalesPayloads) {
  net::Topology t = net::makeTestbedTopology();
  TctWorkload lo, hi;
  lo.networkLoad = 0.25;
  hi.networkLoad = 0.75;
  const auto a = generateTct(t, lo);
  const auto b = generateTct(t, hi);
  // Same endpoints/periods (same seed), ~3x the payload.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].period, b[i].period);
    EXPECT_NEAR(static_cast<double>(b[i].payloadBytes) /
                    static_cast<double>(a[i].payloadBytes),
                3.0, 0.2);
  }
}

TEST(Workload, SharingSplit) {
  net::Topology t = net::makeTestbedTopology();
  TctWorkload w;
  w.numStreams = 8;
  w.numSharing = 3;
  const auto specs = generateTct(t, w);
  int sharing = 0;
  for (const auto& s : specs) sharing += s.share ? 1 : 0;
  EXPECT_EQ(sharing, 3);
  EXPECT_TRUE(specs[0].share);
  EXPECT_FALSE(specs[3].share);
}

TEST(Workload, MakeEctDefaults) {
  const auto e = makeEct("e", 1, 3, milliseconds(16), 1500);
  EXPECT_EQ(e.type, net::TrafficClass::EventTriggered);
  EXPECT_EQ(e.period, milliseconds(16));
  EXPECT_EQ(e.maxLatency, milliseconds(16));  // defaults to interevent
  const auto e2 = makeEct("e", 1, 3, milliseconds(16), 1500, milliseconds(8));
  EXPECT_EQ(e2.maxLatency, milliseconds(8));
}

TEST(Workload, PayloadForRateRoundTrip) {
  // A stream with the returned payload should produce ~the requested rate.
  const double rate = 10e6;  // 10 Mbps
  const TimeNs period = milliseconds(8);
  const int payload = payloadForRate(rate, period);
  const double actual =
      static_cast<double>(net::wireBytes(payload) * 8) /
      (static_cast<double>(period) / kNsPerSec);
  EXPECT_NEAR(actual / rate, 1.0, 0.05);
}

TEST(Workload, RejectsBadConfig) {
  net::Topology t = net::makeTestbedTopology();
  TctWorkload w;
  w.networkLoad = 0;
  EXPECT_THROW(generateTct(t, w), ConfigError);
  w.networkLoad = 1.5;
  EXPECT_THROW(generateTct(t, w), ConfigError);
  w = {};
  w.numStreams = 0;
  EXPECT_THROW(generateTct(t, w), ConfigError);
  w = {};
  w.periods.clear();
  EXPECT_THROW(generateTct(t, w), ConfigError);
  EctWorkload e;
  e.minInterevents.clear();
  EXPECT_THROW(generateEct(t, e), ConfigError);
  EXPECT_THROW(makeScaledTopology(TopologyKind::Mesh, 0, 2), ConfigError);
  EXPECT_THROW(t.disjointPaths(0, 1, 0), ConfigError);
  EXPECT_THROW(net::makeRedundantTopology(0, 1), ConfigError);
  EXPECT_THROW(net::makeRedundantTopology(2, -1), ConfigError);
}

}  // namespace
}  // namespace etsn::workload
