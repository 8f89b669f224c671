#include "workload/iec60802.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "net/ethernet.h"

namespace etsn::workload {

const char* topologyKindName(TopologyKind k) {
  switch (k) {
    case TopologyKind::Line: return "line";
    case TopologyKind::Ring: return "ring";
    case TopologyKind::Tree: return "tree";
    case TopologyKind::Mesh: return "mesh";
  }
  return "?";
}

TopologyKind topologyKindFromString(const std::string& name) {
  for (const TopologyKind k : {TopologyKind::Line, TopologyKind::Ring,
                               TopologyKind::Tree, TopologyKind::Mesh}) {
    if (name == topologyKindName(k)) return k;
  }
  throw ConfigError("unknown topology kind '" + name +
                    "' (expected line|ring|tree|mesh)");
}

net::Topology makeScaledTopology(TopologyKind kind, int numSwitches,
                                 int devicesPerSwitch,
                                 const net::LinkParams& params) {
  ETSN_REQUIRE(numSwitches >= 1, "need at least one switch");
  ETSN_REQUIRE(devicesPerSwitch >= 1, "need at least one device/switch");
  net::Topology topo;
  std::vector<net::NodeId> sw;
  for (int i = 0; i < numSwitches; ++i) {
    sw.push_back(topo.addSwitch("sw" + std::to_string(i)));
  }
  switch (kind) {
    case TopologyKind::Line:
    case TopologyKind::Ring:
      for (int i = 0; i + 1 < numSwitches; ++i) {
        topo.connect(sw[static_cast<std::size_t>(i)],
                     sw[static_cast<std::size_t>(i + 1)], params);
      }
      if (kind == TopologyKind::Ring && numSwitches > 2) {
        topo.connect(sw[static_cast<std::size_t>(numSwitches - 1)], sw[0],
                     params);
      }
      break;
    case TopologyKind::Tree:
      for (int i = 1; i < numSwitches; ++i) {
        topo.connect(sw[static_cast<std::size_t>((i - 1) / 2)],
                     sw[static_cast<std::size_t>(i)], params);
      }
      break;
    case TopologyKind::Mesh: {
      // Near-square grid: rows x cols >= numSwitches, right/down cables.
      const int rows = std::max(
          1, static_cast<int>(std::sqrt(static_cast<double>(numSwitches))));
      const int cols = (numSwitches + rows - 1) / rows;
      for (int i = 0; i < numSwitches; ++i) {
        const int r = i / cols;
        const int c = i % cols;
        if (c + 1 < cols && i + 1 < numSwitches) {
          topo.connect(sw[static_cast<std::size_t>(i)],
                       sw[static_cast<std::size_t>(i + 1)], params);
        }
        if ((r + 1) * cols + c < numSwitches) {
          topo.connect(sw[static_cast<std::size_t>(i)],
                       sw[static_cast<std::size_t>((r + 1) * cols + c)],
                       params);
        }
      }
      break;
    }
  }
  for (int i = 0; i < numSwitches; ++i) {
    for (int d = 0; d < devicesPerSwitch; ++d) {
      const net::NodeId dev = topo.addDevice(
          "dev" + std::to_string(i) + "_" + std::to_string(d));
      topo.connect(dev, sw[static_cast<std::size_t>(i)], params);
    }
  }
  return topo;
}

int payloadForRate(double rateBps, TimeNs period) {
  // Wire bytes available per period at this rate.
  const double wireBytesPerPeriod =
      rateBps * static_cast<double>(period) / 8.0 / kNsPerSec;
  // Approximate framing efficiency with full MTUs; small flows are
  // conservative (padding raises actual load slightly).
  const double efficiency =
      static_cast<double>(net::kMtuPayloadBytes) /
      static_cast<double>(net::wireBytes(net::kMtuPayloadBytes));
  const int payload = static_cast<int>(wireBytesPerPeriod * efficiency);
  return std::max(payload, 1);
}

std::vector<net::StreamSpec> generateTct(const net::Topology& topo,
                                         const TctWorkload& w) {
  ETSN_REQUIRE(w.numStreams > 0, "need at least one stream");
  ETSN_REQUIRE(!w.periods.empty(), "need a period set");
  ETSN_REQUIRE(w.networkLoad > 0 && w.networkLoad < 1,
               "network load must be in (0, 1)");
  const auto devices = topo.devices();
  ETSN_REQUIRE(devices.size() >= 2, "need at least two devices");

  Rng rng(w.seed);
  // All links share one nominal bandwidth in the paper's setups; use the
  // first link's.
  ETSN_REQUIRE(topo.numLinks() > 0, "topology has no links");
  const double linkBw = static_cast<double>(topo.link(0).bandwidthBps);

  // Draw endpoints, periods, and phases first; payloads are then sized so
  // the *bottleneck directed link* carries `networkLoad` of its bandwidth
  // — the reading under which 75% load is still schedulable yet clearly
  // felt by the unallocated-slot (AVB) regime.
  std::vector<net::StreamSpec> specs;
  std::vector<int> linkStreams(static_cast<std::size_t>(topo.numLinks()), 0);
  const int numSharing = w.numSharing < 0 ? w.numStreams : w.numSharing;
  for (int i = 0; i < w.numStreams; ++i) {
    net::StreamSpec s;
    s.name = "tct" + std::to_string(i + 1);
    s.src = rng.pick(devices);
    do {
      s.dst = rng.pick(devices);
    } while (s.dst == s.src);
    s.period = rng.pick(w.periods);
    s.maxLatency = s.period;
    // Random application release phase (industrial end stations are not
    // phase-aligned); microsecond granularity to match the scheduler tu.
    s.releaseOffset =
        microseconds(rng.uniformInt(0, s.period / kNsPerUs - 1));
    s.share = i < numSharing;
    s.type = net::TrafficClass::TimeTriggered;
    for (const net::LinkId l : topo.shortestPath(s.src, s.dst)) {
      ++linkStreams[static_cast<std::size_t>(l)];
    }
    specs.push_back(std::move(s));
  }
  const int bottleneck =
      *std::max_element(linkStreams.begin(), linkStreams.end());
  ETSN_CHECK(bottleneck > 0);
  const double ratePerStream = w.networkLoad * linkBw / bottleneck;
  for (net::StreamSpec& s : specs) {
    s.payloadBytes = payloadForRate(ratePerStream, s.period);
  }
  return specs;
}

std::vector<net::StreamSpec> generateEct(const net::Topology& topo,
                                         const EctWorkload& w) {
  ETSN_REQUIRE(w.numStreams >= 0, "negative ECT stream count");
  ETSN_REQUIRE(!w.minInterevents.empty(), "need an interevent set");
  const auto devices = topo.devices();
  ETSN_REQUIRE(devices.size() >= 2, "need at least two devices");
  Rng rng(w.seed);
  std::vector<net::StreamSpec> specs;
  for (int i = 0; i < w.numStreams; ++i) {
    const net::NodeId src = rng.pick(devices);
    net::NodeId dst;
    do {
      dst = rng.pick(devices);
    } while (dst == src);
    specs.push_back(makeEct("ect" + std::to_string(i + 1), src, dst,
                            rng.pick(w.minInterevents), w.payloadBytes));
  }
  return specs;
}

net::StreamSpec makeEct(const std::string& name, net::NodeId src,
                        net::NodeId dst, TimeNs minInterevent,
                        int payloadBytes, TimeNs maxLatency) {
  net::StreamSpec s;
  s.name = name;
  s.src = src;
  s.dst = dst;
  s.period = minInterevent;
  s.maxLatency = maxLatency > 0 ? maxLatency : minInterevent;
  s.payloadBytes = payloadBytes;
  s.type = net::TrafficClass::EventTriggered;
  return s;
}

}  // namespace etsn::workload
