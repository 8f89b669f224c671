#include "net/topology.h"

#include <algorithm>
#include <deque>

namespace etsn::net {

NodeId Topology::addNode(std::string name, NodeKind kind) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({id, std::move(name), kind});
  out_.emplace_back();
  return id;
}

NodeId Topology::addDevice(std::string name) {
  return addNode(std::move(name), NodeKind::Device);
}

NodeId Topology::addSwitch(std::string name) {
  return addNode(std::move(name), NodeKind::Switch);
}

std::pair<LinkId, LinkId> Topology::connect(NodeId a, NodeId b,
                                            const LinkParams& params) {
  ETSN_REQUIRE(a >= 0 && a < numNodes() && b >= 0 && b < numNodes(),
               "link endpoint is not a node");
  ETSN_REQUIRE(a != b, "self-links are not allowed");
  ETSN_REQUIRE(linkBetween(a, b) == kNoLink, "nodes already connected");
  ETSN_REQUIRE(params.bandwidthBps > 0, "bandwidth must be positive");
  ETSN_REQUIRE(params.timeUnit > 0, "time unit must be positive");

  const LinkId ab = static_cast<LinkId>(links_.size());
  const LinkId ba = ab + 1;
  links_.push_back({ab, a, b, params.bandwidthBps, params.propagationDelay,
                    params.timeUnit, ba});
  links_.push_back({ba, b, a, params.bandwidthBps, params.propagationDelay,
                    params.timeUnit, ab});
  out_[static_cast<std::size_t>(a)].push_back(ab);
  out_[static_cast<std::size_t>(b)].push_back(ba);
  return {ab, ba};
}

LinkId Topology::linkBetween(NodeId a, NodeId b) const {
  if (a < 0 || a >= numNodes()) return kNoLink;
  for (const LinkId l : out_[static_cast<std::size_t>(a)]) {
    if (links_[static_cast<std::size_t>(l)].to == b) return l;
  }
  return kNoLink;
}

std::vector<LinkId> Topology::shortestPath(NodeId src, NodeId dst) const {
  std::vector<LinkId> path = shortestPathAvoiding(src, dst, kNoLink);
  if (path.empty()) {
    throw ConfigError("no path from " + node(src).name + " to " +
                      node(dst).name);
  }
  return path;
}

std::vector<LinkId> Topology::shortestPathAvoiding(NodeId src, NodeId dst,
                                                   LinkId avoid) const {
  if (avoid == kNoLink) {
    return shortestPathAvoiding(src, dst, std::span<const LinkId>{});
  }
  const LinkId one[1] = {avoid};
  return shortestPathAvoiding(src, dst, std::span<const LinkId>(one, 1));
}

std::vector<LinkId> Topology::shortestPathAvoiding(
    NodeId src, NodeId dst, std::span<const LinkId> avoid) const {
  ETSN_REQUIRE(src >= 0 && src < numNodes() && dst >= 0 && dst < numNodes(),
               "path endpoint is not a node");
  ETSN_REQUIRE(src != dst, "stream source equals destination");
  std::vector<char> cut(links_.size(), 0);
  for (const LinkId a : avoid) {
    ETSN_REQUIRE(a >= 0 && static_cast<std::size_t>(a) < links_.size(),
                 "link to avoid is not a link");
    cut[static_cast<std::size_t>(a)] = 1;
    cut[static_cast<std::size_t>(links_[static_cast<std::size_t>(a)].reverse)] =
        1;
  }
  std::vector<LinkId> via(static_cast<std::size_t>(numNodes()), kNoLink);
  std::vector<char> visited(static_cast<std::size_t>(numNodes()), 0);
  std::deque<NodeId> queue{src};
  visited[static_cast<std::size_t>(src)] = 1;
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    if (n == dst) break;
    for (const LinkId l : out_[static_cast<std::size_t>(n)]) {
      if (cut[static_cast<std::size_t>(l)]) continue;
      const NodeId next = links_[static_cast<std::size_t>(l)].to;
      if (visited[static_cast<std::size_t>(next)]) continue;
      visited[static_cast<std::size_t>(next)] = 1;
      via[static_cast<std::size_t>(next)] = l;
      queue.push_back(next);
    }
  }
  if (!visited[static_cast<std::size_t>(dst)]) return {};
  std::vector<LinkId> path;
  for (NodeId n = dst; n != src;) {
    const LinkId l = via[static_cast<std::size_t>(n)];
    path.push_back(l);
    n = links_[static_cast<std::size_t>(l)].from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::vector<LinkId>> Topology::disjointPaths(NodeId src,
                                                         NodeId dst,
                                                         int k) const {
  ETSN_REQUIRE(k >= 1, "disjointPaths requires k >= 1");
  std::vector<std::vector<LinkId>> paths;
  std::vector<LinkId> used;
  for (int i = 0; i < k; ++i) {
    std::vector<LinkId> p = shortestPathAvoiding(src, dst, used);
    if (p.empty()) break;
    used.insert(used.end(), p.begin(), p.end());
    paths.push_back(std::move(p));
  }
  return paths;
}

std::vector<NodeId> Topology::devices() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::Device) out.push_back(n.id);
  }
  return out;
}

Topology makeTestbedTopology(const LinkParams& params) {
  Topology t;
  const NodeId d1 = t.addDevice("D1");
  const NodeId d2 = t.addDevice("D2");
  const NodeId d3 = t.addDevice("D3");
  const NodeId d4 = t.addDevice("D4");
  const NodeId sw1 = t.addSwitch("SW1");
  const NodeId sw2 = t.addSwitch("SW2");
  t.connect(d1, sw1, params);
  t.connect(d2, sw1, params);
  t.connect(d3, sw2, params);
  t.connect(d4, sw2, params);
  t.connect(sw1, sw2, params);
  return t;
}

Topology makeSimulationTopology(const LinkParams& params) {
  Topology t;
  std::vector<NodeId> devices;
  for (int i = 1; i <= 12; ++i) {
    devices.push_back(t.addDevice("D" + std::to_string(i)));
  }
  std::vector<NodeId> switches;
  for (int i = 1; i <= 4; ++i) {
    switches.push_back(t.addSwitch("SW" + std::to_string(i)));
  }
  for (int i = 0; i < 12; ++i) {
    t.connect(devices[static_cast<std::size_t>(i)],
              switches[static_cast<std::size_t>(i / 3)], params);
  }
  for (int i = 0; i < 3; ++i) {
    t.connect(switches[static_cast<std::size_t>(i)],
              switches[static_cast<std::size_t>(i + 1)], params);
  }
  return t;
}

Topology makeRedundantTopology(int spineLength, int devicesPerSwitch,
                               const LinkParams& params) {
  ETSN_REQUIRE(spineLength >= 1, "spineLength must be >= 1");
  ETSN_REQUIRE(devicesPerSwitch >= 0, "devicesPerSwitch must be >= 0");
  Topology t;
  const NodeId talker = t.addDevice("T");
  const NodeId listener = t.addDevice("L");
  std::vector<NodeId> spineA;
  std::vector<NodeId> spineB;
  for (int i = 1; i <= spineLength; ++i) {
    spineA.push_back(t.addSwitch("A" + std::to_string(i)));
  }
  for (int i = 1; i <= spineLength; ++i) {
    spineB.push_back(t.addSwitch("B" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < spineLength; ++i) {
    t.connect(spineA[static_cast<std::size_t>(i)],
              spineA[static_cast<std::size_t>(i + 1)], params);
    t.connect(spineB[static_cast<std::size_t>(i)],
              spineB[static_cast<std::size_t>(i + 1)], params);
  }
  // Dual-home the end devices: spine A is wired first so link-id tie-breaks
  // make it the primary (member 1) path.
  t.connect(talker, spineA.front(), params);
  t.connect(talker, spineB.front(), params);
  t.connect(spineA.back(), listener, params);
  t.connect(spineB.back(), listener, params);
  for (const std::vector<NodeId>* spine : {&spineA, &spineB}) {
    for (std::size_t i = 0; i < spine->size(); ++i) {
      for (int d = 1; d <= devicesPerSwitch; ++d) {
        const std::string swName = t.node((*spine)[i]).name;
        t.connect(t.addDevice("D" + swName + "." + std::to_string(d)),
                  (*spine)[i], params);
      }
    }
  }
  return t;
}

}  // namespace etsn::net
