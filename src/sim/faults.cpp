#include "sim/faults.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace etsn::sim {

namespace {
/// Domain-separation tag for the fault RNG tree: keeps fault draws out of
/// the simulator's main stream so enabling a zero-rate plan cannot
/// perturb traffic generation.
constexpr std::uint64_t kFaultSeedTag = 0xFA171E57ull;

/// The link and probability checks FaultPlan::validate and FaultInjector
/// share: each loss model and outage names no link (the wildcard) or one
/// of the topology's, and every loss probability lies in [0, 1].
void requireKnownLinksAndProbabilities(const FaultPlan& plan,
                                       net::LinkId numLinks) {
  const auto knownOrNone = [&](net::LinkId l) {
    return l == net::kNoLink || (l >= 0 && l < numLinks);
  };
  for (const LossModel& m : plan.losses) {
    ETSN_REQUIRE(knownOrNone(m.link),
                 "loss model references unknown link " << m.link);
    ETSN_REQUIRE(m.dropProbability >= 0 && m.dropProbability <= 1 &&
                     m.pGoodToBad >= 0 && m.pGoodToBad <= 1 &&
                     m.pBadToGood >= 0 && m.pBadToGood <= 1 &&
                     m.lossGood >= 0 && m.lossGood <= 1 && m.lossBad >= 0 &&
                     m.lossBad <= 1,
                 "loss probabilities must lie in [0, 1]");
  }
  for (const LinkOutage& o : plan.outages) {
    ETSN_REQUIRE(knownOrNone(o.link),
                 "outage references unknown link " << o.link);
  }
}
}  // namespace

bool FaultPlan::empty() const {
  for (const LossModel& m : losses) {
    if (m.active()) return false;
  }
  for (const LinkOutage& o : outages) {
    if (o.active()) return false;
  }
  for (const BabblingSource& b : babblers) {
    if (b.active()) return false;
  }
  for (const SyncOutage& s : syncOutages) {
    if (s.active()) return false;
  }
  for (const GptpKill& k : gptpKills) {
    if (k.active()) return false;
  }
  return true;
}

void FaultPlan::validate(const net::Topology& topo,
                         std::size_t numEctSources) const {
  requireKnownLinksAndProbabilities(*this, topo.numLinks());
  for (const LinkOutage& o : outages) {
    ETSN_REQUIRE(o.downAt >= 0 && o.upAt >= 0,
                 "outage times must be non-negative");
  }
  // Overlapping outage episodes on one physical cable are a plan bug (the
  // idiom is one interval per episode); the injector would silently union
  // them and the plan's intent would be ambiguous.  Both directions of a
  // cable count as the same resource, so canonicalize each episode to the
  // lower directed-link id before comparing.
  {
    constexpr TimeNs kForever = std::numeric_limits<TimeNs>::max();
    struct Episode {
      net::LinkId cable;
      TimeNs down;
      TimeNs up;  // kForever when the outage never ends
    };
    std::vector<Episode> episodes;
    for (const LinkOutage& o : outages) {
      if (!o.active()) continue;
      net::LinkId cable = o.link;
      const net::LinkId rev = topo.link(o.link).reverse;
      if (rev != net::kNoLink && rev < cable) cable = rev;
      episodes.push_back(
          {cable, o.downAt, o.permanent() ? kForever : o.upAt});
    }
    std::sort(episodes.begin(), episodes.end(),
              [](const Episode& a, const Episode& b) {
                if (a.cable != b.cable) return a.cable < b.cable;
                if (a.down != b.down) return a.down < b.down;
                return a.up < b.up;
              });
    for (std::size_t i = 1; i < episodes.size(); ++i) {
      const Episode& a = episodes[i - 1];
      const Episode& b = episodes[i];
      if (a.cable != b.cable) continue;
      ETSN_REQUIRE(b.down >= a.up,
                   "overlapping outages on link "
                       << a.cable << ": [" << a.down << ", "
                       << (a.up == kForever ? std::string("end-of-run")
                                            : std::to_string(a.up))
                       << ") overlaps [" << b.down << ", "
                       << (b.up == kForever ? std::string("end-of-run")
                                            : std::to_string(b.up))
                       << ")");
    }
  }
  for (const BabblingSource& b : babblers) {
    ETSN_REQUIRE(b.interval >= 0 && b.start >= 0 && b.stop >= 0,
                 "babbler times must be non-negative");
    if (b.interval == 0) continue;  // inactive (default-constructed)
    ETSN_REQUIRE(b.stop > b.start,
                 "babbler window [" << b.start << ", " << b.stop
                                    << ") is empty");
    ETSN_REQUIRE(
        b.ectIndex >= 0 &&
            static_cast<std::size_t>(b.ectIndex) < numEctSources,
        "babbler references unknown ECT source " << b.ectIndex);
  }
  const auto knownNode = [&](net::NodeId m) {
    return m >= 0 && m < topo.numNodes();
  };
  for (const SyncOutage& s : syncOutages) {
    for (const net::NodeId m : s.nodes) {
      ETSN_REQUIRE(knownNode(m),
                   "sync outage node set references unknown node " << m);
    }
    ETSN_REQUIRE(s.start >= 0 && s.stop >= 0,
                 "sync outage times must be non-negative");
  }
  // Overlapping sync-outage episodes on the same node are a plan bug for
  // the same reason overlapping link outages are: the injector would
  // silently union them.  Expand every active episode to the per-node
  // intervals it covers (an empty set = all nodes) and reject any node
  // whose intervals overlap.
  {
    constexpr TimeNs kForever = std::numeric_limits<TimeNs>::max();
    struct Episode {
      net::NodeId node;
      TimeNs start;
      TimeNs stop;
    };
    std::vector<Episode> episodes;
    for (const SyncOutage& s : syncOutages) {
      if (!s.active()) continue;
      const TimeNs stop = s.stop > s.start ? s.stop : kForever;
      if (s.nodes.empty()) {
        for (net::NodeId m = 0; m < topo.numNodes(); ++m) {
          episodes.push_back({m, s.start, stop});
        }
      } else {
        for (const net::NodeId m : s.nodes) {
          episodes.push_back({m, s.start, stop});
        }
      }
    }
    std::sort(episodes.begin(), episodes.end(),
              [](const Episode& a, const Episode& b) {
                if (a.node != b.node) return a.node < b.node;
                if (a.start != b.start) return a.start < b.start;
                return a.stop < b.stop;
              });
    for (std::size_t i = 1; i < episodes.size(); ++i) {
      const Episode& a = episodes[i - 1];
      const Episode& b = episodes[i];
      if (a.node != b.node) continue;
      ETSN_REQUIRE(b.start >= a.stop,
                   "overlapping sync outages on node "
                       << a.node << ": [" << a.start << ", " << a.stop
                       << ") overlaps [" << b.start << ", " << b.stop
                       << ")");
    }
  }
  for (const GptpKill& k : gptpKills) {
    if (!k.active()) continue;
    ETSN_REQUIRE(knownNode(k.node),
                 "gPTP kill references unknown node " << k.node);
    ETSN_REQUIRE(k.at >= 0, "gPTP kill time must be non-negative");
  }
}

FaultInjector::FaultInjector(const net::Topology& topo, const FaultPlan& plan,
                             std::uint64_t seed)
    : plan_(plan) {
  // Callers may build an injector without validating the plan, and the
  // links index links_ and outagesOf_ below.
  requireKnownLinksAndProbabilities(plan_, topo.numLinks());
  const std::size_t n = static_cast<std::size_t>(topo.numLinks());
  links_.resize(n);
  outagesOf_.resize(n);

  // Resolve per-link loss models: globals first, then specific entries;
  // within each class the last matching entry wins.
  for (const LossModel& m : plan_.losses) {
    if (m.link == net::kNoLink) {
      for (LinkState& ls : links_) ls.model = m;
    }
  }
  for (const LossModel& m : plan_.losses) {
    if (m.link == net::kNoLink) continue;
    links_[static_cast<std::size_t>(m.link)].model = m;
  }

  // An outage cuts the physical cable: register it on both directions.
  for (const LinkOutage& o : plan_.outages) {
    if (!o.active()) continue;
    outagesOf_[static_cast<std::size_t>(o.link)].push_back(o);
    const net::LinkId rev = topo.link(o.link).reverse;
    if (rev != net::kNoLink) {
      outagesOf_[static_cast<std::size_t>(rev)].push_back(o);
    }
  }

  // One independent RNG stream per link, derived from the run seed under
  // a domain-separation tag (never touches the simulator's main stream).
  linkRngs_.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    linkRngs_.emplace_back(
        Rng::deriveSeed(Rng::splitmix64(seed ^ kFaultSeedTag), l));
  }
}

std::optional<DropCause> FaultInjector::lossAt(net::LinkId link, TimeNs) {
  LinkState& ls = links_[static_cast<std::size_t>(link)];
  if (!ls.model.active()) return std::nullopt;
  Rng& rng = linkRngs_[static_cast<std::size_t>(link)];
  if (ls.model.burstActive()) {
    // Advance the two-state chain once per frame, then draw the state's
    // loss probability.
    if (ls.bad) {
      if (rng.uniformReal(0, 1) < ls.model.pBadToGood) ls.bad = false;
    } else {
      if (rng.uniformReal(0, 1) < ls.model.pGoodToBad) ls.bad = true;
    }
    const double p = ls.bad ? ls.model.lossBad : ls.model.lossGood;
    if (p >= 1 || (p > 0 && rng.uniformReal(0, 1) < p)) {
      return DropCause::BurstLoss;
    }
  }
  if (ls.model.iidActive() &&
      (ls.model.dropProbability >= 1 ||
       rng.uniformReal(0, 1) < ls.model.dropProbability)) {
    return DropCause::RandomLoss;
  }
  return std::nullopt;
}

bool FaultInjector::linkDown(net::LinkId link, TimeNs t) const {
  for (const LinkOutage& o : outagesOf_[static_cast<std::size_t>(link)]) {
    if (o.covers(t)) return true;
  }
  return false;
}

bool FaultInjector::linkDownForGood(net::LinkId link, TimeNs t) const {
  for (const LinkOutage& o : outagesOf_[static_cast<std::size_t>(link)]) {
    if (o.permanent() && o.covers(t)) return true;
  }
  return false;
}

bool FaultInjector::syncSuppressed(net::NodeId node, TimeNs t) const {
  for (const SyncOutage& s : plan_.syncOutages) {
    if (s.covers(node, t)) return true;
  }
  return false;
}

bool FaultInjector::gptpKilled(net::NodeId node, TimeNs t) const {
  for (const GptpKill& k : plan_.gptpKills) {
    if (k.covers(node, t)) return true;
  }
  return false;
}

}  // namespace etsn::sim
