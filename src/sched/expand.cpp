#include "sched/expand.h"

#include <algorithm>

#include "common/check.h"
#include "net/ethernet.h"
#include "net/gcl.h"

namespace etsn::sched {

namespace {

void checkPriorityGroups(const SchedulerConfig& c) {
  auto inRange = [](int p) { return p >= 0 && p < net::kNumQueues; };
  ETSN_CHECK_MSG(inRange(c.ectPriority), "EP out of range");
  ETSN_CHECK_MSG(inRange(c.sharedPrioLow) && inRange(c.sharedPrioHigh) &&
                     c.sharedPrioLow <= c.sharedPrioHigh,
                 "shared priority group invalid");
  ETSN_CHECK_MSG(inRange(c.nonSharedPrioLow) && inRange(c.nonSharedPrioHigh) &&
                     c.nonSharedPrioLow <= c.nonSharedPrioHigh,
                 "non-shared priority group invalid");
  // The three groups must be disjoint (constraint (6) partitions them).
  ETSN_CHECK_MSG(c.ectPriority > c.sharedPrioHigh &&
                     c.sharedPrioLow > c.nonSharedPrioHigh &&
                     c.nonSharedPrioLow > c.bestEffortPriority,
                 "priority groups must be ordered BE < NSH < SH < EP");
}

}  // namespace

TimeNs maxFrameTxTime(const ExpandedStream& s, const net::Link& link) {
  int maxPayload = 0;
  for (const int p : s.framePayloads) maxPayload = std::max(maxPayload, p);
  return net::frameTxTime(maxPayload, link.bandwidthBps);
}

TimeNs frameTxTimeOf(const ExpandedStream& s, int frameIndex,
                     const net::Link& link) {
  // Shared TCT slots may carry displaced frames and ECT slots may carry
  // any fragment of an event message, so both use uniform max-size slots.
  // Non-shared TCT slots are sized to their exact frame.
  if (s.kind == StreamKind::Prob || s.share ||
      frameIndex >= s.baseFrames()) {
    return maxFrameTxTime(s, link);
  }
  return net::frameTxTime(s.framePayloads[static_cast<std::size_t>(frameIndex)],
                          link.bandwidthBps);
}

int prudentExtraFrames(int tctFrames, TimeNs tctFrameTxTime, int ectFrames,
                       TimeNs minInterevent) {
  ETSN_CHECK(tctFrames > 0 && ectFrames > 0 && minInterevent > 0);
  // Alg. 1: n = s_e.l * ceil(s_t.l * T / s_e.T).
  const std::int64_t burst = static_cast<std::int64_t>(tctFrames) *
                             tctFrameTxTime;
  return ectFrames * static_cast<int>(ceilDiv(burst, minInterevent));
}

std::vector<std::vector<net::LinkId>> memberPaths(const net::Topology& topo,
                                                  const net::StreamSpec& spec) {
  if (spec.redundancy <= 1) {
    return {spec.path.empty() ? topo.shortestPath(spec.src, spec.dst)
                              : spec.path};
  }
  std::vector<std::vector<net::LinkId>> paths =
      topo.disjointPaths(spec.src, spec.dst, spec.redundancy);
  if (static_cast<int>(paths.size()) < spec.redundancy) {
    throw ConfigError("stream '" + spec.name + "': redundancy " +
                      std::to_string(spec.redundancy) +
                      " needs that many link-disjoint paths but the "
                      "topology supplies only " +
                      std::to_string(paths.size()));
  }
  return paths;
}

std::vector<ExpandedStream> expandSpec(const net::Topology& topo,
                                       const net::StreamSpec& spec,
                                       std::int32_t specId, StreamId firstId,
                                       const SchedulerConfig& config,
                                       PriorityCursor& cursor) {
  checkPriorityGroups(config);
  ETSN_CHECK_MSG(config.numProbabilistic >= 1, "need at least one possibility");
  net::validateSpec(topo, spec);
  // FRER (802.1CB): a protected spec becomes `redundancy` member groups,
  // one per member path.  Unprotected specs are the 1-member case.
  const std::vector<std::vector<net::LinkId>> paths = memberPaths(topo, spec);
  // Slots sit on each link's time-unit grid and repeat with the period,
  // so the period must be a whole number of every crossed link's tu (for
  // PERIOD this is the converted ECT period).
  for (const std::vector<net::LinkId>& path : paths) {
    for (const net::LinkId l : path) {
      if (spec.period % topo.link(l).timeUnit != 0) {
        throw ConfigError("stream '" + spec.name +
                          "': period is not a multiple of the time unit of "
                          "link " + std::to_string(l) + " on its path");
      }
    }
  }
  auto memberName = [&](int m) {
    return spec.redundancy > 1 ? spec.name + "/m" + std::to_string(m + 1)
                               : spec.name;
  };
  const std::vector<int> payloads = net::fragmentPayload(spec.payloadBytes);
  std::vector<ExpandedStream> out;
  auto push = [&](ExpandedStream s, const std::vector<net::LinkId>& path) {
    s.id = firstId + static_cast<StreamId>(out.size());
    s.specId = specId;
    s.path = path;
    s.period = spec.period;
    s.framePayloads = payloads;
    s.framesOnLink.assign(path.size(), static_cast<int>(payloads.size()));
    out.push_back(std::move(s));
  };

  if (spec.type == net::TrafficClass::TimeTriggered) {
    // Every member carries the same 802.1Q priority.
    int priority;
    if (spec.priority >= 0) {
      const int lo =
          spec.share ? config.sharedPrioLow : config.nonSharedPrioLow;
      const int hi =
          spec.share ? config.sharedPrioHigh : config.nonSharedPrioHigh;
      if (spec.priority < lo || spec.priority > hi) {
        throw ConfigError("stream '" + spec.name +
                          "': priority outside its group (constraint 6)");
      }
      priority = spec.priority;
    } else if (spec.share) {
      priority = config.sharedPrioLow +
                 cursor.shared++ % (config.sharedPrioHigh -
                                    config.sharedPrioLow + 1);
    } else {
      priority = config.nonSharedPrioLow +
                 cursor.nonShared++ % (config.nonSharedPrioHigh -
                                       config.nonSharedPrioLow + 1);
    }
    for (int m = 0; m < static_cast<int>(paths.size()); ++m) {
      ExpandedStream s;
      s.member = m;
      s.name = memberName(m);
      s.kind = StreamKind::Det;
      s.share = spec.share;
      s.maxLatency = spec.maxLatency;
      s.occurrence = spec.releaseOffset;  // the application's release phase
      s.priority = priority;
      push(std::move(s), paths[static_cast<std::size_t>(m)]);
    }
    return out;
  }

  // ECT: derive N probabilistic streams per member (§III-B).
  const int n = config.numProbabilistic;
  const TimeNs stagger = spec.period / n;
  if (stagger <= 0) {
    throw ConfigError("stream '" + spec.name +
                      "': min interevent time smaller than "
                      "numProbabilistic (T/N == 0)");
  }
  const TimeNs tightened = spec.maxLatency - stagger;
  if (tightened <= 0) {
    throw ConfigError(
        "stream '" + spec.name +
        "': deadline too tight for N probabilistic streams (e2e - T/N "
        "<= 0); increase numProbabilistic");
  }
  if (spec.priority >= 0 && spec.priority != config.ectPriority) {
    throw ConfigError("stream '" + spec.name +
                      "': ECT must use the EP priority (constraint 6)");
  }
  for (int m = 0; m < static_cast<int>(paths.size()); ++m) {
    for (int k = 0; k < n; ++k) {
      ExpandedStream s;
      s.member = m;
      s.name = memberName(m) + "/ps" + std::to_string(k + 1);
      s.kind = StreamKind::Prob;
      s.priority = config.ectPriority;
      s.maxLatency = tightened;
      s.occurrence = static_cast<TimeNs>(k) * stagger;
      push(std::move(s), paths[static_cast<std::size_t>(m)]);
    }
  }
  return out;
}

Expansion expandStreams(const net::Topology& topo,
                        const std::vector<net::StreamSpec>& specs,
                        const SchedulerConfig& config) {
  PriorityCursor cursor;
  return expandStreams(topo, specs, config, cursor);
}

Expansion expandStreams(const net::Topology& topo,
                        const std::vector<net::StreamSpec>& specs,
                        const SchedulerConfig& config,
                        PriorityCursor& cursor) {
  Expansion out;
  out.specToStreams.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (ExpandedStream& s :
         expandSpec(topo, specs[i], static_cast<std::int32_t>(i),
                    static_cast<StreamId>(out.streams.size()), config,
                    cursor)) {
      out.specToStreams[i].push_back(s.id);
      out.streams.push_back(std::move(s));
    }
  }
  std::vector<EctGroup> ect;
  collectEctGroups(out.streams, ect);
  for (ExpandedStream& s : out.streams) {
    if (s.kind == StreamKind::Det && s.share) {
      s.framesOnLink = prudentFrames(topo, s, ect, config);
    }
  }
  return out;
}

void collectEctGroups(std::span<const ExpandedStream> streams,
                      std::vector<EctGroup>& out) {
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const ExpandedStream& s = streams[i];
    if (s.kind != StreamKind::Prob) continue;
    // All N possibilities of one member share its path and frames.
    if (i > 0 && streams[i - 1].kind == StreamKind::Prob &&
        streams[i - 1].specId == s.specId &&
        streams[i - 1].member == s.member) {
      continue;
    }
    out.push_back(EctGroup{s.path, s.baseFrames(), s.period});
  }
}

std::vector<int> prudentFrames(const net::Topology& topo,
                               const ExpandedStream& s,
                               std::span<const EctGroup> ect,
                               const SchedulerConfig& config) {
  std::vector<int> frames(s.path.size(), s.baseFrames());
  if (s.kind != StreamKind::Det || !s.share || !config.prudentReservation) {
    return frames;
  }
  for (std::size_t hop = 0; hop < s.path.size(); ++hop) {
    const net::LinkId link = s.path[hop];
    for (const EctGroup& g : ect) {
      if (std::find(g.path.begin(), g.path.end(), link) == g.path.end()) {
        continue;
      }
      frames[hop] += prudentExtraFrames(s.baseFrames(),
                                        maxFrameTxTime(s, topo.link(link)),
                                        g.frames, g.minInterevent);
    }
  }
  return frames;
}

}  // namespace etsn::sched
