// Compilation of a computed schedule into the runtime configuration the
// simulator (or a real CNC, §III-A) distributes to switches and devices:
// per-link Gate Control Lists, talker send times, event-source queue
// assignments, and credit-based-shaper parameters for the AVB baseline.
#pragma once

#include <vector>

#include "net/gcl.h"
#include "net/stream.h"
#include "net/topology.h"
#include "sched/scheduler.h"

namespace etsn::sched {

/// One 802.1CB FRER member leg of a time-triggered talker: the member's
/// link-disjoint route and its own hop-0 pacing offsets.  An unprotected
/// talker has exactly one member.
struct TalkerMember {
  StreamId stream = -1;
  TimeNs offset = 0;  // first-slot offset within the period grid
  /// Per-frame enqueue offsets within the period grid (the end station
  /// paces frames to their first-link slots, per 802.1Qbv).  Same length
  /// as TalkerConfig::framePayloads; frameOffsets[0] == offset.
  std::vector<TimeNs> frameOffsets;
  std::vector<net::LinkId> route;
};

/// Time-triggered talker: enqueues one message instance per period.  A
/// FRER-protected talker (spec.redundancy > 1) is the replication point:
/// every frame is emitted once per member, all copies sharing one R-TAG
/// sequence number, each paced to its member's slots.
struct TalkerConfig {
  std::int32_t specId = -1;
  int priority = 0;
  /// Release offset within the period grid: the earliest member's first
  /// slot.  All member copies are stamped with this creation time.
  TimeNs offset = 0;
  TimeNs period = 0;
  TimeNs maxLatency = 0;  // deadline, for miss accounting
  std::vector<int> framePayloads;
  /// One entry per 802.1CB member in member-index order; size 1 when the
  /// stream is unprotected.
  std::vector<TalkerMember> members;
};

/// Event-triggered source: enqueues a message at stochastic event times.
struct EctSourceConfig {
  std::int32_t specId = -1;
  int priority = 0;
  TimeNs minInterevent = 0;
  TimeNs maxLatency = 0;
  std::vector<int> framePayloads;
  /// One link-disjoint route per 802.1CB member (size 1 = unprotected);
  /// an event's frames are replicated onto every route at emission.
  std::vector<std::vector<net::LinkId>> memberRoutes;
};

/// Credit-based shaper applied on every egress port for one queue.
struct CbsConfig {
  int queue = 0;
  double idleSlopeFraction = 0.75;  // of the link bandwidth
};

struct NetworkProgram {
  TimeNs gclCycle = 0;
  /// Store-and-forward processing latency per switch hop (mirrors the
  /// value the schedule was built with).
  TimeNs switchProcessingDelay = 0;
  /// Indexed by LinkId; uninstalled GCL = all gates always open.
  std::vector<net::Gcl> linkGcl;
  std::vector<TalkerConfig> talkers;
  std::vector<EctSourceConfig> ectSources;
  std::vector<CbsConfig> cbs;
  int bestEffortQueue = 0;
};

/// Compile a method schedule into runtime configuration.  Requires
/// schedule.info.feasible.
NetworkProgram compileProgram(const net::Topology& topo,
                              const MethodSchedule& ms);

}  // namespace etsn::sched
