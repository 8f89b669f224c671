// Graceful degradation after link failures: reroute the streams a cut
// cable strands, recompute prudent reservations, and re-solve with every
// unaffected stream pinned to its existing slots.
#pragma once

#include <span>
#include <vector>

#include "net/stream.h"
#include "net/topology.h"
#include "sched/schedule.h"

namespace etsn::sched {

/// Result of a link-failure repair (graceful degradation, see
/// repairLinkDown below).
struct LinkDownRepair {
  /// The repaired schedule.  info.feasible is false when even the greedy
  /// fallback could not place the affected streams.  info.degraded is set
  /// when the SMT repair failed (unsat under pinning, or conflict budget
  /// exhausted) and greedy re-placed the whole schedule instead — running
  /// streams may have moved.
  Schedule schedule;
  /// Spec indices with at least one FRER member given a new path around
  /// the failed links.
  std::vector<std::int32_t> reroutedSpecs;
  /// Spec indices left unreachable by the failure; they carry no streams
  /// in the repaired schedule (specToStreams entry is empty).
  std::vector<std::int32_t> droppedSpecs;
  /// Spec indices that lost some but not all FRER members (no disjoint
  /// path around the cut).  The survivors are renumbered from 0, and the
  /// repaired schedule's copy of the spec carries their count as
  /// `redundancy`.
  std::vector<std::int32_t> lostMemberSpecs;
  /// Streams preserved bit-for-bit (pinned to their base slots) vs.
  /// streams that were re-placed (rerouted, or shared streams whose
  /// prudent reservation changed with an ECT reroute).
  int untouchedStreams = 0;
  int repairedStreams = 0;
};

/// Repair a feasible base schedule after one or more link (cable)
/// failures: reroute every FRER member whose path uses a failed link or
/// its reverse onto a path disjoint from the spec's other surviving
/// members, recompute prudent reservations against the new ECT paths, and
/// re-solve with every unaffected stream pinned to its existing slots
/// (zero disruption for them).  Members with no such path are dropped, and
/// a spec with no member left is dropped whole.  If the pinned SMT repair
/// fails, falls back to a full greedy re-placement with
/// `schedule.info.degraded` set.
///
/// Contract: the base schedule must be feasible (ConfigError otherwise),
/// and `topo` must be the topology the base schedule was solved against — every link id a base stream references must still exist in
/// it (the failure is modelled by the `failed` list, not by shrinking the
/// topology).  A base schedule referencing an unknown link id throws
/// ConfigError instead of reading out of bounds; this is the "pinned
/// stream references a link that no longer exists" hazard that
/// pinStreamTo alone cannot detect (pins are (hop, frame) offsets — the
/// link ids live in the stream paths checked here).
LinkDownRepair repairLinksDown(const net::Topology& topo,
                               const Schedule& base,
                               std::span<const net::LinkId> failed);

/// Single-link convenience wrapper over repairLinksDown.
LinkDownRepair repairLinkDown(const net::Topology& topo, const Schedule& base,
                              net::LinkId failed);

}  // namespace etsn::sched
