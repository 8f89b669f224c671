// Stream expansion: routing, probabilistic-stream derivation (§III-B),
// priority assignment (constraint (6)), and prudent reservation (Alg. 1).
//
// Three rules, one owner each: memberPaths routes a spec's FRER members,
// expandSpec turns one spec into its streams, prudentFrames sizes one
// shared stream's per-hop grid against the ECT member groups in force.
// The batch expansion, the admission engine, the link-failure repair and
// the AVB event sources (which are never expanded) all build on these.
#pragma once

#include <span>
#include <vector>

#include "net/stream.h"
#include "net/topology.h"
#include "sched/schedule.h"

namespace etsn::sched {

struct Expansion {
  std::vector<ExpandedStream> streams;
  std::vector<std::vector<StreamId>> specToStreams;
};

/// Round-robin position inside the shared and non-shared TCT priority
/// groups (constraint (6)).  A batch expansion starts one at zero; the
/// admission engine keeps one across its whole history.
struct PriorityCursor {
  int shared = 0;
  int nonShared = 0;
};

/// The paths of a spec's FRER (802.1CB) members: an unprotected spec is
/// one member on its explicit path or the shortest path; `redundancy` > 1
/// members take that many link-disjoint paths.  Throws ConfigError when
/// the topology supplies fewer.
std::vector<std::vector<net::LinkId>> memberPaths(const net::Topology& topo,
                                                  const net::StreamSpec& spec);

/// Expand one spec into its streams, numbered firstId, firstId + 1, ...
/// and tagged with `specId`:
///  * a TCT spec becomes one Det stream per FRER member;
///  * an ECT spec becomes `config.numProbabilistic` Prob streams per member
///    (member-major) with occurrence times (i-1)*T/N and deadline
///    e2e - T/N;
///  * an explicit TCT priority is checked against its group, otherwise the
///    spec takes the cursor's next value in its group (once per spec, so
///    redundancy never shifts later specs' priorities); Prob streams use EP.
/// framesOnLink holds the base frames; prudentFrames adds Alg. 1's extras.
/// Throws ConfigError on invalid input.
std::vector<ExpandedStream> expandSpec(const net::Topology& topo,
                                       const net::StreamSpec& spec,
                                       std::int32_t specId, StreamId firstId,
                                       const SchedulerConfig& config,
                                       PriorityCursor& cursor);

/// Expand user specs in order (expandSpec with one cursor), then apply
/// prudent reservation to every shared Det stream against all ECT specs.
/// Throws ConfigError on invalid input.
Expansion expandStreams(const net::Topology& topo,
                        const std::vector<net::StreamSpec>& specs,
                        const SchedulerConfig& config);

/// As above, continuing the priority round-robin from `cursor`.
Expansion expandStreams(const net::Topology& topo,
                        const std::vector<net::StreamSpec>& specs,
                        const SchedulerConfig& config,
                        PriorityCursor& cursor);

/// One FRER member of an ECT spec as Alg. 1 sees it: the path its N
/// probabilistic streams share, their frames per event, and the minimum
/// interevent time.
struct EctGroup {
  std::vector<net::LinkId> path;
  int frames = 0;
  TimeNs minInterevent = 0;
};

/// Append the ECT member groups among `streams` to `out`: one per run of
/// Prob streams with equal (specId, member), the layout expandSpec emits.
void collectEctGroups(std::span<const ExpandedStream> streams,
                      std::vector<EctGroup>& out);

/// Alg. 1: the per-hop frame counts of `s`.  A shared Det stream (with
/// prudent reservation on) gets, on every hop, its base frames plus
/// prudentExtraFrames for each group in `ect` crossing that link; any other
/// stream gets its base frames.
std::vector<int> prudentFrames(const net::Topology& topo,
                               const ExpandedStream& s,
                               std::span<const EctGroup> ect,
                               const SchedulerConfig& config);

/// Alg. 1's per-link extra frame count for one (shared TCT, ECT) pair:
/// n = ect_frames * ceil(tct_frames * frame_tx_time / min_interevent).
int prudentExtraFrames(int tctFrames, TimeNs tctFrameTxTime, int ectFrames,
                       TimeNs minInterevent);

/// Wire time of the largest frame of `s` on `link` (slot size for shared
/// and probabilistic streams, which must absorb displaced/variable frames).
TimeNs maxFrameTxTime(const ExpandedStream& s, const net::Link& link);

/// Wire time of frame `j` of `s` on `link`; extra (reserved) frames beyond
/// the base count use the largest frame size.
TimeNs frameTxTimeOf(const ExpandedStream& s, int frameIndex,
                     const net::Link& link);

}  // namespace etsn::sched
