#include "sched/program.h"

#include <algorithm>

#include "common/check.h"
#include "net/ethernet.h"
#include "sched/expand.h"

namespace etsn::sched {

NetworkProgram compileProgram(const net::Topology& topo,
                              const MethodSchedule& ms) {
  const Schedule& sched = ms.schedule;
  ETSN_CHECK_MSG(sched.info.feasible, "cannot compile an infeasible schedule");

  NetworkProgram prog;
  prog.gclCycle = sched.hyperperiod;
  prog.switchProcessingDelay = sched.config.switchProcessingDelay;
  prog.bestEffortQueue = sched.config.bestEffortPriority;

  // --- GCLs: expand every slot across the hyperperiod ----------------------
  std::vector<bool> linkHasSlots(static_cast<std::size_t>(topo.numLinks()),
                                 false);
  std::vector<net::GclBuilder> builders;
  builders.reserve(static_cast<std::size_t>(topo.numLinks()));
  for (int l = 0; l < topo.numLinks(); ++l) {
    builders.emplace_back(prog.gclCycle > 0 ? prog.gclCycle : 1);
  }
  // Links crossed by at least one ECT stream (probabilistic streams): the
  // EP gate additionally opens during every *shared* TCT slot there —
  // prioritized slot sharing (§III-C).  The length-aware Qbv guard keeps
  // oversized event frames out of too-short shared slots.
  std::vector<bool> linkHasEct(static_cast<std::size_t>(topo.numLinks()),
                               false);
  for (const ExpandedStream& s : sched.streams) {
    if (s.kind != StreamKind::Prob) continue;
    for (const net::LinkId l : s.path) {
      linkHasEct[static_cast<std::size_t>(l)] = true;
    }
  }
  for (const Slot& slot : sched.slots) {
    const ExpandedStream& s =
        sched.streams[static_cast<std::size_t>(slot.stream)];
    const net::LinkId link = s.path[static_cast<std::size_t>(slot.hop)];
    linkHasSlots[static_cast<std::size_t>(link)] = true;
    const std::int64_t reps = prog.gclCycle / s.period;
    const bool alsoOpenEp = ms.method == Method::ETSN &&
                            s.kind == StreamKind::Det && s.share &&
                            linkHasEct[static_cast<std::size_t>(link)];
    for (std::int64_t r = 0; r < reps; ++r) {
      const TimeNs from = slot.start + r * s.period;
      builders[static_cast<std::size_t>(link)].open(s.priority, from,
                                                    from + slot.duration);
      if (alsoOpenEp) {
        builders[static_cast<std::size_t>(link)].open(
            sched.config.ectPriority, from, from + slot.duration);
      }
    }
  }
  prog.linkGcl.resize(static_cast<std::size_t>(topo.numLinks()));
  for (int l = 0; l < topo.numLinks(); ++l) {
    if (!linkHasSlots[static_cast<std::size_t>(l)]) continue;  // all-open
    net::GclBuilder& b = builders[static_cast<std::size_t>(l)];
    b.openInUnallocated(prog.bestEffortQueue);
    if (ms.method == Method::AVB) {
      // The AVB class rides in unallocated slots only (§VI-A2).
      b.openInUnallocated(sched.config.ectPriority);
    } else if (ms.method == Method::ETSN &&
               linkHasEct[static_cast<std::size_t>(l)]) {
      // Prioritized slot sharing (§III-C): an event transmits immediately
      // whenever it occurs — in unallocated time (harms no one), in shared
      // TCT slots (absorbed by prudent reservation), or in its own
      // probabilistic slots (the worst-case guarantee).  Only non-shared
      // TCT windows stay closed to ECT.
      b.openInUnallocated(sched.config.ectPriority);
    }
    prog.linkGcl[static_cast<std::size_t>(l)] = b.build();
  }

  // --- Talkers and event sources -------------------------------------------
  const std::vector<std::vector<Slot>> firstHop = sched.firstHopSlots();
  for (std::size_t i = 0; i < sched.specs.size(); ++i) {
    const net::StreamSpec& spec = sched.specs[i];
    const auto& ids = sched.specToStreams[i];

    // A spec with no streams was dropped by a link-failure repair (its
    // destination became unreachable): no talker / source is installed.
    // AVB's ECT specs are the exception — they are never scheduled but do
    // emit (the CBS handles them at runtime).
    if (ids.empty() && !(ms.method == Method::AVB &&
                         spec.type == net::TrafficClass::EventTriggered)) {
      continue;
    }

    if (spec.type == net::TrafficClass::TimeTriggered) {
      // ids are member-major: one Det stream per 802.1CB member (one total
      // for unprotected specs).
      TalkerConfig t;
      t.specId = static_cast<std::int32_t>(i);
      for (const StreamId id : ids) {
        const ExpandedStream& s = sched.streams[static_cast<std::size_t>(id)];
        const std::vector<Slot>& firstSlots =
            firstHop[static_cast<std::size_t>(s.id)];
        ETSN_CHECK(!firstSlots.empty());
        TalkerMember m;
        m.stream = s.id;
        m.offset = firstSlots.front().start;
        // Base frames only: extra (prudent-reservation) slots are capacity
        // for displaced frames, not additional transmissions.
        for (int j = 0; j < s.baseFrames(); ++j) {
          m.frameOffsets.push_back(
              firstSlots[static_cast<std::size_t>(j)].start);
        }
        m.route = s.path;
        t.members.push_back(std::move(m));
      }
      const ExpandedStream& s0 =
          sched.streams[static_cast<std::size_t>(ids[0])];
      t.priority = s0.priority;
      t.period = s0.period;
      t.maxLatency = spec.maxLatency;
      t.framePayloads = s0.framePayloads;
      t.offset = t.members[0].offset;
      for (const TalkerMember& m : t.members) {
        t.offset = std::min(t.offset, m.offset);
      }
      prog.talkers.push_back(std::move(t));
      continue;
    }

    // Event-triggered spec.
    EctSourceConfig e;
    e.specId = static_cast<std::int32_t>(i);
    e.minInterevent = spec.period;
    e.maxLatency = spec.maxLatency;
    e.framePayloads = net::fragmentPayload(spec.payloadBytes);
    switch (ms.method) {
      case Method::ETSN:
      case Method::PERIOD: {
        // ETSN: the probabilistic streams, member-major (N per member);
        // PERIOD: the converted Det streams, one per member.  The first
        // stream of each member group carries that member's path.
        ETSN_CHECK(!ids.empty());
        e.priority =
            sched.streams[static_cast<std::size_t>(ids[0])].priority;
        std::int32_t prevMember = -1;
        for (const StreamId id : ids) {
          const ExpandedStream& ps =
              sched.streams[static_cast<std::size_t>(id)];
          if (ps.member == prevMember) continue;
          prevMember = ps.member;
          e.memberRoutes.push_back(ps.path);
        }
        break;
      }
      case Method::AVB: {
        ETSN_CHECK(ids.empty());  // unscheduled; CBS queue at runtime
        e.priority = sched.config.ectPriority;
        e.memberRoutes = memberPaths(topo, spec);
        break;
      }
    }
    prog.ectSources.push_back(std::move(e));
  }

  if (ms.method == Method::AVB && !prog.ectSources.empty()) {
    prog.cbs.push_back({sched.config.ectPriority, ms.avbIdleSlopeFraction});
  }
  return prog;
}

}  // namespace etsn::sched
