#include "sched/repair.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>

#include "common/check.h"
#include "common/log.h"
#include "common/math.h"
#include "sched/expand.h"
#include "sched/portfolio.h"
#include "sched/smt_builder.h"

namespace etsn::sched {

LinkDownRepair repairLinksDown(const net::Topology& topo,
                               const Schedule& base,
                               std::span<const net::LinkId> failed) {
  ETSN_REQUIRE(base.info.feasible,
               "repairLinksDown: cannot repair an infeasible schedule");
  // Contract checks up front (see the header): failed links must exist,
  // and every link a base stream references must still exist in `topo` —
  // a schedule solved against a different (shrunken) topology would
  // otherwise read out of bounds below and pin streams to nonsense.
  for (const net::LinkId f : failed) {
    if (f < 0 || f >= topo.numLinks()) {
      throw ConfigError("repairLinksDown: failed link id " +
                        std::to_string(f) + " does not exist (topology has " +
                        std::to_string(topo.numLinks()) + " links)");
    }
  }
  for (const ExpandedStream& s : base.streams) {
    for (const net::LinkId l : s.path) {
      if (l < 0 || l >= topo.numLinks()) {
        throw ConfigError(
            "repairLinksDown: base stream '" + s.name +
            "' references link id " + std::to_string(l) +
            " which does not exist in the given topology — repair must run "
            "against the topology the schedule was solved on (model the "
            "failure via the failed-link list, not by removing links)");
      }
    }
  }
  // Canonicalize to cable granularity: a cut cable kills both directions.
  std::vector<net::LinkId> cut(failed.begin(), failed.end());
  for (const net::LinkId f : failed) {
    const net::LinkId rev = topo.link(f).reverse;
    if (rev != net::kNoLink) cut.push_back(rev);
  }
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  auto usesFailed = [&](const std::vector<net::LinkId>& path) {
    return std::any_of(path.begin(), path.end(), [&](net::LinkId l) {
      return std::binary_search(cut.begin(), cut.end(), l);
    });
  };

  LinkDownRepair out;
  out.schedule.config = base.config;
  out.schedule.specs = base.specs;
  out.schedule.specToStreams.assign(base.specs.size(), {});

  // Reroute per FRER member: the streams of one member share a path, and
  // an unprotected spec is the one-member case.  A member that avoids the
  // cut keeps its path.  One that crosses it takes the shortest path that
  // avoids the cut and every cable of the spec's other surviving members
  // (so the copies stay disjoint), or is dropped when none exists; the
  // survivors are renumbered from 0.  Endpoints come from the routed path
  // itself, which also covers specs with explicit paths and
  // method-transformed streams.
  std::vector<char> keep(base.streams.size(), 1);
  std::vector<char> rerouted(base.streams.size(), 0);
  std::vector<std::int32_t> memberOf;
  for (const ExpandedStream& s : base.streams) memberOf.push_back(s.member);
  std::vector<std::vector<net::LinkId>> pathOf(base.streams.size());
  for (std::size_t i = 0; i < base.specs.size(); ++i) {
    const auto& ids = base.specToStreams[i];
    if (ids.empty()) continue;  // e.g. AVB's unscheduled ECT specs
    // Member groups: paths[g] is group g's path, groupOf[k] the group of
    // ids[k] (ids are member-major).
    std::vector<std::vector<net::LinkId>> paths;
    std::vector<char> crosses;
    std::vector<std::size_t> groupOf;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const ExpandedStream& s = base.streams[static_cast<std::size_t>(ids[k])];
      if (k == 0 ||
          base.streams[static_cast<std::size_t>(ids[k - 1])].member !=
              s.member) {
        paths.push_back(s.path);
        crosses.push_back(usesFailed(s.path) ? 1 : 0);
      }
      groupOf.push_back(paths.size() - 1);
    }
    if (std::find(crosses.begin(), crosses.end(), 1) == crosses.end()) {
      continue;
    }
    const net::NodeId src = topo.link(paths[0].front()).from;
    const net::NodeId dst = topo.link(paths[0].back()).to;
    for (std::size_t g = 0; g < paths.size(); ++g) {
      if (!crosses[g]) continue;
      // Survivors so far: members off the cut, and crossing members
      // already rerouted (a dropped member's path is empty).
      std::vector<net::LinkId> avoid = cut;
      for (std::size_t h = 0; h < paths.size(); ++h) {
        if (h == g || (h > g && crosses[h])) continue;
        avoid.insert(avoid.end(), paths[h].begin(), paths[h].end());
      }
      paths[g] = topo.shortestPathAvoiding(src, dst,
                                           std::span<const net::LinkId>(avoid));
    }
    std::vector<std::int32_t> renumbered;
    std::int32_t survivors = 0;
    bool anyRerouted = false;
    for (std::size_t g = 0; g < paths.size(); ++g) {
      renumbered.push_back(survivors);
      if (paths[g].empty()) continue;
      ++survivors;
      anyRerouted = anyRerouted || crosses[g];
    }
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::size_t g = groupOf[k];
      const auto id = static_cast<std::size_t>(ids[k]);
      keep[id] = !paths[g].empty();
      rerouted[id] = crosses[g];
      memberOf[id] = renumbered[g];
      pathOf[id] = paths[g];
    }
    const auto spec = static_cast<std::int32_t>(i);
    if (survivors == 0) {
      out.droppedSpecs.push_back(spec);
      continue;
    }
    if (anyRerouted) out.reroutedSpecs.push_back(spec);
    if (survivors < static_cast<std::int32_t>(paths.size())) {
      out.lostMemberSpecs.push_back(spec);
      out.schedule.specs[i].redundancy = survivors;
    }
  }

  // Rebuild the stream set with contiguous ids and the new paths; prudent
  // reservations are recomputed below once every path is known.
  std::vector<ExpandedStream> streams;
  std::vector<StreamId> oldIdOf;  // new id -> base id
  for (const ExpandedStream& s : base.streams) {
    if (!keep[static_cast<std::size_t>(s.id)]) continue;
    ExpandedStream ns = s;
    ns.id = static_cast<StreamId>(streams.size());
    ns.member = memberOf[static_cast<std::size_t>(s.id)];
    if (rerouted[static_cast<std::size_t>(s.id)]) {
      ns.path = pathOf[static_cast<std::size_t>(s.id)];
    }
    out.schedule.specToStreams[static_cast<std::size_t>(ns.specId)].push_back(
        ns.id);
    oldIdOf.push_back(s.id);
    streams.push_back(std::move(ns));
  }

  // Prudent reservation (Alg. 1) against the post-failure ECT paths.  This
  // reproduces expandStreams' counts exactly when nothing moved, so a
  // difference marks the stream as affected (its reservation grid changed
  // and its old slots no longer fit).
  std::vector<EctGroup> ect;
  collectEctGroups(streams, ect);
  for (ExpandedStream& st : streams) {
    st.framesOnLink = prudentFrames(topo, st, ect, base.config);
  }

  // Affected = rerouted, or reservation grid changed under an ECT reroute.
  std::vector<char> touched(streams.size(), 0);
  for (std::size_t n = 0; n < streams.size(); ++n) {
    const ExpandedStream& old =
        base.streams[static_cast<std::size_t>(oldIdOf[n])];
    touched[n] = rerouted[static_cast<std::size_t>(old.id)] ||
                 streams[n].framesOnLink != old.framesOnLink;
    if (touched[n]) {
      ++out.repairedStreams;
    } else {
      ++out.untouchedStreams;
    }
  }

  Schedule& sched = out.schedule;
  const auto t0 = std::chrono::steady_clock::now();
  ScheduleSmt smt(topo, streams, base.config);
  smt.buildConstraints();
  for (std::size_t n = 0; n < streams.size(); ++n) {
    if (touched[n]) continue;
    std::vector<Slot> pins;
    for (const Slot& slot : base.slots) {
      if (slot.stream != oldIdOf[n]) continue;
      Slot p = slot;
      p.stream = static_cast<StreamId>(n);
      pins.push_back(p);
    }
    smt.pinStreamTo(static_cast<StreamId>(n), pins);
  }
  const smt::Result r = smt.solve();
  if (r == smt::Result::Sat) {
    sched.streams = smt.streams();
    sched.slots = smt.extractSlots();
    sched.info.feasible = true;
    sched.info.engine = "smt-repair";
  } else {
    // Graceful degradation: drop the zero-disruption guarantee and let
    // greedy re-place everything that survives the failure.
    ETSN_LOG(Warn) << "pinned SMT repair failed ("
                   << (r == smt::Result::Unknown ? "budget" : "unsat")
                   << "); degrading to full greedy re-placement";
    EngineResult g = runGreedy(topo, streams, base.config);
    sched.streams = streams;
    sched.info.feasible = g.feasible;
    sched.info.engine = "greedy-repair";
    if (g.feasible) sched.slots = std::move(g.slots);
    sched.info.degraded = true;
  }
  const auto t1 = std::chrono::steady_clock::now();
  sched.info.solveSeconds = std::chrono::duration<double>(t1 - t0).count();

  if (!sched.streams.empty()) {
    std::vector<std::int64_t> periods;
    for (const ExpandedStream& s : sched.streams) periods.push_back(s.period);
    sched.hyperperiod = lcmAll(periods);
  }
  return out;
}

LinkDownRepair repairLinkDown(const net::Topology& topo, const Schedule& base,
                              net::LinkId failed) {
  return repairLinksDown(topo, base, std::span<const net::LinkId>(&failed, 1));
}

}  // namespace etsn::sched
