#include "net/psfp.h"

#include <algorithm>

#include "common/check.h"
#include "net/ethernet.h"

namespace etsn::net {

bool GateFilter::conforms(TimeNs arrival) const {
  ETSN_CHECK(period > 0);
  const TimeNs phase = ((arrival % period) + period) % period;
  for (const ArrivalWindow& w : windows) {
    if (phase >= w.start && phase < w.end) return true;
  }
  return false;
}

namespace {

/// Slack added on both sides of every TCT arrival window, on top of the
/// schedule's own syncErrorMargin.  Absorbs sub-tu rounding between the
/// modeled and actual arrival instants.
constexpr TimeNs kGuardBand = microseconds(1);

/// Fold a raw (possibly negative-start, possibly wrapping) window into the
/// period grid; a window as long as the period accepts everything.
void addNormalized(std::vector<ArrivalWindow>& out, TimeNs start, TimeNs end,
                   TimeNs period) {
  const TimeNs len = end - start;
  if (len >= period) {
    out.assign(1, {0, period});
    return;
  }
  const TimeNs s = ((start % period) + period) % period;
  if (s + len <= period) {
    out.push_back({s, s + len});
  } else {
    out.push_back({s, period});
    out.push_back({0, s + len - period});
  }
}

void sortAndMerge(std::vector<ArrivalWindow>& windows) {
  std::sort(windows.begin(), windows.end(),
            [](const ArrivalWindow& a, const ArrivalWindow& b) {
              return a.start != b.start ? a.start < b.start : a.end < b.end;
            });
  std::vector<ArrivalWindow> merged;
  for (const ArrivalWindow& w : windows) {
    if (!merged.empty() && w.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
    } else {
      merged.push_back(w);
    }
  }
  windows = std::move(merged);
}

/// `firstHop` holds the stream's hop-0 slots.
GateFilter compileGate(const Topology& topo, const sched::ExpandedStream& s,
                       const std::vector<sched::Slot>& firstHop,
                       std::int32_t specId, TimeNs guard) {
  ETSN_CHECK(!s.path.empty());
  const TimeNs prop = topo.link(s.path[0]).propagationDelay;

  GateFilter g;
  g.period = s.period;
  // Every hop-0 slot (base and prudent-reservation extras) is a legitimate
  // arrival opportunity: a frame transmitted inside [start, start+duration]
  // is fully received prop later, so the conformance window is that span
  // shifted by prop and widened by the guard on both sides.
  for (const sched::Slot& slot : firstHop) {
    addNormalized(g.windows, slot.start + prop - guard,
                  slot.start + slot.duration + prop + guard, s.period);
    if (g.windows.size() == 1 && g.windows[0].start == 0 &&
        g.windows[0].end == s.period) {
      break;  // already accepts the whole period
    }
  }
  sortAndMerge(g.windows);
  ETSN_CHECK_MSG(!g.windows.empty(),
                 "TCT spec " << specId << " has no hop-0 slots");
  return g;
}

StreamFilter compileMeter(const net::StreamSpec& spec, std::int32_t specId,
                          int numProbabilistic) {
  ETSN_CHECK_MSG(spec.period > 0, "ECT spec " << specId
                                              << " has no min interevent time");
  const std::int64_t k =
      static_cast<std::int64_t>(fragmentPayload(spec.payloadBytes).size());
  const int n = std::max(1, numProbabilistic);
  StreamFilter f;
  f.specId = specId;
  f.kind = StreamFilter::Kind::Meter;
  f.meter.tokensPerInterval = k;
  f.meter.interval = spec.period;
  // One message per T, plus the T/N possibility slack the expansion
  // reserved: an event landing right at a possibility boundary may arrive
  // up to one occurrence quantum "early" relative to the refill.
  f.meter.bucketCapacity = k + ceilDiv(k, n);
  return f;
}

}  // namespace

PsfpConfig compileFilters(const Topology& topo,
                          const sched::MethodSchedule& ms) {
  const sched::Schedule& sched = ms.schedule;
  ETSN_CHECK_MSG(sched.info.feasible,
                 "cannot compile filters from an infeasible schedule");
  const TimeNs guard = kGuardBand + sched.config.syncErrorMargin;
  ETSN_CHECK_MSG(guard >= 0, "negative PSFP guard band");

  const std::vector<std::vector<sched::Slot>> firstHop = sched.firstHopSlots();
  PsfpConfig config;
  config.filters.resize(sched.specs.size());
  for (std::size_t i = 0; i < sched.specs.size(); ++i) {
    const net::StreamSpec& spec = sched.specs[i];
    const auto& ids = sched.specToStreams[i];
    const std::int32_t specId = static_cast<std::int32_t>(i);
    if (spec.type == TrafficClass::EventTriggered) {
      // The source stays event-driven under every method (E-TSN, PERIOD's
      // Det conversion, AVB's shaped class), so the declared-rate meter is
      // the right contract everywhere.  FRER members carry one copy each
      // of the declared rate — same meter, one runtime state per member.
      config.filters[i] =
          compileMeter(spec, specId, sched.config.numProbabilistic);
      config.filters[i].members = std::max(1, spec.redundancy);
    } else if (!ids.empty()) {
      // One gate per 802.1CB member (one in all when unprotected): each
      // member has its own hop-0 slots and its own first link.  ids are
      // member-major with one Det stream per member.
      StreamFilter& f = config.filters[i];
      f.specId = specId;
      f.kind = StreamFilter::Kind::Gate;
      f.members = static_cast<int>(ids.size());
      for (const sched::StreamId id : ids) {
        const auto s = static_cast<std::size_t>(id);
        f.gates.push_back(
            compileGate(topo, sched.streams[s], firstHop[s], specId, guard));
      }
    } else {
      // Dropped by a link-failure repair: no talker is installed, nothing
      // to police.
      config.filters[i].specId = specId;
    }
  }
  return config;
}

}  // namespace etsn::net
