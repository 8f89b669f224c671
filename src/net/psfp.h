// 802.1Qci-style Per-Stream Filtering and Policing (PSFP).
//
// The schedule already *promises* isolation: TCT frames only ever arrive
// at the first switch inside their reserved slots, and an ECT source emits
// at most one message per declared minimum interevent time T.  PSFP turns
// those promises into enforced preconditions at the network edge, so a
// babbling or misprogrammed source cannot flood the prioritized shared
// slots downstream (the failure mode the prudent-reservation guarantee of
// §III-D does not cover).
//
// Two filter kinds, compiled per stream from the solved schedule:
//  * Gate (TCT): arrival windows on the stream's first link, derived from
//    its hop-0 slots widened by propagation delay and a guard band that
//    absorbs residual 802.1AS sync error.  A frame arriving outside every
//    window is non-conformant.
//  * Meter (ECT): a token bucket holding frame credits.  The refill rate is
//    the stream's frames-per-message k over its min interevent time T; the
//    capacity is k plus the T/N possibility slack ceil(k/N), matching what
//    the N-way probabilistic expansion (§III-B) actually reserved.
//
// Compilation reads the sched::Schedule as plain data (headers only), so
// etsn_net keeps its usual link-time independence from etsn_sched.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "net/topology.h"
#include "sched/scheduler.h"

namespace etsn::net {

/// Half-open conformance window [start, end) in the stream's period grid.
struct ArrivalWindow {
  TimeNs start = 0;
  TimeNs end = 0;
};

/// TCT conformance: arrival time modulo `period` must fall inside one of
/// the (sorted, disjoint, non-wrapping) windows.
struct GateFilter {
  TimeNs period = 0;
  std::vector<ArrivalWindow> windows;

  bool conforms(TimeNs arrival) const;
};

/// ECT conformance: a token bucket in whole-frame credits.  Tokens accrue
/// at `tokensPerInterval` per `interval` nanoseconds (exact integer
/// arithmetic with a remainder carry, so no drift at ns granularity) and
/// cap at `bucketCapacity`; each conformant frame spends one token.
struct MeterFilter {
  std::int64_t tokensPerInterval = 0;
  TimeNs interval = 0;
  std::int64_t bucketCapacity = 0;
};

struct StreamFilter {
  enum class Kind {
    None,   // stream not policed (e.g. dropped by a repair)
    Gate,   // TCT: arrival windows
    Meter,  // ECT: token bucket
  };
  std::int32_t specId = -1;
  Kind kind = Kind::None;
  /// Gate filters: one arrival-window gate per member, indexed by member
  /// (each member has its own hop-0 slots and first link); empty for the
  /// other kinds.
  std::vector<GateFilter> gates;
  /// Meter filters: one configuration that every member shares.
  MeterFilter meter;
  /// 802.1CB FRER member count (1 = unprotected).  The policer keeps one
  /// runtime state per member; each member copy is judged independently at
  /// its own first switch.
  int members = 1;
};

/// Per-stream filter table, indexed by specId.
struct PsfpConfig {
  std::vector<StreamFilter> filters;

  bool empty() const { return filters.empty(); }
  const StreamFilter* filterFor(std::int32_t specId) const {
    return specId >= 0 && static_cast<std::size_t>(specId) < filters.size()
               ? &filters[static_cast<std::size_t>(specId)]
               : nullptr;
  }
};

/// Compile the per-stream filter table from a solved schedule: one Gate
/// per TCT spec (from its hop-0 slots), one Meter per ECT spec (from its
/// declared T and the N expansion).  Specs whose streams were dropped by a
/// repair get Kind::None.  Requires ms.schedule.info.feasible.
PsfpConfig compileFilters(const Topology& topo,
                          const sched::MethodSchedule& ms);

}  // namespace etsn::net
