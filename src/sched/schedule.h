// Scheduler data model: expanded streams, reserved time-slots, and the
// resulting Schedule object consumed by GCL synthesis, the validator, and
// the simulator.
//
// Terminology follows §III/§IV of the paper:
//  * a TCT StreamSpec expands to one Det stream;
//  * an ECT StreamSpec expands to N Prob(abilistic) streams with staggered
//    occurrence times and a tightened deadline (§III-B);
//  * prudent reservation (Alg. 1) may add extra frames to shared Det
//    streams on the links they share with ECT, so the per-hop frame count
//    framesOnLink can exceed the base frame count (§III-D).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "net/stream.h"
#include "net/topology.h"

namespace etsn::sched {

struct SchedulerConfig {
  /// N: probabilistic streams per ECT stream (§III-B).
  int numProbabilistic = 8;
  /// EP: the priority reserved for ECT (constraint (6)).
  int ectPriority = 7;
  /// [SH_PL, SH_PH]: priorities for TCT that shares its slots.
  int sharedPrioLow = 4;
  int sharedPrioHigh = 6;
  /// [NSH_PL, NSH_PH]: priorities for TCT that does not share.
  int nonSharedPrioLow = 1;
  int nonSharedPrioHigh = 3;
  /// Best-effort priority, open in unallocated slots.
  int bestEffortPriority = 0;
  /// Store-and-forward processing latency added per switch hop.
  TimeNs switchProcessingDelay = microseconds(2);
  /// Extra per-hop slack absorbing residual clock offsets between nodes
  /// (802.1AS sync error).  0 matches the paper's hardware-synchronized
  /// testbed; set to the worst-case offset when simulating drift.
  TimeNs syncErrorMargin = 0;
  /// Isolation between same-queue TCT streams on a link (the
  /// flow-vs-frame isolation trade-off of Craciunas et al. [8]).
  ///  * Presence (default): the presence windows [arrival, departure) of
  ///    different streams' *frames* may not overlap, so an egress FIFO
  ///    holds at most one stream at a time — no head-of-line blocking,
  ///    robust to sub-tu arrival jitter (frame isolation).  Under ECT
  ///    displacement a delayed frame may still borrow a same-queue
  ///    neighbour's slot, so Alg. 1's per-stream accounting can leak
  ///    between streams scheduled with very little slack.
  ///  * Flow: entire per-link bursts of different streams are separated
  ///    (flow isolation): stronger, makes the prudent-reservation
  ///    accounting exact even under displacement, at some schedulability
  ///    cost.
  ///  * FifoOrder: only requires departures in arrival order; weaker and
  ///    cheaper, but a tie in arrival times can flip the FIFO at runtime.
  ///  * None: rely on slot non-overlap alone (ablation).
  enum class Isolation { None, FifoOrder, Presence, Flow };
  Isolation isolation = Isolation::Presence;
  /// Safety margin (in link time units) between presence windows,
  /// absorbing the sub-tu rounding between modeled and actual arrivals.
  int isolationMarginTu = 2;
  /// Prudent reservation (Alg. 1).  Disabling it (ablation) removes the
  /// extra shared-stream slots, so ECT encroachment is no longer absorbed
  /// and shared TCT streams can miss deadlines.
  bool prudentReservation = true;
  /// SMT conflict budget before giving up (<0 = unlimited).
  std::int64_t conflictBudget = -1;
};

enum class StreamKind {
  Det,   // deterministic: a TCT stream
  Prob,  // probabilistic: one possibility of an ECT stream (§III-B)
};

using StreamId = std::int32_t;

/// A scheduler-internal stream; Prob streams are derived from ECT specs.
struct ExpandedStream {
  StreamId id = -1;
  /// Index into the input StreamSpec array this stream came from.
  std::int32_t specId = -1;
  /// 802.1CB FRER member index, 0 .. spec.redundancy-1.  Members of one
  /// spec carry identical payload over mutually link-disjoint paths; 0 for
  /// unprotected streams.
  std::int32_t member = 0;
  std::string name;
  StreamKind kind = StreamKind::Det;
  std::vector<net::LinkId> path;
  int priority = -1;  // resolved egress queue
  bool share = false;  // Det only: ECT may share this stream's slots
  TimeNs period = 0;      // s.T (period / min interevent)
  TimeNs maxLatency = 0;  // s.e2e (tightened by T/N for Prob streams)
  /// Prob: s.ot, the possibility's occurrence time.  Det: the talker
  /// application's release phase within the period.  Either way the first
  /// frame on the first link starts at or after this offset, and the
  /// stream's slots may slide up to `occurrence` past the period boundary
  /// (the GCL wraps).
  TimeNs occurrence = 0;
  /// Payload bytes of each base frame (message fragmented at the MTU).
  std::vector<int> framePayloads;
  /// Frames reserved per path hop, including prudent-reservation extras;
  /// always >= framePayloads.size() for Det, == for Prob.
  std::vector<int> framesOnLink;

  int baseFrames() const { return static_cast<int>(framePayloads.size()); }
  int hops() const { return static_cast<int>(path.size()); }
};

/// One reserved time-slot: frame `frameIndex` of `stream` on path hop
/// `hop`, repeating with the stream's period.
struct Slot {
  StreamId stream = -1;
  int hop = 0;
  int frameIndex = 0;
  TimeNs start = 0;     // offset in the period grid (multiple of link tu)
  TimeNs duration = 0;  // slot length (>= the frame's wire time)
};

/// Lifetime churn counters of an admission engine (sched/admission.h).
struct AdmissionCounters {
  std::int64_t requests = 0;
  std::int64_t admits = 0;
  std::int64_t rejects = 0;
  /// Rung-usage counters, each incremented at most once per request (a
  /// Modify that runs the ladder for both its phases is still one
  /// delta-solved request; a request can contribute to several counters
  /// if it escalated through several rungs).
  /// Requests with at least one phase decided on the delta/rip-up rungs.
  std::int64_t deltaSolves = 0;
  /// Requests that escalated into a full portfolio re-solve.
  std::int64_t fullResolves = 0;
};

/// Statistics about a scheduling run (for benches / EXPERIMENTS.md).
struct SolveInfo {
  bool feasible = false;
  double solveSeconds = 0;
  std::int64_t smtAtoms = 0;
  std::int64_t smtClauses = 0;
  std::int64_t smtConflicts = 0;
  std::int64_t smtDecisions = 0;
  std::int64_t smtIntVars = 0;
  std::string engine;  // "smt", "greedy", "portfolio", "smt+greedy", ...
  /// Graceful degradation: the primary (SMT) engine gave up — conflict
  /// budget exhausted or repair infeasible under pinning — and the result
  /// comes from the greedy fallback instead.
  bool degraded = false;
  /// Portfolio runs: the engine whose schedule was adopted (the
  /// lowest-ranked feasible engine).
  std::string portfolioWinner;
  /// Gap certification (ScheduleOptions::certify): SMT re-verdict on the
  /// instance plus a certified flowspan lower bound for the quality gap.
  bool certified = false;       // SMT reached a feasibility verdict
  bool gapCertified = false;    // flowspan search ran to completion
  std::int64_t flowspanTu = 0;  // this schedule's flowspan (tu grid)
  std::int64_t flowspanLowerBoundTu = 0;
  double gapPercent = 0;
  /// Admission-engine exports (engine == "admission"): the counters of
  /// the engine that produced this schedule; zero for batch engines.
  AdmissionCounters admission;
};

struct Schedule {
  SchedulerConfig config;
  std::vector<net::StreamSpec> specs;
  std::vector<ExpandedStream> streams;
  /// Expanded stream ids per spec (redundancy for TCT, redundancy * N for
  /// ECT; member-major order, i.e. all of member 0's streams first).
  std::vector<std::vector<StreamId>> specToStreams;
  std::vector<Slot> slots;
  TimeNs hyperperiod = 0;
  SolveInfo info;

  /// Slots of one stream on one hop, ordered by frame index.
  std::vector<Slot> slotsOf(StreamId s, int hop) const;
  /// slotsOf(s, 0) for every stream s (indexed by StreamId), from one pass
  /// over `slots`: for callers that read many streams' first-link slots.
  /// Inline, so etsn_net can call it without linking etsn_sched.
  std::vector<std::vector<Slot>> firstHopSlots() const;
  /// All slots on a directed link (any stream), unordered.
  std::vector<Slot> slotsOnLink(net::LinkId link,
                                const net::Topology& topo) const;
};

inline std::vector<std::vector<Slot>> Schedule::firstHopSlots() const {
  std::vector<std::vector<Slot>> out(streams.size());
  for (const Slot& slot : slots) {
    if (slot.hop == 0) {
      out[static_cast<std::size_t>(slot.stream)].push_back(slot);
    }
  }
  for (std::vector<Slot>& v : out) {
    std::sort(v.begin(), v.end(), [](const Slot& a, const Slot& b) {
      return a.frameIndex < b.frameIndex;
    });
  }
  return out;
}

}  // namespace etsn::sched
