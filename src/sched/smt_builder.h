// SMT formulation of the joint TCT+ECT scheduling problem (§IV).
//
// Frame offsets phi are integer-difference-logic variables in units of the
// network's (uniform) scheduling time unit tu.  The four constraint
// families of §IV-B are encoded 1:1:
//   (1) time bounds, (2) occurrence time, (3) same-link sequencing,
//   (4) end-to-end latency, (5) frame overlap with the probabilistic-
//   stream exceptions, (6) priorities (resolved statically in expansion),
//   (7) adjacent-link ordering with the prudent-reservation index offset.
// An optional frame-isolation family (standard in Qbv synthesis, cf.
// Craciunas et al. RTNS'16) keeps same-queue TCT streams from interleaving
// inside an egress FIFO so the runtime behaves like the schedule.
#pragma once

#include <memory>
#include <vector>

#include "net/topology.h"
#include "sched/schedule.h"
#include "smt/solver.h"

namespace etsn::sched {

class ScheduleSmt {
 public:
  ScheduleSmt(const net::Topology& topo, std::vector<ExpandedStream> streams,
              const SchedulerConfig& config);

  /// Encode all constraint families into the solver.
  void buildConstraints();

  /// Pin one stream's variables to previously extracted slots so a repair
  /// or delta solve preserves it bit-for-bit.  The slots must cover
  /// exactly the stream's current (hop, frameIndex) grid — throws
  /// ConfigError (never indexes out of bounds) when they don't: stale
  /// slots extracted against a different path or an outdated
  /// prudent-reservation grid, duplicate/out-of-range entries, or starts
  /// off the tu grid.
  void pinStreamTo(StreamId s, const std::vector<Slot>& slots);

  smt::Result solve();

  /// Guarded flowspan cap: every reserved slot ends by `capTu` (clauses
  /// `~g or phi + len <= capTu`).  Solve with the returned literal as an
  /// assumption; caps from previous probes stay dormant unless assumed, so
  /// a binary search can stack them on one solver instance.
  smt::Lit addFlowspanCap(std::int64_t capTu);

  /// Extract reserved slots from the model (valid after Result::Sat).
  std::vector<Slot> extractSlots() const;

  const smt::Solver& solver() const { return *solver_; }
  smt::Solver& solver() { return *solver_; }

  /// The uniform scheduling time unit (validated across all used links).
  TimeNs tu() const { return tu_; }

  const std::vector<ExpandedStream>& streams() const { return streams_; }

 private:
  smt::IntVar phi(StreamId s, int hop, int frame) const;
  std::int64_t frameLenTu(const ExpandedStream& s, int hop, int frame) const;
  std::int64_t periodTu(const ExpandedStream& s) const;
  std::int64_t occurrenceTu(const ExpandedStream& s) const;
  /// Inclusive variable bounds used both for (1) and to trim the
  /// hyperperiod-offset enumeration in (5).
  std::int64_t loBound(const ExpandedStream& s) const;
  std::int64_t hiBound(const ExpandedStream& s, int hop, int frame) const;

  /// Emit with an optional guard literal: `require`-style facts become
  /// (~guard ∨ fact); disjunctions get ~guard as an extra literal.
  void emit(smt::Lit fact);
  void emitOr(smt::Lit a, smt::Lit b);

  /// Per-stream families (1)-(4) and (7) for one stream.
  void emitStreamLocal(const ExpandedStream& s);
  /// Pairwise families (5) and isolation for one stream pair.
  void emitPair(const ExpandedStream& a, const ExpandedStream& b);
  void emitOverlapPair(const ExpandedStream& a, const ExpandedStream& b);
  void emitIsolationPair(const ExpandedStream& a, const ExpandedStream& b);
  void allocateVars(const ExpandedStream& s);

  static bool canOverlap(const ExpandedStream& a, const ExpandedStream& b);

  smt::Lit guard_ = smt::kLitUndef;  // active guard during emission

  const net::Topology& topo_;
  std::vector<ExpandedStream> streams_;
  SchedulerConfig config_;
  TimeNs tu_ = 0;
  std::unique_ptr<smt::Solver> solver_;
  // var index per stream: flat [hop][frame] offsets.
  std::vector<std::vector<smt::IntVar>> vars_;
  std::vector<std::vector<int>> hopBase_;  // per stream: var offset per hop
};

/// Outcome of the heuristic-vs-SMT gap probe (see probeOptimalityGap).
struct GapProbeResult {
  /// The SMT engine reached a Sat/Unsat verdict on the base instance.
  bool feasibilityCertified = false;
  /// The base instance is SMT-infeasible (a heuristic "solution" for it
  /// would be an oracle violation — the differential tests assert this
  /// never happens).
  bool infeasible = false;
  /// The binary search completed without hitting the conflict budget, so
  /// lowerBoundTu is the exact optimal flowspan.
  bool gapCertified = false;
  /// Certified bound: no schedule exists with flowspan < lowerBoundTu.
  /// Valid whenever feasibilityCertified && !infeasible (partial searches
  /// report the bound proven so far).
  std::int64_t lowerBoundTu = 0;
  std::int64_t heuristicTu = 0;  // echoed input
  /// 100 * (heuristic - lowerBound) / lowerBound; 0 when optimal.
  double gapPercent = 0;
  int solves = 0;
};

/// Certify a heuristic result against the exact engine: re-solve the
/// instance from scratch (bounded conflicts per solve), then binary-search
/// guarded flowspan caps for the smallest feasible flowspan.  The gap
/// between the heuristic's flowspan and the certified lower bound measures
/// how much schedule quality the heuristic gave up for speed.
GapProbeResult probeOptimalityGap(const net::Topology& topo,
                                  const std::vector<ExpandedStream>& streams,
                                  const SchedulerConfig& config,
                                  std::int64_t heuristicFlowspanTu,
                                  std::int64_t conflictBudgetPerSolve);

}  // namespace etsn::sched
