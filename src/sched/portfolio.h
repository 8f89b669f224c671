// Incomplete scheduling engines and the portfolio runner.
//
// The from-scratch QF_IDL solver is exact but is the wall-clock bottleneck
// at scale (bench_smt_scaling); these are heuristic families the TAS
// survey catalogues (Stüber et al., PAPERS.md), both built on the one
// incremental Placement substrate (sched/placement.h):
//
//  * greedy — earliest-slot assignment in laxity order with bounded
//    backtracking: when a stream finds no feasible offsets, rip out the
//    most recently placed conflicting stream on the blocking link, retry,
//    and re-queue the victim (budgeted).  Also the fallback when the SMT
//    budget runs out or a pinned repair fails.
//  * tabu — local search repairing conflicts from a no-rip-up seed:
//    unplaced streams force themselves in by evicting a seeded-random
//    non-tabu victim from the blocking link; evicted streams become tabu
//    for a tenure so the search cannot cycle.
//
// Both are incomplete: failure means "engine gave up", never "the instance
// is UNSAT" — the differential corpus (tests/test_sched_portfolio) holds
// them to the oracle contract that every schedule they emit passes
// sched::validate and that they never "solve" an SMT-infeasible instance.
//
// runPortfolio runs the engines in rank order (greedy, then tabu) on the
// calling thread and adopts the first feasible schedule: the
// lowest-ranked feasible engine wins, and a rank runs only when every
// rank below it gave up.  Per-engine seconds are timing metadata, never
// part of the deterministic result.
//
// Each engine places a list of stream ids into a caller-owned, empty
// Placement and leaves its result there; the admission engine re-solves
// this way on its own stream vector, in a Placement it keeps.  The batch
// overloads build a Placement over every stream and export its slots.
// The placement order is the ids' stable laxity order, so ids listed in
// ascending order are placed exactly as a compacted copy of those
// streams would be.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sched/placement.h"
#include "sched/schedule.h"

namespace etsn::sched {

struct PortfolioOptions {
  /// Seed for the tabu engine's victim draws (the only stochastic piece).
  std::uint64_t seed = 1;
  /// Ignored: the portfolio runs on the calling thread.
  int threads = 0;
};

struct EngineResult {
  bool feasible = false;
  /// The batch overloads' schedule; empty from the in-place ones.
  std::vector<Slot> slots;
  /// Engine work counter (placements + rip-ups), for benches.
  std::int64_t steps = 0;
};

/// In place: place `ids` into `p`, which holds nothing placed.  When the
/// engine gives up, `p` holds whatever it had placed by then.
EngineResult runGreedy(Placement& p, const std::vector<StreamId>& ids);
EngineResult runTabu(Placement& p, const std::vector<StreamId>& ids,
                     const PortfolioOptions& opts);

EngineResult runGreedy(const net::Topology& topo,
                       const std::vector<ExpandedStream>& streams,
                       const SchedulerConfig& config);
EngineResult runTabu(const net::Topology& topo,
                     const std::vector<ExpandedStream>& streams,
                     const SchedulerConfig& config,
                     const PortfolioOptions& opts);

struct EngineRun {
  std::string name;
  bool feasible = false;
  double seconds = 0;  // timing only — excluded from determinism checks
  std::int64_t steps = 0;
};

struct PortfolioResult {
  bool feasible = false;
  /// The batch overload's schedule; empty from the in-place one.
  std::vector<Slot> slots;
  std::string winner;  // engine that supplied the schedule ("" if none)
  std::vector<EngineRun> runs;  // the ranks that ran, in rank order
};

/// In place, like runGreedy, except that `p` may hold placed streams: it
/// is cleared before each rank, and holds the winner's schedule when
/// feasible.
PortfolioResult runPortfolio(Placement& p, const std::vector<StreamId>& ids,
                             const PortfolioOptions& opts);
PortfolioResult runPortfolio(const net::Topology& topo,
                             const std::vector<ExpandedStream>& streams,
                             const SchedulerConfig& config,
                             const PortfolioOptions& opts);

}  // namespace etsn::sched
