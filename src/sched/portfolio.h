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
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
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
  std::vector<Slot> slots;
  /// Engine work counter (placements + rip-ups), for benches.
  std::int64_t steps = 0;
};

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
  std::vector<Slot> slots;
  std::string winner;  // engine that provided `slots` ("" if none)
  std::vector<EngineRun> runs;  // the ranks that ran, in rank order
};

PortfolioResult runPortfolio(const net::Topology& topo,
                             const std::vector<ExpandedStream>& streams,
                             const SchedulerConfig& config,
                             const PortfolioOptions& opts);

}  // namespace etsn::sched
