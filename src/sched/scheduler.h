// Scheduling entry points: E-TSN and the two baselines of §VI-A2.
//
//  * ETSN   — the paper's contribution: probabilistic streams, prioritized
//             slot sharing, prudent reservation, solved jointly as SMT.
//  * PERIOD — ECT treated as TCT with dedicated slots at period
//             T / slotFactor (slotFactor slots per minimum interevent).
//  * AVB    — ECT carried as 802.1Qav credit-based-shaper traffic in the
//             unallocated time-slots; only TCT is scheduled.
#pragma once

#include <string>
#include <vector>

#include "net/stream.h"
#include "net/topology.h"
#include "sched/portfolio.h"
#include "sched/schedule.h"

namespace etsn::sched {

enum class Method { ETSN, PERIOD, AVB };

const char* methodName(Method m);

/// Which solver produces the slot table (orthogonal to Method, which
/// transforms the workload):
///  * Smt        — the exact QF_IDL formulation (complete, slow at scale);
///                 greedy places the instance when its conflict budget
///                 runs out;
///  * Greedy/Tabu — the incomplete families (sched/portfolio.h);
///  * Portfolio  — greedy, then tabu only if greedy gives up; the first
///                 feasible schedule wins.
enum class Engine { Smt, Greedy, Tabu, Portfolio };

const char* engineName(Engine e);
/// Parse "smt" | "greedy" | "tabu" | "portfolio" (the facade/bench engine
/// strings).  Throws ConfigError on anything else.
Engine engineFromString(const std::string& name);

struct ScheduleOptions {
  SchedulerConfig config;
  Method method = Method::ETSN;
  /// PERIOD baseline: dedicated ECT slots per minimum interevent time.
  /// 0 = match E-TSN's probabilistic stream count (the paper's "as many
  /// time-slots as E-TSN"); Fig. 12 sweeps multiples of it.
  int periodSlotFactor = 0;
  /// AVB baseline: class-A idle slope as a fraction of link bandwidth.
  double avbIdleSlopeFraction = 0.75;
  Engine engine = Engine::Smt;
  /// Seed for the Tabu/Portfolio engines.
  PortfolioOptions portfolio;
  /// After an incomplete engine returns feasible, run the SMT gap
  /// probe (bounded conflicts per solve) to certify feasibility and report
  /// the flowspan optimality gap in Schedule::info.  Intended for sampled
  /// subsets — the probe costs an SMT encode + O(log flowspan) solves.
  bool certify = false;
  std::int64_t certifyConflictBudget = 50000;
};

/// Full schedule result, including runtime metadata for the simulator.
struct MethodSchedule {
  Schedule schedule;
  Method method = Method::ETSN;
  double avbIdleSlopeFraction = 0.75;
};

/// Compute a schedule for the given method.  Throws ConfigError on invalid
/// input; returns schedule.info.feasible == false if the SMT instance is
/// UNSAT, or the budget was exhausted and the greedy fallback gave up.
MethodSchedule buildSchedule(const net::Topology& topo,
                             const std::vector<net::StreamSpec>& specs,
                             const ScheduleOptions& options);

}  // namespace etsn::sched
