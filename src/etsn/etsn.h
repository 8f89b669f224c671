// Public façade of the E-TSN library.
//
// One call runs the full pipeline the paper describes (Fig. 5): expand
// streams, solve the joint TCT+ECT schedule (E-TSN or a baseline),
// compile GCLs/talker tables, simulate the network, and report per-stream
// latency statistics.
//
// Quick start:
//
//   etsn::Experiment ex;
//   ex.topo  = etsn::net::makeTestbedTopology();
//   ex.specs = etsn::workload::generateTct(ex.topo, {...});
//   ex.specs.push_back(etsn::workload::makeEct("stop", 1, 3,
//                                              etsn::milliseconds(16), 1500));
//   auto result = etsn::runExperiment(ex);
//   std::cout << result.streams.back().latency.meanUs() << " us\n";
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/psfp.h"
#include "net/stream.h"
#include "net/topology.h"
#include "sched/program.h"
#include "sched/scheduler.h"
#include "sim/network.h"
#include "stats/latency.h"
#include "workload/iec60802.h"

namespace etsn {

struct Experiment {
  net::Topology topo;
  std::vector<net::StreamSpec> specs;
  sched::ScheduleOptions options;
  sim::SimConfig simConfig;
  /// Validate the schedule with the independent checker before running
  /// (throws InvariantError on any violation).
  bool validateSchedule = true;
  /// Reuse an already-solved schedule instead of calling buildSchedule.
  /// Sweeps that vary only runtime knobs (fault plans, policing, sim seed)
  /// over one scheduling problem would otherwise re-solve the identical
  /// SMT instance per cell — the dominant cost of e.g. the police sweep.
  /// The caller guarantees it was built from this experiment's topo, specs
  /// and options; runExperiment cross-checks the cheap invariants (method,
  /// spec count and names) and throws ConfigError on mismatch.  Shared
  /// ownership so campaign cells can hold one solve concurrently.
  std::shared_ptr<const sched::MethodSchedule> presolved;
};

/// Solve an experiment's schedule once for reuse via Experiment::presolved.
/// Equivalent to the solve runExperiment performs internally (including
/// the validateSchedule check), without running the simulation.
std::shared_ptr<const sched::MethodSchedule> solveSchedule(
    const Experiment& ex);

/// One stream's simulator record (sim/recorder.h: message and frame
/// books, survivability, policing and FRER counters, latency samples)
/// plus the spec's identity and a latency summary.  Fault-free runs leave
/// every loss counter at zero.
struct StreamResult : sim::StreamRecord {
  std::string name;
  net::TrafficClass type = net::TrafficClass::TimeTriggered;
  stats::Summary latency;  // over `latencies`
};

/// Per-node sync quality when the faithful gPTP stack ran (sim/gptp.h).
struct GptpNodeResult : sim::GptpNodeStats {
  std::string node;  // topology node name
};

/// Network-wide gPTP summary: the stack's counters (sim/gptp.h, including
/// the closed frame books) plus the worst node.  `enabled` is false (and
/// everything zero) unless Experiment::simConfig.gptp.enabled.
struct GptpResult : sim::GptpStats {
  bool enabled = false;
  std::uint64_t grandmaster = 0;  // identity most nodes follow at run end
  TimeNs maxOffsetError = 0;       // worst emergent per-node offset
  TimeNs maxHoldoverExcursion = 0;
  TimeNs maxReelectionTimeNs = 0;
  /// Nodes whose observed worst offset (steady-state or post-failover
  /// holdover excursion) exceeded the schedule's syncErrorMargin — the
  /// margin was an act of faith the measured network did not honor.
  int syncMarginViolations = 0;
  std::vector<GptpNodeResult> nodes;  // aligned with topology node ids
};

struct ExperimentResult {
  bool feasible = false;
  sched::SolveInfo solve;
  sched::Method method = sched::Method::ETSN;
  std::vector<StreamResult> streams;  // aligned with Experiment::specs
  GptpResult gptp;

  const StreamResult& byName(const std::string& name) const;
};

/// Run the full schedule→simulate pipeline.  If the schedule is
/// infeasible, `feasible` is false and `streams` is empty.
ExperimentResult runExperiment(const Experiment& ex);

}  // namespace etsn
