// The benchmark's three plants and the closed-loop churn client.
//
// A plant is a topology plus the spec sets a CNC deploys on it (one per
// scheduling instance), the engine it deploys them with, how long each
// deployed network is simulated, and the admission churn it absorbs
// afterwards.  Plants and their churn traces are built from a plant seed:
// the held-out run seed deploys the held-out plant set, every other run
// seed the default set, so the run seed otherwise only drives the ECT event
// times in the simulator (see NOTES.md, "Seeds").
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "net/stream.h"
#include "net/topology.h"
#include "sched/admission.h"
#include "sched/scheduler.h"

namespace etsn::perfbench {

/// One scheduling instance: the spec set one deploy solves.
struct Instance {
  std::string label;
  std::vector<net::StreamSpec> specs;
};

/// Share of the run's time budget each phase may fill with repetitions
/// (every phase runs at least once); set-up repeats for a twentieth of
/// it, at least 2 s.
struct PhaseShares {
  double plan = 0.3;
  double verify = 0.3;
  double operate = 0.3;
};

struct Plant {
  /// Seed of the plant's spec generators and of its churn trace.
  std::uint64_t seed = 0;
  net::Topology topo;
  std::vector<Instance> instances;
  /// Method, engine and N for every deploy; one portfolio worker.
  sched::ScheduleOptions options;
  /// Simulated time per deployed instance.
  TimeNs simHorizon = 0;
  /// Admission churn, absorbed by an engine that starts from
  /// `engineSpecs`, or from the first instance when that is empty.
  std::vector<net::StreamSpec> engineSpecs;
  int requests = 2000;
  std::vector<TimeNs> churnPeriods;
  int churnPayloadMin = 200;
  int churnPayloadMax = 800;
  PhaseShares shares;
  /// Whether deploy and simulation times are scaled by the host reference
  /// (reference.h); unscaled, they are each instance's fastest repetition.
  bool scaleDeployAndSimulation = true;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// The run seed that selects the held-out plant set.
inline constexpr std::uint64_t kHeldOutSeed = 1009;

/// Builds the named plant for a run seed: the held-out set for
/// kHeldOutSeed, the default set otherwise.  `shortRun` keeps the plant
/// but trims the instance set, simulated horizon and churn length
/// (determinism test).  Throws ConfigError on an unknown name.
Plant makePlant(const std::string& workload, std::uint64_t runSeed,
                bool shortRun);

/// Admission options a plant's engine runs with (one portfolio worker for
/// the initial solve and every rung-5 re-solve).
sched::AdmissionOptions admissionOptions(const Plant& plant);

/// Closed-loop churn client: bench_admission_churn's seeded request mix
/// (its makeTrace), drawn one request at a time, with each verdict fed back
/// before the next draw.  Per request a die picks: from a quarter of the
/// way in, 2% an infeasible greedy requester asking twice (a full re-solve
/// rejection, then the cache's answer); 20% a removal of a random live
/// stream once more than four are live; 12% a re-add of the last retired
/// stream; otherwise a fresh stream, which a quarter of the time (once six
/// are live) is a flapping device: add, remove, add, remove, whose repeat
/// pair lands on the first pair's cache keys.  The live set is not capped.
/// Closing the loop changes only what the client knows: a refused add never
/// becomes live, and a refused flapping add ends its flap.
class ChurnClient {
 public:
  explicit ChurnClient(const Plant& plant);

  bool done() const { return issued_ >= plant_.requests; }
  sched::AdmissionRequest next();
  /// Feed back the verdict on the request next() returned last.
  void observe(const sched::AdmissionRequest& req,
               const sched::AdmissionDecision& d);

 private:
  net::StreamSpec freshSpec();

  const Plant& plant_;
  Rng rng_;
  std::vector<net::NodeId> devices_;
  net::StreamSpec greedy_;  // asks for more than any path can carry
  net::StreamSpec flapping_;
  std::deque<sched::AdmissionRequest> queued_;  // rest of a pair or a flap
  int issued_ = 0;
  int fresh_ = 0;
  std::vector<std::string> live_;         // admitted churn streams
  std::vector<net::StreamSpec> retired_;  // flapped; re-addable
};

}  // namespace etsn::perfbench
