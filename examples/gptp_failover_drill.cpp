// Grandmaster-failover drill: the clock tree survives losing its root.
//
// The redundant dual-spine cell runs the faithful 802.1AS gPTP stack
// with two grandmaster candidates: A1 (primary) and B1 (runner-up).
// Every node syncs to A1 through the elected spanning tree; PSFP gates
// at every ingress switch are judged against that emergent local time.
// Halfway through the run A1's gPTP stack fail-stops:
//   1. the plant coasts on holdover — each clock free-runs on its last
//      correction while announce timeouts count down;
//   2. BMCA times the dead master out and re-elects B1; sync resumes
//      through the new tree and the servo pulls every clock back in;
//   3. with drift and margin sized to each other, the excursion stays
//      inside the schedule's syncErrorMargin and the drill ends with
//      zero TCT deadline misses and zero PSFP false blocks.
//
// The exit code asserts all of it (run under ctest as a smoke test).
//
//   $ ./gptp_failover_drill
#include <cstdio>
#include <cstdlib>

#include "etsn/etsn.h"
#include "sim/gptp.h"

int main() {
  using namespace etsn;

  // Dual-spine cell: T=0, L=1, A1=2, A2=3, B1=4, B2=5, devices 6..9.
  Experiment ex;
  ex.topo = net::makeRedundantTopology(/*spineLength=*/2,
                                       /*devicesPerSwitch=*/1);
  const net::NodeId gmPrimary = 2;   // A1
  const net::NodeId gmRunnerUp = 4;  // B1

  net::StreamSpec crit;  // protected control loop T -> L
  crit.name = "crit";
  crit.src = 0;
  crit.dst = 1;
  crit.period = milliseconds(4);
  crit.maxLatency = milliseconds(4);
  crit.payloadBytes = 1000;
  crit.redundancy = 2;
  ex.specs.push_back(crit);
  ex.specs.push_back(workload::makeEct("stop", 0, 1, milliseconds(16), 1000));

  // 2 ppm oscillators against a 2 us margin: a ~500 ms holdover window
  // can slide a clock ~1 us, so the drill must close with margin intact.
  ex.options.config.syncErrorMargin = microseconds(2);
  ex.simConfig.police.enabled = true;
  ex.simConfig.duration = seconds(2);
  ex.simConfig.clockDriftPpbMax = 2'000;
  ex.simConfig.gptp.enabled = true;
  ex.simConfig.gptp.candidates = {{gmPrimary, /*priority1=*/100,
                                   /*clockClass=*/6},
                                  {gmRunnerUp, /*priority1=*/110,
                                   /*clockClass=*/6}};

  sim::GptpKill kill;  // fail-stop the elected grandmaster at t/2
  kill.node = gmPrimary;
  kill.at = ex.simConfig.duration / 2;
  ex.simConfig.faults.gptpKills.push_back(kill);

  const ExperimentResult r = runExperiment(ex);
  if (!r.feasible) {
    std::printf("schedule infeasible\n");
    return 1;
  }

  const GptpResult& g = r.gptp;
  std::printf("grandmaster followed at run end : identity %llu (B1 is %llu)\n",
              static_cast<unsigned long long>(g.grandmaster),
              static_cast<unsigned long long>(
                  sim::Gptp::identityOf(gmRunnerUp)));
  std::printf("worst offset error              : %.3f us\n",
              g.maxOffsetError / 1000.0);
  std::printf("worst holdover excursion        : %.3f us (margin %.3f us)\n",
              g.maxHoldoverExcursion / 1000.0,
              ex.options.config.syncErrorMargin / 1000.0);
  std::printf("worst re-election gap           : %.1f ms (%d re-elections)\n",
              g.maxReelectionTimeNs / 1e6, g.reelections);
  std::printf("gPTP frames                     : sent=%lld delivered=%lld"
              " dropped=%lld in-flight=%lld\n",
              static_cast<long long>(g.framesSent),
              static_cast<long long>(g.framesDelivered),
              static_cast<long long>(g.framesDropped),
              static_cast<long long>(g.framesInFlight));

  long long misses = 0;
  long long falseBlocks = 0;
  for (const StreamResult& s : r.streams) {
    misses += s.deadlineMisses;
    falseBlocks += s.framesDroppedPolicer;
  }
  std::printf("TCT deadline misses             : %lld\n", misses);
  std::printf("PSFP false blocks               : %lld\n", falseBlocks);

  // The drill's contract: failover happened, stayed inside the margin,
  // cost the data plane nothing, and the frame books closed.
  bool ok = true;
  auto require = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::printf("FAILED: %s\n", what);
      ok = false;
    }
  };
  require(g.grandmaster == sim::Gptp::identityOf(gmRunnerUp),
          "runner-up B1 was not elected grandmaster");
  require(g.reelections > 0, "no re-election episode completed");
  require(g.maxHoldoverExcursion > 0, "no holdover excursion measured");
  require(g.maxHoldoverExcursion <= ex.options.config.syncErrorMargin,
          "holdover excursion exceeded the schedule's syncErrorMargin");
  require(g.framesSent ==
              g.framesDelivered + g.framesDropped + g.framesInFlight,
          "gPTP frame books did not close");
  require(misses == 0, "TCT deadline misses during failover");
  require(falseBlocks == 0, "PSFP false blocks during failover");
  if (ok) std::printf("drill PASSED\n");
  return ok ? 0 : 1;
}
