// Grandmaster-failover drill (tier-1 robustness payoff).
//
// The FRER dual-spine cell runs the faithful 802.1AS stack with two
// grandmaster candidates (A1 primary, B1 runner-up) and ingress policing
// compiled from the schedule.  Mid-run a GptpKill fail-stops A1: every
// node coasts on holdover until BMCA times out the dead master and
// re-elects B1, and the drill measures what that window costs the data
// plane — TCT deadline misses and PSFP false blocks (conformant frames
// dropped because the judging switch's clock slid) — as a function of
// clock drift and the schedule's syncErrorMargin.
//
// The "coast" rows re-run each cell under the legacy sawtooth sync with
// an all-nodes SyncOutage approximating the failover window, the
// scripted stand-in this stack replaces: it has no election, no per-hop
// degradation and no surviving subtree, so it misprices the failover in
// both directions.
//
// Determinism is load-bearing: the full campaign runs at --threads 1, 2
// and 8 and the binary exits nonzero unless all three JSON dumps hash
// identically.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "net/topology.h"
#include "sched/scheduler.h"
#include "sim/faults.h"
#include "workload/iec60802.h"

using namespace etsn;

namespace {

constexpr net::NodeId kGmPrimary = 2;   // A1
constexpr net::NodeId kGmRunnerUp = 4;  // B1

struct Cell {
  const char* mode;  // "gptp" | "coast"
  double driftPpb;
  TimeNs margin;
};

Experiment cellExperiment(const bench::Args& args, TimeNs margin) {
  Experiment ex;
  ex.topo = net::makeRedundantTopology(/*spineLength=*/2,
                                       /*devicesPerSwitch=*/1);
  // Nodes: T=0, L=1, A1=2, A2=3, B1=4, B2=5, DA1.1=6, DA2.1=7, DB1.1=8,
  // DB2.1=9.
  net::StreamSpec crit;  // the protected control loop T -> L
  crit.name = "crit";
  crit.src = 0;
  crit.dst = 1;
  crit.period = milliseconds(4);
  crit.maxLatency = milliseconds(4);
  crit.payloadBytes = 1000;
  crit.redundancy = 2;
  ex.specs.push_back(crit);

  net::StreamSpec bgA;  // unprotected background riding spine A
  bgA.name = "bgA";
  bgA.src = 6;
  bgA.dst = 7;
  bgA.period = milliseconds(8);
  bgA.maxLatency = milliseconds(8);
  bgA.payloadBytes = 1000;
  ex.specs.push_back(bgA);

  net::StreamSpec bgB = bgA;  // and spine B
  bgB.name = "bgB";
  bgB.src = 8;
  bgB.dst = 9;
  ex.specs.push_back(bgB);

  net::StreamSpec stop =  // protected emergency-stop event stream
      workload::makeEct("stop", 0, 1, milliseconds(16), 1000);
  stop.redundancy = 2;
  ex.specs.push_back(stop);

  ex.options.method = sched::Method::ETSN;
  ex.options.config.numProbabilistic = 4;
  ex.options.config.syncErrorMargin = margin;
  // Gates judged at the ingress switch's clock.
  ex.simConfig.police.enabled = true;
  ex.simConfig.duration = args.duration;
  ex.simConfig.seed = args.seed;
  ex.simConfig.frer.latentErrorPeriod = milliseconds(100);
  return ex;
}

void addMode(Experiment& ex, const Cell& cell, const bench::Args& args) {
  ex.simConfig.clockDriftPpbMax = cell.driftPpb;
  if (!std::strcmp(cell.mode, "gptp")) {
    ex.simConfig.gptp.enabled = true;
    ex.simConfig.gptp.candidates = {{kGmPrimary, /*priority1=*/100,
                                     /*clockClass=*/6},
                                    {kGmRunnerUp, /*priority1=*/110,
                                     /*clockClass=*/6}};
    sim::GptpKill kill;  // fail-stop the elected grandmaster mid-run
    kill.node = kGmPrimary;
    kill.at = args.duration / 2;
    ex.simConfig.faults.gptpKills.push_back(kill);
  } else {
    // Scripted approximation: sawtooth sync with everyone coasting for
    // the announce-timeout-plus-reconvergence window the real stack
    // needs (3 missed announces + one more to adopt the runner-up).
    const sim::GptpConfig defaults;
    sim::SyncOutage so;
    so.start = args.duration / 2;
    so.stop = so.start + (defaults.announceTimeoutIntervals + 1) *
                             defaults.announceInterval;
    ex.simConfig.faults.syncOutages.push_back(so);
  }
}

std::int64_t psfpFalseBlocks(const ExperimentResult& r) {
  // Every stream here conforms to its reservation, so any policer drop
  // is a false block caused by sync error at the judging switch.
  std::int64_t drops = 0;
  for (const StreamResult& s : r.streams) drops += s.framesDroppedPolicer;
  return drops;
}

Campaign makeCampaign(const bench::Args& args,
                      const std::vector<Cell>& cells,
                      const std::map<TimeNs,
                                     std::shared_ptr<const sched::MethodSchedule>>&
                          solved) {
  Campaign c;
  c.name = "gptp_failover";
  for (const Cell& cell : cells) {
    char label[64];
    std::snprintf(label, sizeof label, "%s/drift-%gppm/margin-%lldus",
                  cell.mode, cell.driftPpb / 1000.0,
                  static_cast<long long>(cell.margin / microseconds(1)));
    // Ignore the per-task seed: all cells share one workload realization
    // so gptp/coast rows are directly comparable.
    c.add(label, [args, cell,
                  presolved = solved.at(cell.margin)](std::uint64_t) {
      Experiment ex = cellExperiment(args, cell.margin);
      ex.presolved = presolved;
      addMode(ex, cell, args);
      return ex;
    });
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);

  const std::vector<double> drifts =
      args.full ? std::vector<double>{2'000, 20'000, 50'000}
                : std::vector<double>{2'000, 20'000};
  const std::vector<TimeNs> margins =
      args.full ? std::vector<TimeNs>{microseconds(2), microseconds(10)}
                : std::vector<TimeNs>{microseconds(2)};

  // One scheduling problem per margin, shared across every mode/drift
  // cell via Experiment::presolved.
  std::map<TimeNs, std::shared_ptr<const sched::MethodSchedule>> solved;
  for (const TimeNs margin : margins) {
    solved[margin] = solveSchedule(cellExperiment(args, margin));
    std::printf("[solve margin=%lldus engine=%s]\n",
                static_cast<long long>(margin / microseconds(1)),
                solved[margin]->schedule.info.engine.c_str());
  }

  std::vector<Cell> cells;
  for (const TimeNs margin : margins) {
    for (const double drift : drifts) {
      cells.push_back({"gptp", drift, margin});
      cells.push_back({"coast", drift, margin});
    }
  }

  // Run the same grid at three pool sizes; the first is the report, the
  // others only feed the determinism gate.
  const bench::ThreadCountGate gate =
      bench::runAtThreadCounts(makeCampaign(args, cells, solved), args);
  const CampaignResult& r = gate.report;

  bench::printHeader(
      "gPTP grandmaster failover: kill A1, coast on holdover, re-elect B1");
  std::printf("(redundant cell, duration %llds, seed %llu, kill at t/2,"
              " policing on)\n",
              static_cast<long long>(args.duration / seconds(1)),
              static_cast<unsigned long long>(args.seed));
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    const ExperimentResult& res = r.tasks[i].result;
    if (!res.feasible) {
      std::printf("  %-28s INFEASIBLE\n", r.tasks[i].label.c_str());
      continue;
    }
    const GptpResult& g = res.gptp;
    std::printf("  %-28s tct_miss=%-4lld psfp_block=%-4lld crit=%.6f",
                r.tasks[i].label.c_str(),
                static_cast<long long>(bench::totalTctMisses(res)),
                static_cast<long long>(psfpFalseBlocks(res)),
                res.byName("crit").deliveryRatio());
    if (g.enabled) {
      std::printf("  gm=%llu offset=%.2fus holdover=%.2fus reelect=%.1fms"
                  " viol=%d",
                  static_cast<unsigned long long>(g.grandmaster),
                  g.maxOffsetError / 1000.0, g.maxHoldoverExcursion / 1000.0,
                  g.maxReelectionTimeNs / 1e6, g.syncMarginViolations);
    }
    std::printf("\n");
  }

  // Machine-readable rows (shared {"bench", "rows"} schema).
  const std::string path =
      args.jsonPath.empty() ? "BENCH_gptp.json" : args.jsonPath;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"gptp_failover\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    const ExperimentResult& res = r.tasks[i].result;
    const Cell& cell = cells[i];
    const GptpResult& g = res.gptp;
    char row[512];
    std::snprintf(
        row, sizeof row,
        "    {\"mode\": \"%s\", \"drift_ppb\": %g, \"margin_ns\": %lld, "
        "\"feasible\": %s, \"tct_miss\": %lld, \"psfp_false_blocks\": %lld, "
        "\"crit_delivery\": %.6f, \"grandmaster\": %llu, "
        "\"max_offset_ns\": %lld, \"max_holdover_ns\": %lld, "
        "\"max_reelection_ns\": %lld, \"reelections\": %d, "
        "\"sync_margin_violations\": %d}",
        cell.mode, cell.driftPpb, static_cast<long long>(cell.margin),
        res.feasible ? "true" : "false",
        static_cast<long long>(bench::totalTctMisses(res)),
        static_cast<long long>(psfpFalseBlocks(res)),
        res.feasible ? res.byName("crit").deliveryRatio() : 0.0,
        static_cast<unsigned long long>(g.grandmaster),
        static_cast<long long>(g.maxOffsetError),
        static_cast<long long>(g.maxHoldoverExcursion),
        static_cast<long long>(g.maxReelectionTimeNs), g.reelections,
        g.syncMarginViolations);
    out << row << (i + 1 == r.tasks.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  if (out) {
    std::printf("\n[gptp_failover: machine-readable rows -> %s]\n",
                path.c_str());
  }

  // Determinism gate: the whole point of a clock subsystem inside a
  // deterministic kernel is that thread count cannot change a byte.
  std::printf("[campaign hashes t1=%016llx t2=%016llx t8=%016llx]\n",
              static_cast<unsigned long long>(gate.hashes[0]),
              static_cast<unsigned long long>(gate.hashes[1]),
              static_cast<unsigned long long>(gate.hashes[2]));
  if (!gate.identical()) {
    std::fprintf(stderr,
                 "FAIL: campaign hash differs across thread counts\n");
    return 1;
  }
  std::printf("[determinism gate PASSED]\n");
  return 0;
}
