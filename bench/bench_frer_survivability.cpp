// FRER survivability campaign: does 802.1CB seamless redundancy actually
// buy zero-loss delivery for critical traffic under path-killing faults?
//
// On the redundant-cell topology (two link-disjoint switch spines, talker
// and listener dual-homed) a protected TCT control stream and a protected
// ECT emergency stream cross from T to L with redundancy 2, next to
// unprotected background traffic on each spine.  The grid:
//   * FRER off (redundancy 1, primary path only) vs FRER on;
//   * fault axis: clean, spine-A trunk killed mid-run (and dead for the
//     rest of the run), Gilbert-Elliott burst loss on the spine-A trunk,
//     and an 802.1AS sync outage with drifting clocks;
//   * method: E-TSN vs PERIOD.
// The figure to look for: with FRER on, the kill and burst rows hold
// delivery ratio 1.0 and zero TCT deadline misses for the protected
// streams (the surviving member masks the fault seamlessly, duplicates
// are eliminated at the merge point); with FRER off the same faults
// translate directly into lost messages.
//
// Every cell's books close per stream:
//   emitted == delivered + dropped* + duplicates_eliminated + in_flight.
// The campaign runs at 1, 2 and 8 threads and the JSON hash printed at the
// end must be identical for all three (byte-determinism of the campaign
// layer).  The binary exits nonzero if either check fails.
#include <map>
#include <memory>
#include <utility>

#include "harness.h"

namespace {

using namespace etsn;

struct Cell {
  const char* fault;  // "clean" | "kill" | "burst" | "syncout"
  bool frer;
  const char* method;
};

Experiment cellExperiment(const bench::Args& args, sched::Method m,
                          bool frer) {
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
  crit.redundancy = frer ? 2 : 1;
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
  stop.redundancy = frer ? 2 : 1;
  ex.specs.push_back(stop);

  ex.options.method = m;
  ex.options.config.numProbabilistic = 4;
  ex.simConfig.duration = args.duration;
  ex.simConfig.seed = args.seed;
  ex.simConfig.frer.latentErrorPeriod = milliseconds(100);
  return ex;
}

void addFault(Experiment& ex, const char* fault, const bench::Args& args) {
  const net::LinkId trunkA = ex.topo.linkBetween(2, 3);  // A1 -> A2
  if (!std::strcmp(fault, "kill")) {
    sim::LinkOutage o;  // the primary member's spine dies for good
    o.link = trunkA;
    o.downAt = args.duration / 2;
    o.upAt = o.downAt;
    ex.simConfig.faults.outages.push_back(o);
  } else if (!std::strcmp(fault, "burst")) {
    sim::LossModel loss;  // bursty cable on the primary spine only
    loss.link = trunkA;
    loss.pGoodToBad = 0.02;
    loss.pBadToGood = 0.1;
    loss.lossBad = 1.0;
    ex.simConfig.faults.losses.push_back(loss);
  } else if (!std::strcmp(fault, "syncout")) {
    ex.simConfig.clockDriftPpbMax = 500;
    // The grandmaster-side spine switch (A1) loses sync for a quarter
    // run and coasts on drift — the realistic failure is one node's sync
    // path dying, not the whole plant's.  Everyone else stays corrected.
    sim::SyncOutage so;
    so.nodes = {2};  // A1
    so.start = args.duration / 4;
    so.stop = args.duration / 2;
    ex.simConfig.faults.syncOutages.push_back(so);
  }
}

void printCell(const char* label, const ExperimentResult& r) {
  if (!r.feasible) {
    std::printf("  %-22s INFEASIBLE (engine %s)\n", label,
                r.solve.engine.c_str());
    return;
  }
  const StreamResult& crit = r.byName("crit");
  const StreamResult& stop = r.byName("stop");
  std::printf("  %-22s crit=%.6f  stop=%.6f  tct_miss=%-4lld"
              "  repl=%-6lld elim=%-6lld recov=%-5lld alarms=%lld\n",
              label, crit.deliveryRatio(), stop.deliveryRatio(),
              bench::totalTctMisses(r),
              static_cast<long long>(crit.framesReplicated +
                                     stop.framesReplicated),
              static_cast<long long>(crit.duplicatesEliminated +
                                     stop.duplicatesEliminated),
              static_cast<long long>(crit.recoveredByRedundancy +
                                     stop.recoveredByRedundancy),
              static_cast<long long>(crit.frerLatentAlarms +
                                     stop.frerLatentAlarms));
}

/// Streams of `r` whose frame books do not close, each reported on stderr.
int openBooks(const char* label, const ExperimentResult& r) {
  int open = 0;
  for (const StreamResult& s : r.streams) {
    const std::int64_t accounted =
        s.framesDelivered + s.framesDroppedLoss + s.framesDroppedOutage +
        s.framesDroppedPolicer + s.framesDroppedOverflow +
        s.duplicatesEliminated + s.framesInFlight;
    if (s.framesEmitted != accounted) {
      std::fprintf(stderr, "FAIL: %s %s emitted %lld frames, accounted %lld\n",
                   label, s.name.c_str(),
                   static_cast<long long>(s.framesEmitted),
                   static_cast<long long>(accounted));
      ++open;
    }
  }
  return open;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const sched::Method methods[] = {sched::Method::ETSN, sched::Method::PERIOD};
  const std::vector<const char*> faults =
      args.full ? std::vector<const char*>{"clean", "kill", "burst", "syncout"}
                : std::vector<const char*>{"clean", "kill", "burst"};

  // Each (method, frer) pair shares one scheduling problem across all
  // fault cells — solve the four schedules once and hand them to the
  // cells via Experiment::presolved.
  std::map<std::pair<sched::Method, bool>,
           std::shared_ptr<const sched::MethodSchedule>>
      solved;
  for (const sched::Method m : methods) {
    for (const bool frer : {false, true}) {
      solved[{m, frer}] = solveSchedule(cellExperiment(args, m, frer));
      std::printf("[solve %-6s frer=%s engine=%s]\n", sched::methodName(m),
                  frer ? "on" : "off",
                  solved[{m, frer}]->schedule.info.engine.c_str());
    }
  }

  Campaign c;
  c.name = "frer_survivability";
  std::vector<Cell> cells;
  for (const char* fault : faults) {
    for (const bool frer : {false, true}) {
      for (const sched::Method m : methods) {
        char label[64];
        std::snprintf(label, sizeof label, "%s/frer-%s/%s", fault,
                      frer ? "on" : "off", sched::methodName(m));
        // Ignore the per-task seed: all cells share one workload
        // realization so off/on rows are directly comparable.
        c.add(label, [args, m, frer, fault,
                      presolved = solved[{m, frer}]](std::uint64_t) {
          Experiment ex = cellExperiment(args, m, frer);
          ex.presolved = presolved;
          addFault(ex, fault, args);
          return ex;
        });
        cells.push_back({fault, frer, sched::methodName(m)});
      }
    }
  }

  // Run the same grid at three pool sizes; the first is the report, the
  // others only feed the determinism gate.
  const bench::ThreadCountGate gate = bench::runAtThreadCounts(c, args);
  const CampaignResult& r = gate.report;

  bench::printHeader(
      "FRER survivability: seamless redundancy vs path-killing faults");
  std::printf("(redundant cell, duration %llds, seed %llu, k=2 members)\n",
              static_cast<long long>(args.duration / seconds(1)),
              static_cast<unsigned long long>(args.seed));
  const std::size_t perFault = 2 * (sizeof methods / sizeof methods[0]);
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    if (i > 0 && i % perFault == 0) std::printf("\n");
    printCell(r.tasks[i].label.c_str(), r.tasks[i].result);
  }

  // Machine-readable rows (shared {"bench", "rows"} schema).
  const std::string path =
      args.jsonPath.empty() ? "BENCH_frer.json" : args.jsonPath;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"frer_survivability\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    const ExperimentResult& res = r.tasks[i].result;
    const Cell& cell = cells[i];
    static const StreamResult kEmpty;  // infeasible cells have no streams
    const StreamResult& crit = res.feasible ? res.byName("crit") : kEmpty;
    const StreamResult& stop = res.feasible ? res.byName("stop") : kEmpty;
    char row[384];
    std::snprintf(
        row, sizeof row,
        "    {\"fault\": \"%s\", \"frer\": %s, \"method\": \"%s\", "
        "\"feasible\": %s, \"crit\": %.6f, \"stop\": %.6f, "
        "\"tct_miss\": %lld, \"replicated\": %lld, \"eliminated\": %lld, "
        "\"recovered\": %lld, \"latent_alarms\": %lld}",
        cell.fault, cell.frer ? "true" : "false", cell.method,
        res.feasible ? "true" : "false", crit.deliveryRatio(),
        stop.deliveryRatio(),
        static_cast<long long>(bench::totalTctMisses(res)),
        static_cast<long long>(crit.framesReplicated + stop.framesReplicated),
        static_cast<long long>(crit.duplicatesEliminated +
                               stop.duplicatesEliminated),
        static_cast<long long>(crit.recoveredByRedundancy +
                               stop.recoveredByRedundancy),
        static_cast<long long>(crit.frerLatentAlarms + stop.frerLatentAlarms));
    out << row << (i + 1 == r.tasks.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  if (out) {
    std::printf("\n[frer_survivability: machine-readable rows -> %s]\n",
                path.c_str());
  }

  int open = 0;
  for (const CampaignTaskResult& t : r.tasks) {
    open += openBooks(t.label.c_str(), t.result);
  }
  std::printf("[frame books: %s]\n", open == 0 ? "closed in every cell"
                                               : "OPEN");
  std::printf("[campaign hash %016llx]\n",
              static_cast<unsigned long long>(gate.hashes[0]));
  if (!gate.identical()) {
    std::fprintf(stderr,
                 "FAIL: campaign hash differs across thread counts "
                 "(t1=%016llx t2=%016llx t8=%016llx)\n",
                 static_cast<unsigned long long>(gate.hashes[0]),
                 static_cast<unsigned long long>(gate.hashes[1]),
                 static_cast<unsigned long long>(gate.hashes[2]));
    return 1;
  }
  return open == 0 ? 0 : 1;
}
