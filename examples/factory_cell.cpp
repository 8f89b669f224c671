// Factory-cell scenario on the paper's simulation topology (Fig. 13):
// four switches in a line, twelve devices, forty periodic streams, and
// several event-triggered alarms from different cells — the §VI-C3
// multiple-ECT setting, compared across all three methods.
//
//   $ ./factory_cell
#include <cstdio>

#include "etsn/etsn.h"

int main() {
  using namespace etsn;

  std::printf("Factory cell: 4 switches, 12 devices, 40 TCT streams, "
              "3 alarm streams\n");
  std::printf("%-8s %-18s %10s %10s %10s %8s\n", "method", "alarm",
              "avg(us)", "worst(us)", "jitter(us)", "misses");

  for (const auto method :
       {sched::Method::ETSN, sched::Method::PERIOD, sched::Method::AVB}) {
    Experiment ex;
    ex.topo = net::makeSimulationTopology();
    workload::TctWorkload tct;
    tct.numStreams = 40;
    tct.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
    tct.networkLoad = 0.5;
    tct.seed = 99;
    ex.specs = workload::generateTct(ex.topo, tct);

    // Alarms from three different cells, crossing different switch spans.
    ex.specs.push_back(
        workload::makeEct("cell1-estop", 0, 11, milliseconds(10), 1500));
    ex.specs.push_back(
        workload::makeEct("cell2-light-curtain", 4, 2, milliseconds(20), 600));
    ex.specs.push_back(
        workload::makeEct("cell4-overtemp", 10, 1, milliseconds(20), 300));

    ex.options.method = method;
    ex.options.config.numProbabilistic = 8;
    // The 40-stream instance is large; the greedy engine places it in
    // milliseconds and its schedules pass the same validator.  Switch to
    // engine = Engine::Smt to reproduce with the complete SMT engine.
    ex.options.engine = method != sched::Method::PERIOD
                            ? sched::Engine::Greedy
                            : sched::Engine::Smt;
    ex.simConfig.duration = seconds(20);
    ex.simConfig.seed = 99;

    const ExperimentResult r = runExperiment(ex);
    if (!r.feasible) {
      std::printf("%-8s schedule infeasible (engine=%s)\n",
                  sched::methodName(method), r.solve.engine.c_str());
      continue;
    }
    for (const StreamResult& s : r.streams) {
      if (s.type != net::TrafficClass::EventTriggered) continue;
      std::printf("%-8s %-18s %10.1f %10.1f %10.1f %8lld\n",
                  sched::methodName(method), s.name.c_str(),
                  s.latency.meanUs(), s.latency.maxUs(), s.latency.jitterUs(),
                  static_cast<long long>(s.deadlineMisses));
    }
  }
  return 0;
}
