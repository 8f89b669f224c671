// Fig. 16 — multiple ECT streams: besides D1 -> D12 (s1e), three more ECT
// streams with random endpoints share the network at 50% load; latency and
// jitter per stream for the three methods (§VI-C3).
#include "harness.h"

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);
  if (!args.full) {
    // Four ECT streams expand to 4N probabilistic streams; N=2 keeps the
    // quick pass tractable (--full uses the default N=8).
    if (args.duration == seconds(10)) args.duration = seconds(5);
    args.numProbabilistic = 2;
  }

  printHeader("Fig. 16: four concurrent ECT streams (simulation topology, "
              "50% load)");

  auto build = [&](sched::Method method) {
    Experiment ex = simulationExperiment(args, method, 0.5);
    ex.specs.back().name = "s1e";  // the D1 -> D12 stream from Fig. 14
    // Three more ECT streams with pseudo-random endpoints (fixed for
    // reproducibility across methods).
    ex.specs.push_back(workload::makeEct("s2e", 3, 8, milliseconds(10), 1500));
    ex.specs.push_back(workload::makeEct("s3e", 6, 1, milliseconds(20), 1500));
    ex.specs.push_back(workload::makeEct("s4e", 9, 4, milliseconds(20), 1500));
    return ex;
  };

  for (const auto method :
       {sched::Method::ETSN, sched::Method::PERIOD, sched::Method::AVB}) {
    std::printf("\n--- %s ---\n", sched::methodName(method));
    Experiment ex = build(method);
    if (!args.full) {
      // Bound the quick pass; on budget exhaustion buildSchedule falls
      // back to the (validated) greedy engine, and the row says so.
      ex.options.config.conflictBudget = 60'000;
    }
    const ExperimentResult r = runExperiment(ex);
    if (r.solve.degraded) {
      std::printf("  (greedy engine; SMT over budget)\n");
    }
    if (!r.feasible) {
      std::printf("  schedule infeasible (solve %.1fs, engine %s)\n",
                  r.solve.solveSeconds, r.solve.engine.c_str());
      continue;
    }
    for (const char* name : {"s1e", "s2e", "s3e", "s4e"}) {
      const StreamResult& s = r.byName(name);
      std::printf("  %-4s n=%-5lld avg=%9.1fus worst=%9.1fus "
                  "jitter=%8.1fus\n",
                  name, static_cast<long long>(s.latency.count),
                  s.latency.meanUs(), s.latency.maxUs(),
                  s.latency.jitterUs());
    }
    std::printf("  TCT deadline misses: %lld\n", totalTctMisses(r));
  }

  std::printf("\nPaper reference: E-TSN reduces latency by 85.4%%/78.7%% and"
              " jitter by 97.0%%/93.7%% vs AVB/PERIOD, for all four "
              "streams.\n");
  return 0;
}
