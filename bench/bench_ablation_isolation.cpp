// Ablation D — queue isolation strategies (the flow-vs-frame isolation
// trade-off of Craciunas et al. [8], implemented as
// SchedulerConfig::Isolation).
//
// With None, same-queue streams interleave inside egress FIFOs and head-
// of-line blocking snowballs into unbounded backlog; FifoOrder removes
// most of it but arrival ties can still flip the FIFO; Presence (frame
// isolation, the default) keeps the FIFO single-stream; Flow (stream
// isolation) additionally makes Alg. 1's reservation accounting exact
// under ECT displacement.
#include "harness.h"

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);

  printHeader("Ablation: queue isolation strategy (testbed, 75% load, "
              "E-TSN)");
  std::printf("%-10s %10s %12s %12s %12s %10s\n", "mode", "solve(s)",
              "ect avg(us)", "ect wc(us)", "tct misses", "messages");

  struct Mode {
    const char* name;
    sched::SchedulerConfig::Isolation iso;
  } modes[] = {
      {"None", sched::SchedulerConfig::Isolation::None},
      {"FifoOrder", sched::SchedulerConfig::Isolation::FifoOrder},
      {"Presence", sched::SchedulerConfig::Isolation::Presence},
      {"Flow", sched::SchedulerConfig::Isolation::Flow},
  };
  for (const Mode& m : modes) {
    Experiment ex = testbedExperiment(args, sched::Method::ETSN, 0.75);
    ex.options.config.isolation = m.iso;
    const ExperimentResult r = runExperiment(ex);
    if (!r.feasible) {
      std::printf("%-10s INFEASIBLE (%.1fs)\n", m.name,
                  r.solve.solveSeconds);
      continue;
    }
    long long misses = 0, delivered = 0;
    for (const StreamResult& s : r.streams) {
      if (s.type != net::TrafficClass::TimeTriggered) continue;
      misses += s.deadlineMisses;
      delivered += s.messagesDelivered;
    }
    const auto& e = r.byName("ect").latency;
    std::printf("%-10s %10.1f %12.1f %12.1f %12lld %10lld\n", m.name,
                r.solve.solveSeconds, e.meanUs(), e.maxUs(), misses,
                delivered);
  }
  std::printf("\nExpected: None → persistent TCT misses (head-of-line "
              "backlog); FifoOrder → a\nsmall residue from arrival ties; "
              "Presence/Flow → zero at the paper's event\nrate, with Flow "
              "also exact under displacement-heavy workloads.\n");
  return 0;
}
