// Fig. 14 — simulation topology (4 switches, 12 devices, 40 TCT streams):
// (a)(b)(c) ECT latency vs network load and message length, (d)(e)(f) the
// corresponding jitter, for E-TSN / PERIOD / AVB.
//
// The 40-stream SMT instances take tens of seconds each; --quick (default)
// runs the load sweep at {25, 75}% and lengths {1, 5} MTU, --full runs the
// paper's complete grid ({25, 50, 75}% and 1..5 MTU).  Both grids run as
// one campaign (--threads N fans the independent solves+simulations out);
// in quick mode each solve is conflict-bounded, and a cell whose SMT
// budget runs out is placed by the (validated) greedy fallback and
// labelled.
#include "harness.h"

namespace {

struct Cell {
  const char* section;  // printed group header
  double load;
  int mtus;
  etsn::sched::Method method;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);
  if (args.duration == seconds(10) && !args.full) args.duration = seconds(5);

  const sched::Method methods[] = {sched::Method::ETSN, sched::Method::PERIOD,
                                   sched::Method::AVB};
  const std::vector<double> loads =
      args.full ? std::vector<double>{0.25, 0.5, 0.75}
                : std::vector<double>{0.25, 0.75};
  const std::vector<int> lengths = args.full ? std::vector<int>{1, 2, 3, 4, 5}
                                             : std::vector<int>{5};

  std::vector<Cell> cells;
  for (const double load : loads) {
    for (const auto m : methods) cells.push_back({"load", load, 1, m});
  }
  for (const int mtus : lengths) {
    for (const auto m : methods) cells.push_back({"length", 0.5, mtus, m});
  }

  Campaign c;
  c.name = "fig14_sim_sweep";
  for (const Cell& cell : cells) {
    char label[64];
    std::snprintf(label, sizeof label, "%s/load%.0f/%dmtu/%s", cell.section,
                  cell.load * 100, cell.mtus, sched::methodName(cell.method));
    c.add(label, [args, cell](std::uint64_t) {
      Experiment ex =
          simulationExperiment(args, cell.method, cell.load, cell.mtus);
      if (!args.full) ex.options.config.conflictBudget = 60'000;
      return ex;
    });
  }
  const CampaignResult cr = runBenchCampaign(std::move(c), args);

  std::size_t task = 0;
  printHeader("Fig. 14(a)(d): ECT latency/jitter vs network load "
              "(1 MTU message)");
  for (const double load : loads) {
    std::printf("\n--- network load %.0f%% ---\n", load * 100);
    for (const auto method : methods) {
      const CampaignTaskResult& t = cr.tasks[task++];
      printEctRow(sched::methodName(method), t.result);
      if (t.result.solve.degraded) {
        std::printf("  (greedy engine; SMT over budget)\n");
      }
    }
  }

  printHeader("Fig. 14(b)(c)(e)(f): ECT latency/jitter vs message length "
              "(50% load)");
  for (const int mtus : lengths) {
    std::printf("\n--- message length %d MTU ---\n", mtus);
    for (const auto method : methods) {
      const CampaignTaskResult& t = cr.tasks[task++];
      printEctRow(sched::methodName(method), t.result);
      if (t.result.solve.degraded) {
        std::printf("  (greedy engine; SMT over budget)\n");
      }
    }
  }

  std::printf(
      "\nPaper reference: E-TSN's latency is flat in load and length; AVB\n"
      "degrades sharply with both; PERIOD is flat but several times\n"
      "higher than E-TSN (on average 83.8%%/83.1%% lower latency and\n"
      "94.3%%/97.0%% lower jitter for E-TSN vs PERIOD/AVB).\n");
  return 0;
}
