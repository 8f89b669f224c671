// Ablation C — scheduler engine scaling: schedule synthesis cost as the
// TCT stream count grows on the simulation topology, comparing the exact
// SMT engine with the greedy heuristic and the portfolio of incomplete
// engines (§VII-C's speed/completeness trade-off).
//
// Besides the table, emits machine-readable BENCH_sched.json (one row per
// size x engine) so the perf trajectory of scheduling is tracked across
// commits; bench_sched_portfolio appends the scaled-topology picture to
// the same schema.  --json PATH overrides the output path.
#include <chrono>

#include "harness.h"
#include "sched/validate.h"

namespace {

struct Row {
  int streams = 0;
  std::string engine;
  double solveSeconds = 0;
  long long conflicts = 0;
  long long decisions = 0;
  long long clauses = 0;
  long long intvars = 0;
  bool feasible = false;
  bool valid = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);

  printHeader("Ablation: scheduler scaling (simulation topology, 50% load)");
  std::printf("%-8s %-10s %10s %12s %12s %12s %10s %8s\n", "streams",
              "engine", "solve(s)", "conflicts", "decisions", "clauses",
              "intvars", "valid");

  const std::vector<int> sizes = args.full
                                     ? std::vector<int>{5, 10, 20, 30, 40}
                                     : std::vector<int>{5, 10, 20};
  const std::vector<std::string> engines = {"smt", "greedy", "portfolio"};
  std::vector<Row> rows;
  for (const int n : sizes) {
    for (const std::string& engine : engines) {
      net::Topology topo = net::makeSimulationTopology();
      workload::TctWorkload w;
      w.numStreams = n;
      w.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
      w.networkLoad = 0.5;
      w.seed = args.seed;
      auto specs = workload::generateTct(topo, w);
      specs.push_back(workload::makeEct("ect", 0, 11, milliseconds(10), 1500));
      sched::ScheduleOptions opt;
      opt.config.numProbabilistic = args.numProbabilistic;
      opt.engine = sched::engineFromString(engine);
      opt.portfolio.seed = args.seed;
      const auto ms = sched::buildSchedule(topo, specs, opt);
      Row row;
      row.streams = n;
      row.engine = ms.schedule.info.engine;
      row.solveSeconds = ms.schedule.info.solveSeconds;
      row.conflicts = ms.schedule.info.smtConflicts;
      row.decisions = ms.schedule.info.smtDecisions;
      row.clauses = ms.schedule.info.smtClauses;
      row.intvars = ms.schedule.info.smtIntVars;
      row.feasible = ms.schedule.info.feasible;
      row.valid = row.feasible && sched::validate(topo, ms.schedule).empty();
      rows.push_back(row);
      std::printf("%-8d %-10s %10.2f %12lld %12lld %12lld %10lld %8s\n", n,
                  row.engine.c_str(), row.solveSeconds, row.conflicts,
                  row.decisions, row.clauses, row.intvars,
                  row.feasible ? (row.valid ? "yes" : "NO!") : "infeas");
    }
  }

  const std::string path =
      args.jsonPath.empty() ? "BENCH_sched.json" : args.jsonPath;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"smt_scaling\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"streams\": " << r.streams << ", \"engine\": \""
        << r.engine << "\", \"solve_seconds\": " << r.solveSeconds
        << ", \"conflicts\": " << r.conflicts << ", \"decisions\": "
        << r.decisions << ", \"clauses\": "
        << r.clauses << ", \"intvars\": " << r.intvars
        << ", \"feasible\": " << (r.feasible ? "true" : "false")
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 == rows.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  if (out) {
    std::printf("[smt_scaling: machine-readable rows -> %s]\n", path.c_str());
  }
  return 0;
}
