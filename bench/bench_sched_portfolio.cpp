// Portfolio scheduler scaling: feasibility rate, schedule quality
// (flowspan, TCT slot slack), and solve time for the heuristic
// engine families (greedy / tabu / portfolio) across the scaled
// line/ring/tree/mesh plant topologies, against the exact SMT engine where
// it is still tractable.
//
// The flagship instance — a 50-switch mesh carrying 5000 streams — is what
// "crack 100x bigger problems" (ROADMAP) means concretely: the SMT
// formulation cannot encode it in memory, while the portfolio schedules
// it in seconds and the validator replays the full constraint
// oracle over the result.
//
// Output: the human-readable table plus machine-readable BENCH_sched.json
// (every row, the flagship timing, and the validator/certification
// verdicts) for trend tracking across commits.
#include <string>
#include <vector>

#include "harness.h"
#include "sched/quality.h"
#include "sched/validate.h"

namespace {

struct Row {
  std::string topo;
  int switches = 0;
  std::size_t specs = 0;
  std::size_t streams = 0;  // expanded
  std::string engine;
  bool feasible = false;
  bool valid = false;
  double solveSeconds = 0;
  double flowspanUs = 0;
  double slackMinUs = 0;
  double gapPercent = -1;  // <0 = not probed
  std::string winner;
};

Row runOne(const etsn::net::Topology& topo, const char* topoName,
           int switches, const std::vector<etsn::net::StreamSpec>& specs,
           const std::string& engine, const etsn::bench::Args& args,
           bool certify, int* validatorRejections) {
  using namespace etsn;
  Row row;
  row.topo = topoName;
  row.switches = switches;
  row.specs = specs.size();
  row.engine = engine;

  sched::ScheduleOptions opt;
  opt.engine = sched::engineFromString(engine);
  opt.config.numProbabilistic = 4;
  opt.portfolio.seed = args.seed;
  opt.certify = certify;
  // A benchmark-sized budget: enough for the base solve to certify
  // feasibility and, on the sampled instance, for the flowspan binary
  // search to complete; a partial search keeps its proven lower bound.
  opt.certifyConflictBudget = 40000;
  const auto ms = sched::buildSchedule(topo, specs, opt);
  const auto& info = ms.schedule.info;
  row.streams = ms.schedule.streams.size();
  row.feasible = info.feasible;
  row.solveSeconds = info.solveSeconds;
  row.winner = info.portfolioWinner;
  // A partial (budget-tripped) search still certifies its lower bound, so
  // the gap is reported whenever feasibility itself was certified.
  row.gapPercent = certify && info.certified ? info.gapPercent : -1;
  if (row.feasible) {
    const auto violations = sched::validate(topo, ms.schedule);
    row.valid = violations.empty();
    if (!row.valid) ++*validatorRejections;
    const sched::QualityMetrics q = sched::measureQuality(topo, ms.schedule);
    row.flowspanUs = static_cast<double>(q.flowspan) / 1000.0;
    row.slackMinUs = static_cast<double>(q.tctSlackMin) / 1000.0;
  }
  return row;
}

void printRow(const Row& r) {
  std::printf("%-6s %4d %6zu %7zu %-10s %-7s %9.3f %10.1f %9.1f",
              r.topo.c_str(), r.switches, r.specs, r.streams,
              r.engine.c_str(),
              r.feasible ? (r.valid ? "ok" : "INVALID") : "infeas",
              r.solveSeconds, r.flowspanUs, r.slackMinUs);
  if (r.gapPercent >= 0) std::printf("  gap=%.1f%%", r.gapPercent);
  if (!r.winner.empty()) std::printf("  winner=%s", r.winner.c_str());
  std::printf("\n");
}

void jsonRow(std::ofstream& out, const Row& r, bool last) {
  out << "    {\"topology\": \"" << r.topo << "\", \"switches\": "
      << r.switches << ", \"specs\": " << r.specs << ", \"streams\": "
      << r.streams << ", \"engine\": \"" << r.engine
      << "\", \"feasible\": " << (r.feasible ? "true" : "false")
      << ", \"valid\": " << (r.valid ? "true" : "false")
      << ", \"solve_seconds\": " << r.solveSeconds
      << ", \"flowspan_us\": " << r.flowspanUs
      << ", \"tct_slack_min_us\": " << r.slackMinUs
      << ", \"gap_percent\": " << r.gapPercent << ", \"winner\": \""
      << r.winner << "\"}" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);

  printHeader("Portfolio scheduler scaling (line/ring/tree/mesh)");
  std::printf("%-6s %4s %6s %7s %-10s %-7s %9s %10s %9s\n", "topo",
              "sw", "specs", "streams", "engine", "status", "solve(s)",
              "flowspanUs", "slackUs");

  int validatorRejections = 0;
  std::vector<Row> rows;

  // Grid: every shape at a mid scale, every engine; SMT joins only at the
  // small scale (it is the point of the heuristics that it cannot follow).
  const std::vector<std::string> engines = {"greedy", "tabu", "portfolio"};
  struct Scale {
    int switches;
    int devicesPerSwitch;
    int tct;
    bool smt;
    bool certify;
  };
  const std::vector<Scale> scales =
      args.full ? std::vector<Scale>{{4, 2, 24, true, true},
                                     {16, 2, 200, false, false},
                                     {50, 2, 1000, false, false}}
                : std::vector<Scale>{{4, 2, 24, true, true},
                                     {16, 2, 200, false, false}};
  for (const Scale& sc : scales) {
    for (const workload::TopologyKind kind :
         {workload::TopologyKind::Line, workload::TopologyKind::Ring,
          workload::TopologyKind::Tree, workload::TopologyKind::Mesh}) {
      const net::Topology topo = workload::makeScaledTopology(
          kind, sc.switches, sc.devicesPerSwitch);
      workload::TctWorkload w;
      w.numStreams = sc.tct;
      w.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
      w.networkLoad = 0.4;
      // Half the TCT streams share slots with ECT.  Full sharing roughly
      // doubles the bottleneck load through prudent reservation (0.4
      // nominal -> ~0.87 effective on the 50-switch mesh), pushing
      // instances from easy to fragmentation-bound.
      w.numSharing = sc.tct / 2;
      w.seed = args.seed;
      auto specs = workload::generateTct(topo, w);
      workload::EctWorkload e;
      e.numStreams = 2;
      e.seed = args.seed + 1;
      for (auto& s : workload::generateEct(topo, e)) {
        specs.push_back(std::move(s));
      }
      std::vector<std::string> list = engines;
      if (sc.smt) list.insert(list.begin(), "smt");
      for (const std::string& engine : list) {
        // The gap probe is sampled: one small-scale portfolio row (the
        // line plant) is certified — SMT-optimization cost (~40 s) grows
        // far too fast for the whole grid.
        rows.push_back(runOne(topo, workload::topologyKindName(kind),
                              sc.switches, specs, engine, args,
                              sc.certify && engine == "portfolio" &&
                                  kind == workload::TopologyKind::Line,
                              &validatorRejections));
        printRow(rows.back());
      }
    }
  }

  // Flagship: the acceptance instance — a 50-switch mesh, 5000 streams,
  // portfolio engine, validated end to end.
  std::printf("\nflagship: 50-switch mesh, 5000 streams, portfolio\n");
  const net::Topology mesh =
      workload::makeScaledTopology(workload::TopologyKind::Mesh, 50, 2);
  workload::TctWorkload w;
  w.numStreams = 4996;
  w.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
  w.networkLoad = 0.4;
  w.numSharing = w.numStreams / 2;
  w.seed = args.seed;
  auto specs = workload::generateTct(mesh, w);
  workload::EctWorkload e;
  e.numStreams = 4;
  e.seed = args.seed + 1;
  for (auto& s : workload::generateEct(mesh, e)) {
    specs.push_back(std::move(s));
  }
  const Row flagship = runOne(mesh, "mesh", 50, specs, "portfolio", args,
                              /*certify=*/false, &validatorRejections);
  printRow(flagship);

  std::printf("\nvalidator rejections: %d\n", validatorRejections);

  const std::string path =
      args.jsonPath.empty() ? "BENCH_sched.json" : args.jsonPath;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"sched_portfolio\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    jsonRow(out, rows[i], i + 1 == rows.size());
  }
  out << "  ],\n  \"flagship\": [\n";
  jsonRow(out, flagship, true);
  out << "  ],\n  \"validator_rejections\": " << validatorRejections
      << "\n}\n";
  if (out) {
    std::printf("[sched_portfolio: machine-readable rows -> %s]\n",
                path.c_str());
  }
  return (validatorRejections == 0 && flagship.feasible && flagship.valid)
             ? 0
             : 1;
}
