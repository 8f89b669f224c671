// Campaign runner scaling: the same ≥32-experiment grid (seeds × loads ×
// engines on the testbed topology) through the serial path (1 thread) and
// the work-stealing pool (--threads N, default hardware concurrency),
// verifying the two runs' JSON dumps — every per-stream sample summary and
// campaign aggregate — are bit-identical, and reporting the speedup.
//
// Output: per-task wall clocks for both runs, plus a machine-readable
// BENCH_campaign.json (threads -> tasks/sec and the speedup ratio) for
// trend tracking across commits.  On a 1-core host the pooled run is
// oversubscription, not parallelism, so the speedup is flagged as
// meaningless instead of being reported as a regression.
#include "harness.h"

#include <thread>

namespace {

etsn::Campaign makeGrid(const etsn::bench::Args& args) {
  using namespace etsn;
  Campaign c;
  c.name = "campaign_speedup";
  const std::vector<double> loads{0.25, 0.4, 0.55, 0.7};
  const int replicates = args.full ? 8 : 4;
  for (int rep = 0; rep < replicates; ++rep) {
    for (const double load : loads) {
      for (const bool greedy : {false, true}) {
        char label[64];
        std::snprintf(label, sizeof label, "rep%d/load%.0f/%s", rep,
                      load * 100, greedy ? "greedy" : "smt");
        c.add(label, [args, load, greedy](std::uint64_t taskSeed) {
          Experiment ex;
          ex.topo = net::makeTestbedTopology();
          workload::TctWorkload w;
          w.numStreams = 6;
          w.networkLoad = load;
          w.seed = taskSeed;  // replicate axis: campaign-derived seeds
          ex.specs = workload::generateTct(ex.topo, w);
          ex.specs.push_back(
              workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
          ex.options.engine =
              greedy ? sched::Engine::Greedy : sched::Engine::Smt;
          ex.options.config.numProbabilistic = 4;
          ex.simConfig.duration = args.duration;
          ex.simConfig.seed = taskSeed;
          ex.validateSchedule = false;
          return ex;
        });
      }
    }
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);
  if (args.duration == seconds(10)) args.duration = seconds(2);

  printHeader("Campaign scaling: serial vs work-stealing pool");
  std::printf("grid: %s\n", args.full ? "8 reps x 4 loads x 2 engines = 64"
                                      : "4 reps x 4 loads x 2 engines = 32");

  Campaign serial = makeGrid(args);
  serial.seed = args.seed;
  serial.threads = 1;
  const CampaignResult rs = runCampaign(serial);
  std::printf("serial   : %2d thread(s)  %6.2fs  (%d/%zu feasible)\n",
              rs.threads, rs.wallSeconds, rs.feasibleCount(),
              rs.tasks.size());

  Campaign pooled = makeGrid(args);
  pooled.seed = args.seed;
  pooled.threads = args.threads;  // 0 = hardware concurrency
  const CampaignResult rp = runCampaign(pooled);
  std::printf("pooled   : %2d thread(s)  %6.2fs  (%d/%zu feasible)\n",
              rp.threads, rp.wallSeconds, rp.feasibleCount(),
              rp.tasks.size());

  std::printf("\nper-task wall clock (serial | pooled):\n");
  for (std::size_t i = 0; i < rs.tasks.size(); ++i) {
    std::printf("  %-24s %7.3fs | %7.3fs\n", rs.tasks[i].label.c_str(),
                rs.tasks[i].wallSeconds, rp.tasks[i].wallSeconds);
  }

  const std::string js = toJson(rs, /*includeSamples=*/true);
  const std::string jp = toJson(rp, /*includeSamples=*/true);
  std::printf("determinism: per-sample JSON dumps (%zu bytes) %s\n",
              js.size(), js == jp ? "BIT-IDENTICAL" : "DIFFER [BUG]");

  const unsigned hw = std::thread::hardware_concurrency();
  const double speedup = rs.wallSeconds / rp.wallSeconds;
  const double serialRate =
      static_cast<double>(rs.tasks.size()) / rs.wallSeconds;
  const double pooledRate =
      static_cast<double>(rp.tasks.size()) / rp.wallSeconds;
  if (hw <= 1) {
    std::printf(
        "speedup  : NOT MEANINGFUL — hardware_concurrency() == %u, so %d\n"
        "           pool threads time-slice one core; any ratio here\n"
        "           measures oversubscription overhead, not scaling.\n"
        "           Re-run on a multi-core host for a real speedup figure.\n",
        hw, rp.threads);
  } else {
    std::printf("speedup  : %.2fx with %d threads (%u cores available)\n",
                speedup, rp.threads, hw);
  }
  std::printf("throughput: serial %.2f tasks/s, pooled %.2f tasks/s\n",
              serialRate, pooledRate);

  {
    std::ofstream bj("BENCH_campaign.json");
    bj << "{\n"
       << "  \"name\": \"" << rp.name << "\",\n"
       << "  \"tasks\": " << rp.tasks.size() << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"speedup_meaningful\": " << (hw > 1 ? "true" : "false")
       << ",\n"
       << "  \"runs\": [\n"
       << "    {\"threads\": " << rs.threads << ", \"wall_seconds\": "
       << rs.wallSeconds << ", \"tasks_per_sec\": " << serialRate << "},\n"
       << "    {\"threads\": " << rp.threads << ", \"wall_seconds\": "
       << rp.wallSeconds << ", \"tasks_per_sec\": " << pooledRate << "}\n"
       << "  ],\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"deterministic\": " << (js == jp ? "true" : "false") << "\n"
       << "}\n";
    if (bj) {
      std::printf("[campaign %s: machine-readable timing -> "
                  "BENCH_campaign.json]\n",
                  rp.name.c_str());
    }
  }

  const stats::Summary agg = rp.aggregate("ect");
  std::printf("aggregate ect: n=%lld avg=%.1fus worst=%.1fus jitter=%.1fus\n",
              static_cast<long long>(agg.count), agg.meanUs(), agg.maxUs(),
              agg.jitterUs());
  if (!args.jsonPath.empty()) {
    std::ofstream out(args.jsonPath);
    out << toJson(rp, false, /*includeTiming=*/true) << "\n";
    if (!out) {
      std::fprintf(stderr, "[campaign %s: cannot write JSON to %s]\n",
                   rp.name.c_str(), args.jsonPath.c_str());
    }
  }
  return js == jp ? 0 : 1;
}
