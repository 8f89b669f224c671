// Campaign API walk-through (see EXPERIMENTS.md "Campaign runner").
//
// Defines a replicate x load grid on the testbed topology, fans it across
// the work-stealing pool, and prints the campaign-level aggregate, a
// percentile from the pooled samples, and the deterministic JSON dump.
// Output is bit-identical for any thread count.
#include <cstdio>

#include "etsn/campaign.h"

int main() {
  using namespace etsn;

  Campaign c;
  c.name = "example_sweep";
  c.seed = 42;   // task i derives Rng::deriveSeed(42, i)
  c.threads = 0; // 0 = one worker per hardware thread

  // Grid: 4 replicate seeds x 2 network loads = 8 independent experiments.
  for (int rep = 0; rep < 4; ++rep) {
    for (const double load : {0.3, 0.6}) {
      char label[32];
      std::snprintf(label, sizeof label, "rep%d/load%.0f", rep, load * 100);
      c.add(label, [load](std::uint64_t taskSeed) {
        Experiment ex;
        ex.topo = net::makeTestbedTopology();
        workload::TctWorkload w;
        w.numStreams = 6;
        w.networkLoad = load;
        w.seed = taskSeed;  // the derived seed drives the replicate
        ex.specs = workload::generateTct(ex.topo, w);
        ex.specs.push_back(
            workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
        ex.options.engine = sched::Engine::Greedy;  // fast for the example
        ex.simConfig.duration = seconds(1);
        ex.simConfig.seed = taskSeed;
        return ex;
      });
    }
  }

  const CampaignResult r = runCampaign(c);

  std::printf("%d/%zu experiments feasible on %d thread(s) in %.2fs\n",
              r.feasibleCount(), r.tasks.size(), r.threads, r.wallSeconds);
  for (const CampaignTaskResult& t : r.tasks) {
    std::printf("  %-12s seed=%016llx ect avg %.1f us\n", t.label.c_str(),
                static_cast<unsigned long long>(t.taskSeed),
                t.result.feasible ? t.result.byName("ect").latency.meanUs()
                                  : 0.0);
  }

  const stats::Summary agg = r.aggregate("ect");  // merged shard summaries
  const std::vector<TimeNs> pooled = r.samples("ect");
  std::printf("campaign ect: n=%lld avg=%.1fus worst=%.1fus p99=%.1fus\n",
              static_cast<long long>(agg.count), agg.meanUs(), agg.maxUs(),
              static_cast<double>(stats::percentile(pooled, 99)) / 1000.0);

  std::printf("json bytes: %zu\n", toJson(r).size());
  return 0;
}
