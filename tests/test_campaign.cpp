// Campaign runner: determinism across thread counts (the bit-identical
// guarantee), task seeding, aggregation and JSON export.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "common/rng.h"
#include "etsn/campaign.h"

namespace etsn {
namespace {

Experiment smallExperiment(std::uint64_t seed, double load, bool heuristic) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  workload::TctWorkload w;
  w.numStreams = 4;
  w.networkLoad = load;
  w.seed = seed;
  ex.specs = workload::generateTct(ex.topo, w);
  ex.specs.push_back(workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
  ex.options.engine =
      heuristic ? sched::Engine::Heuristic : sched::Engine::Smt;
  ex.options.config.numProbabilistic = 3;
  ex.simConfig.duration = milliseconds(500);
  ex.simConfig.seed = seed;
  ex.validateSchedule = false;
  return ex;
}

Campaign smallCampaign(int threads) {
  Campaign c;
  c.name = "unit";
  c.seed = 99;
  c.threads = threads;
  for (const double load : {0.3, 0.5}) {
    for (const bool heuristic : {false, true}) {
      c.add("load" + std::to_string(static_cast<int>(load * 100)) +
                (heuristic ? "/ff" : "/smt"),
            [load, heuristic](std::uint64_t taskSeed) {
              return smallExperiment(taskSeed, load, heuristic);
            });
    }
  }
  return c;
}

// The tentpole guarantee: 1, 2 and 8 worker threads produce bit-identical
// per-stream latency samples and aggregate summaries.
TEST(Campaign, BitIdenticalAcrossThreadCounts) {
  const CampaignResult r1 = runCampaign(smallCampaign(1));
  const CampaignResult r2 = runCampaign(smallCampaign(2));
  const CampaignResult r8 = runCampaign(smallCampaign(8));

  ASSERT_EQ(r1.tasks.size(), r2.tasks.size());
  ASSERT_EQ(r1.tasks.size(), r8.tasks.size());
  for (std::size_t i = 0; i < r1.tasks.size(); ++i) {
    for (const CampaignResult* other : {&r2, &r8}) {
      const CampaignTaskResult& a = r1.tasks[i];
      const CampaignTaskResult& b = other->tasks[i];
      EXPECT_EQ(a.label, b.label);
      EXPECT_EQ(a.taskSeed, b.taskSeed);
      ASSERT_EQ(a.result.feasible, b.result.feasible) << a.label;
      ASSERT_EQ(a.result.streams.size(), b.result.streams.size());
      for (std::size_t s = 0; s < a.result.streams.size(); ++s) {
        EXPECT_EQ(a.result.streams[s].samples, b.result.streams[s].samples)
            << a.label << " stream " << a.result.streams[s].name;
      }
    }
  }

  // Aggregate summaries fold in task order, so they match exactly — and
  // the sample-bearing JSON dumps (timing excluded) are byte-equal.
  for (const std::string name : {"ect", "tct1"}) {
    const stats::Summary s1 = r1.aggregate(name);
    const stats::Summary s8 = r8.aggregate(name);
    EXPECT_EQ(s1.count, s8.count);
    EXPECT_EQ(s1.minNs, s8.minNs);
    EXPECT_EQ(s1.maxNs, s8.maxNs);
    EXPECT_EQ(s1.meanNs, s8.meanNs);    // bitwise: same fold order
    EXPECT_EQ(s1.stddevNs, s8.stddevNs);
  }
  EXPECT_EQ(toJson(r1, true), toJson(r2, true));
  EXPECT_EQ(toJson(r1, true), toJson(r8, true));
}

TEST(Campaign, TaskSeedsAreDerivedAndDistinct) {
  const CampaignResult r = runCampaign(smallCampaign(2));
  std::set<std::uint64_t> seeds;
  for (const CampaignTaskResult& t : r.tasks) {
    EXPECT_EQ(t.taskSeed, Rng::deriveSeed(99, t.index));
    seeds.insert(t.taskSeed);
  }
  EXPECT_EQ(seeds.size(), r.tasks.size());  // no collisions in the grid
}

TEST(Campaign, ResultsKeepTaskOrderRegardlessOfCompletionOrder) {
  // Task 0 is the slowest (longest sim); with 4 threads it finishes last,
  // yet must stay in slot 0.
  Campaign c;
  c.threads = 4;
  c.add("slow", [](std::uint64_t s) {
    Experiment ex = smallExperiment(s, 0.3, true);
    ex.simConfig.duration = seconds(2);
    return ex;
  });
  for (int i = 0; i < 6; ++i) {
    c.add("fast" + std::to_string(i), [](std::uint64_t s) {
      return smallExperiment(s, 0.3, true);
    });
  }
  const CampaignResult r = runCampaign(c);
  ASSERT_EQ(r.tasks.size(), 7u);
  EXPECT_EQ(r.tasks[0].label, "slow");
  EXPECT_EQ(r.tasks[0].index, 0u);
  EXPECT_GT(r.tasks[0].result.byName("ect").delivered,
            r.tasks[1].result.byName("ect").delivered);
}

TEST(Campaign, AggregateMatchesSummarizeOverConcatenatedSamples) {
  const CampaignResult r = runCampaign(smallCampaign(2));
  const stats::Summary viaMerge = r.aggregate("ect");
  const stats::Summary viaSamples = stats::summarize(r.samples("ect"));
  EXPECT_EQ(viaMerge.count, viaSamples.count);
  EXPECT_EQ(viaMerge.minNs, viaSamples.minNs);
  EXPECT_EQ(viaMerge.maxNs, viaSamples.maxNs);
  EXPECT_NEAR(viaMerge.meanNs, viaSamples.meanNs,
              1e-9 * std::abs(viaSamples.meanNs));
  EXPECT_NEAR(viaMerge.stddevNs, viaSamples.stddevNs,
              1e-6 * (viaSamples.stddevNs + 1));
}

TEST(Campaign, JsonExportHasHeaderTasksAndAggregates) {
  const CampaignResult r = runCampaign(smallCampaign(1));
  const std::string js = toJson(r);
  EXPECT_NE(js.find("\"campaign\":\"unit\""), std::string::npos);
  EXPECT_NE(js.find("\"seed\":99"), std::string::npos);
  EXPECT_NE(js.find("\"label\":\"load30/smt\""), std::string::npos);
  EXPECT_NE(js.find("\"aggregates\":{"), std::string::npos);
  EXPECT_NE(js.find("\"ect\":{"), std::string::npos);
  // Timing is opt-in, so the default dump is run-to-run stable.
  EXPECT_EQ(js.find("wall_seconds"), std::string::npos);
  EXPECT_NE(toJson(r, false, true).find("wall_seconds"), std::string::npos);
  // Samples are opt-in.
  EXPECT_EQ(js.find("samples_ns"), std::string::npos);
  EXPECT_NE(toJson(r, true).find("samples_ns"), std::string::npos);
}

TEST(Campaign, TaskExceptionPropagates) {
  Campaign c;
  c.threads = 2;
  for (int i = 0; i < 3; ++i) {
    c.add("ok" + std::to_string(i), [](std::uint64_t s) {
      return smallExperiment(s, 0.3, true);
    });
  }
  c.add("bad", [](std::uint64_t) -> Experiment {
    throw std::runtime_error("factory failed");
  });
  EXPECT_THROW(runCampaign(c), std::runtime_error);
}

TEST(Campaign, MissingFactoryIsRejected) {
  Campaign c;
  c.tasks.push_back({"null", nullptr});
  EXPECT_THROW(runCampaign(c), InvariantError);
}

}  // namespace
}  // namespace etsn
