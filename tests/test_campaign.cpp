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
  ex.options.engine = heuristic ? sched::Engine::Greedy : sched::Engine::Smt;
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
                (heuristic ? "/greedy" : "/smt"),
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
        EXPECT_EQ(a.result.streams[s].latencies, b.result.streams[s].latencies)
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
  EXPECT_GT(r.tasks[0].result.byName("ect").messagesDelivered,
            r.tasks[1].result.byName("ect").messagesDelivered);
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

// The campaign JSON's keys, their order and the field each one reads are
// part of the export format (sweep scripts and the committed BENCH_*.json
// parse them).  Every exported field gets a distinct value here, with
// samples and timing on, an admission-engine task and a gPTP task, so a
// key that moves, is renamed or reads another counter changes the string.
TEST(Campaign, JsonExportIsPinnedByteForByte) {
  CampaignResult r;
  r.name = "golden";
  r.seed = 11;
  r.threads = 3;
  r.wallSeconds = 1.5;

  CampaignTaskResult admission;
  admission.label = "admission/cell";
  admission.index = 0;
  admission.taskSeed = 12;
  admission.wallSeconds = 0.25;
  admission.result.feasible = true;
  admission.result.solve.engine = "admission";
  admission.result.solve.degraded = true;
  admission.result.solve.solveSeconds = 0.125;
  admission.result.solve.admission.admits = 13;
  admission.result.solve.admission.rejects = 14;
  StreamResult ctl;
  ctl.name = "ctl";
  ctl.type = net::TrafficClass::TimeTriggered;
  ctl.latency = {3, 20.5, 16, 26, 4.25};
  ctl.latencies = {16, 20, 26};
  ctl.messagesDelivered = 3;
  ctl.deadlineMisses = 17;
  ctl.deadline = 18;
  ctl.messagesSent = 12;  // delivery ratio 3 / 12
  ctl.messagesLost = 19;
  ctl.messagesUnterminated = 21;
  ctl.framesDroppedLoss = 22;
  ctl.framesDroppedOutage = 23;
  ctl.framesDroppedPolicer = 24;
  ctl.framesDroppedOverflow = 25;
  ctl.policerViolations = 26;
  ctl.blockedIntervals = 27;
  ctl.framesReplicated = 28;
  ctl.duplicatesEliminated = 29;
  ctl.recoveredByRedundancy = 30;
  ctl.frerLatentAlarms = 31;
  admission.result.streams.push_back(ctl);
  r.tasks.push_back(admission);

  CampaignTaskResult gptp;
  gptp.label = "gptp/cell";
  gptp.index = 1;
  gptp.taskSeed = 32;
  gptp.wallSeconds = 0.75;
  gptp.result.feasible = true;
  gptp.result.solve.engine = "portfolio";
  gptp.result.solve.solveSeconds = 0.0625;
  GptpResult& g = gptp.result.gptp;
  g.enabled = true;
  g.grandmaster = 33;
  g.maxOffsetError = 34;
  g.maxHoldoverExcursion = 35;
  g.maxReelectionTimeNs = 36;
  g.reelections = 37;
  g.framesSent = 38;
  g.framesDelivered = 39;
  g.framesDropped = 40;
  g.framesInFlight = 41;
  g.syncMarginViolations = 42;
  StreamResult stop;
  stop.name = "stop";
  stop.type = net::TrafficClass::EventTriggered;
  stop.latency = {2, 43.5, 43, 44, 0.5};
  stop.latencies = {43, 44};
  stop.messagesDelivered = 2;
  stop.messagesSent = 2;
  gptp.result.streams.push_back(stop);
  StreamResult ctl2;  // merged into the "ctl" aggregate
  ctl2.name = "ctl";
  ctl2.latency = {1, 45, 45, 45, 0};
  ctl2.latencies = {45};
  ctl2.messagesDelivered = 1;
  ctl2.messagesSent = 1;
  gptp.result.streams.push_back(ctl2);
  r.tasks.push_back(gptp);

  const std::string expected =
      R"({"campaign":"golden","seed":11,"tasks":2,"feasible":2,"threads":3,)"
      R"("wall_seconds":1.5,)"
      R"("results":[{"label":"admission/cell","index":0,"task_seed":12,)"
      R"("feasible":1,"engine":"admission","degraded":1,)"
      R"("admission_admits":13,"admission_rejects":14,)"
      R"("wall_seconds":0.25,)"
      R"("solve_seconds":0.125,)"
      R"("streams":[{"name":"ctl","class":"tct","delivered":3,)"
      R"("deadline_misses":17,"deadline_ns":18,"sent":12,"lost":19,)"
      R"("unterminated":21,"dropped_loss":22,"dropped_outage":23,)"
      R"("dropped_policer":24,"dropped_overflow":25,)"
      R"("policer_violations":26,"blocked_intervals":27,)"
      R"("frames_replicated":28,"duplicates_eliminated":29,)"
      R"("recovered_by_redundancy":30,"frer_latent_alarms":31,)"
      R"("delivery_ratio":0.25,)"
      R"("latency":{"count":3,"mean_ns":20.5,"min_ns":16,"max_ns":26,)"
      R"("stddev_ns":4.25},"samples_ns":[16,20,26]}]},)"
      R"({"label":"gptp/cell","index":1,"task_seed":32,"feasible":1,)"
      R"("engine":"portfolio","degraded":0,)"
      R"("gptp_grandmaster":33,"gptp_max_offset_ns":34,)"
      R"("gptp_max_holdover_ns":35,"gptp_max_reelection_ns":36,)"
      R"("gptp_reelections":37,"gptp_frames_sent":38,)"
      R"("gptp_frames_delivered":39,"gptp_frames_dropped":40,)"
      R"("gptp_frames_in_flight":41,"sync_margin_violations":42,)"
      R"("wall_seconds":0.75,"solve_seconds":0.0625,)"
      R"("streams":[{"name":"stop","class":"ect","delivered":2,)"
      R"("deadline_misses":0,"deadline_ns":0,"sent":2,"lost":0,)"
      R"("unterminated":0,"dropped_loss":0,"dropped_outage":0,)"
      R"("dropped_policer":0,"dropped_overflow":0,"policer_violations":0,)"
      R"("blocked_intervals":0,"frames_replicated":0,)"
      R"("duplicates_eliminated":0,"recovered_by_redundancy":0,)"
      R"("frer_latent_alarms":0,"delivery_ratio":1,"latency":{"count":2,)"
      R"("mean_ns":43.5,"min_ns":43,"max_ns":44,"stddev_ns":0.5},)"
      R"("samples_ns":[43,44]},)"
      R"({"name":"ctl","class":"tct","delivered":1,"deadline_misses":0,)"
      R"("deadline_ns":0,"sent":1,"lost":0,"unterminated":0,)"
      R"("dropped_loss":0,"dropped_outage":0,"dropped_policer":0,)"
      R"("dropped_overflow":0,"policer_violations":0,"blocked_intervals":0,)"
      R"("frames_replicated":0,"duplicates_eliminated":0,)"
      R"("recovered_by_redundancy":0,"frer_latent_alarms":0,)"
      R"("delivery_ratio":1,"latency":{"count":1,"mean_ns":45,"min_ns":45,)"
      R"("max_ns":45,"stddev_ns":0},"samples_ns":[45]}]}],)"
      R"("aggregates":{"ctl":{"count":4,"mean_ns":26.625,"min_ns":16,)"
      R"("max_ns":45,"stddev_ns":11.229147340737853},"stop":{"count":2,)"
      R"("mean_ns":43.5,"min_ns":43,"max_ns":44,"stddev_ns":0.5}}})";
  EXPECT_EQ(toJson(r, /*includeSamples=*/true, /*includeTiming=*/true),
            expected);
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
