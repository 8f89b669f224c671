// Parameterized property sweeps: for randomized workloads across seeds,
// loads, methods, and engines, every produced schedule must pass the
// independent validator, and every simulated run must deliver all TCT
// messages within their deadlines (the core soundness claim).
//
// The grids run through the campaign runner (etsn/campaign.h), which fans
// the independent experiments across a work-stealing pool — that is what
// lets the sweep cover 4 seeds x 3 loads x both engines (plus a baseline-
// method grid) in one test budget.  Every experiment runs with
// validateSchedule=true, so each feasible schedule is revalidated by
// sched::validate inside the pipeline and any violation fails the test
// via the campaign's exception propagation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "etsn/campaign.h"
#include "etsn/etsn.h"
#include "sched/validate.h"

namespace etsn {
namespace {

struct SweepPoint {
  std::uint64_t seed;
  double load;
  sched::Method method;
  bool heuristic;
};

Experiment makeExperiment(const SweepPoint& p) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  workload::TctWorkload w;
  w.numStreams = 6;  // small instances keep the sweep fast
  w.networkLoad = p.load;
  w.seed = p.seed;
  ex.specs = workload::generateTct(ex.topo, w);
  ex.specs.push_back(workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
  ex.options.method = p.method;
  ex.options.engine = p.heuristic ? sched::Engine::Greedy : sched::Engine::Smt;
  ex.options.config.numProbabilistic = 4;
  ex.simConfig.duration = seconds(2);
  ex.simConfig.seed = p.seed;
  // Revalidate every feasible schedule with sched::validate in-pipeline;
  // violations throw and surface through runCampaign.
  ex.validateSchedule = true;
  return ex;
}

std::string pointName(const SweepPoint& p) {
  std::string name = "seed" + std::to_string(p.seed);
  name += "_load" + std::to_string(static_cast<int>(p.load * 100));
  name += "_";
  name += sched::methodName(p.method);
  name += p.heuristic ? "_heur" : "_smt";
  return name;
}

void checkSweepResults(const std::vector<SweepPoint>& points,
                       const CampaignResult& r) {
  ASSERT_EQ(points.size(), r.tasks.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const ExperimentResult& res = r.tasks[i].result;
    if (!res.feasible) {
      // Infeasibility is acceptable for the incomplete heuristic engine;
      // the complete SMT engine must schedule these moderate loads.
      EXPECT_TRUE(p.heuristic)
          << "SMT engine failed a moderate instance: " << r.tasks[i].label;
      continue;
    }
    for (const StreamResult& s : res.streams) {
      EXPECT_GT(s.messagesDelivered, 0) << r.tasks[i].label << " " << s.name;
      // The SMT engine's schedules must hold at runtime; greedy enforces
      // isolation one-sidedly (see Placement::fifoRequired).
      if (s.type == net::TrafficClass::TimeTriggered && !p.heuristic) {
        EXPECT_EQ(s.deadlineMisses, 0)
            << r.tasks[i].label << " " << s.name;
      }
    }
  }
}

CampaignResult runSweep(const std::vector<SweepPoint>& points) {
  Campaign c;
  c.name = "property_sweep";
  c.threads = 4;
  for (const SweepPoint& p : points) {
    c.add(pointName(p), [p](std::uint64_t) { return makeExperiment(p); });
  }
  return runCampaign(c);
}

// E-TSN across the full seed x load x engine grid.
TEST(ScheduleSweep, EtsnGridValidatesAndTctHolds) {
  std::vector<SweepPoint> points;
  for (const std::uint64_t seed : {1u, 5u, 17u, 23u}) {
    for (const double load : {0.25, 0.45, 0.6}) {
      for (const bool heuristic : {false, true}) {
        points.push_back({seed, load, sched::Method::ETSN, heuristic});
      }
    }
  }
  checkSweepResults(points, runSweep(points));
}

// The PERIOD and AVB baselines must satisfy the same soundness claim.
TEST(ScheduleSweep, BaselineMethodsValidateAndTctHolds) {
  std::vector<SweepPoint> points;
  for (const auto method : {sched::Method::PERIOD, sched::Method::AVB}) {
    for (const std::uint64_t seed : {1u, 23u}) {
      for (const double load : {0.25, 0.6}) {
        for (const bool heuristic : {false, true}) {
          points.push_back({seed, load, method, heuristic});
        }
      }
    }
  }
  checkSweepResults(points, runSweep(points));
}

// Sweep the probabilistic stream count: guarantees must hold for any N.
class NprobSweep : public ::testing::TestWithParam<int> {};

TEST_P(NprobSweep, EctDeliveredWithinDeadline) {
  const int n = GetParam();
  Experiment ex = makeExperiment({9, 0.5, sched::Method::ETSN, false});
  ex.validateSchedule = false;  // exercised by the grids above
  ex.options.config.numProbabilistic = n;
  const ExperimentResult r = runExperiment(ex);
  ASSERT_TRUE(r.feasible) << "N=" << n;
  const StreamResult& e = r.byName("ect");
  EXPECT_GT(e.messagesDelivered, 50);
  EXPECT_EQ(e.deadlineMisses, 0) << "N=" << n;
}

INSTANTIATE_TEST_SUITE_P(Ns, NprobSweep, ::testing::Values(2, 3, 5, 8, 13));

}  // namespace
}  // namespace etsn
