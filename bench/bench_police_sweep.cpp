// Ingress-policing campaign: the containment companion to
// bench_fault_sweep's unpoliced babbler sweep.  On the §VI-B testbed
// setting the sole ECT source goes rogue at increasing intensity
// (decreasing emission interval); each cell runs with PSFP-style ingress
// policing OFF and ON (fail-silent blocking, 10 ms quiet period) for
// E-TSN, PERIOD and AVB.  All cells share one sim seed so off/on rows are
// directly comparable.  The figure to look for: with policing ON the
// policer drop/block counters absorb the flood and TCT delivery recovers
// toward the clean row at every intensity; with policing OFF the
// shared-slot TCT aggregate degrades with the flood.  The on-rows do not
// fully reach clean because TCT streams sourced at the rogue's own device
// share its access link, which ingress policing (at the switch boundary)
// cannot protect — only the rest of the network.
#include <chrono>
#include <map>
#include <memory>

#include "harness.h"

namespace {

using namespace etsn;

double classRatio(const ExperimentResult& r, net::TrafficClass type) {
  std::int64_t sent = 0, delivered = 0;
  for (const StreamResult& s : r.streams) {
    if (s.type != type) continue;
    sent += s.messagesSent;
    delivered += s.messagesDelivered;
  }
  return sent > 0 ? static_cast<double>(delivered) / static_cast<double>(sent)
                  : 1.0;
}

std::int64_t totalPolicerDrops(const ExperimentResult& r) {
  std::int64_t n = 0;
  for (const StreamResult& s : r.streams) n += s.framesDroppedPolicer;
  return n;
}

std::int64_t totalBlockedIntervals(const ExperimentResult& r) {
  std::int64_t n = 0;
  for (const StreamResult& s : r.streams) n += s.blockedIntervals;
  return n;
}

void printCell(const char* label, const ExperimentResult& r) {
  if (!r.feasible) {
    std::printf("  %-22s INFEASIBLE (engine %s)\n", label,
                r.solve.engine.c_str());
    return;
  }
  std::printf("  %-22s ect=%.6f  tct=%.6f  tct_miss=%-5lld"
              "  policer(drop=%lld blocks=%lld)\n",
              label, classRatio(r, net::TrafficClass::EventTriggered),
              classRatio(r, net::TrafficClass::TimeTriggered),
              bench::totalTctMisses(r),
              static_cast<long long>(totalPolicerDrops(r)),
              static_cast<long long>(totalBlockedIntervals(r)));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const double load = 0.5;
  const sched::Method methods[] = {sched::Method::ETSN, sched::Method::PERIOD,
                                   sched::Method::AVB};

  // Every cell of one method shares the identical scheduling problem (same
  // topology, workload realization and options — only runtime fault and
  // policing knobs differ), so solve each method once up front and hand
  // the result to the cells via Experiment::presolved.  Without this the
  // sweep re-solved 3 SMT instances 6 times each, and solving dominated
  // the wall clock by ~7x over simulating.
  std::map<sched::Method, std::shared_ptr<const sched::MethodSchedule>>
      solved;
  for (const sched::Method m : methods) {
    const auto t0 = std::chrono::steady_clock::now();
    solved[m] = solveSchedule(bench::testbedExperiment(args, m, load));
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    std::printf("[solve %-6s %.2fs engine=%s]\n", sched::methodName(m), s,
                solved[m]->schedule.info.engine.c_str());
  }

  // interval 0 = clean baseline (no babbler).
  const std::vector<TimeNs> babbleIntervals =
      args.full ? std::vector<TimeNs>{0, microseconds(200), microseconds(50),
                                      microseconds(20), microseconds(10)}
                : std::vector<TimeNs>{0, microseconds(100), microseconds(10)};

  Campaign c;
  c.name = "police_sweep";
  for (const TimeNs interval : babbleIntervals) {
    for (const bool police : {false, true}) {
      for (const sched::Method m : methods) {
        char label[64];
        if (interval == 0) {
          std::snprintf(label, sizeof label, "clean/%s/%s",
                        police ? "on" : "off", sched::methodName(m));
        } else {
          std::snprintf(label, sizeof label, "bab%lldus/%s/%s",
                        static_cast<long long>(interval / microseconds(1)),
                        police ? "on" : "off", sched::methodName(m));
        }
        // Deliberately ignore the per-task seed: every cell runs the same
        // workload realization (args.seed) so off/on differ only in policing.
        c.add(label, [args, m, interval, police, load,
                      presolved = solved[m]](std::uint64_t) {
          Experiment ex = bench::testbedExperiment(args, m, load);
          ex.presolved = presolved;
          ex.simConfig.police.enabled = police;
          ex.simConfig.police.blockOnViolation = true;
          ex.simConfig.police.quietPeriod = milliseconds(10);
          if (interval > 0) {
            sim::BabblingSource b;  // the sole ECT source goes rogue mid-run
            b.ectIndex = 0;
            b.start = args.duration / 10;
            b.stop = args.duration;
            b.interval = interval;
            ex.simConfig.faults.babblers.push_back(b);
          }
          return ex;
        });
      }
    }
  }

  const CampaignResult r = bench::runBenchCampaign(std::move(c), args);

  bench::printHeader(
      "Police sweep: babbler containment with PSFP ingress policing");
  std::printf("(testbed setting, load %.0f%%, duration %llds, seed %llu,"
              " block+10ms quiet)\n",
              load * 100,
              static_cast<long long>(args.duration / seconds(1)),
              static_cast<unsigned long long>(args.seed));
  // One block per intensity: off rows then on rows for all methods.
  const std::size_t perIntensity = 2 * (sizeof methods / sizeof methods[0]);
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    if (i > 0 && i % perIntensity == 0) std::printf("\n");
    printCell(r.tasks[i].label.c_str(), r.tasks[i].result);
  }
  return 0;
}
