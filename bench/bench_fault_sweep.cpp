// Fault-drill campaign: message delivery ratio under injected faults — the
// robustness companion to the latency figures.  Two sweeps on the §VI-B
// testbed setting, each cell running E-TSN, PERIOD and AVB on the same
// workload:
//   * independent per-frame loss on every link at increasing rates
//     (plus one Gilbert-Elliott burst-loss cell per rate in --full);
//   * an outage of the SW1-SW2 trunk cable of increasing length, starting
//     mid-run;
//   * a babbling ECT source of increasing intensity (decreasing emission
//     interval) with NO ingress policing — the baseline bench_police_sweep
//     contrasts against.
// Reported per cell: delivery ratio of the ECT stream and of the TCT
// aggregate, TCT deadline misses, and loss attribution.
#include "harness.h"

namespace {

using namespace etsn;

/// Aggregate message delivery ratio over all streams of one class.
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

std::int64_t totalDropped(const ExperimentResult& r, bool outage) {
  std::int64_t n = 0;
  for (const StreamResult& s : r.streams) {
    n += outage ? s.framesDroppedOutage : s.framesDroppedLoss;
  }
  return n;
}

/// Sidecar metadata per campaign cell (parallel to the task order), so the
/// machine-readable rows don't have to re-parse the display labels.
struct RowMeta {
  const char* sweep;  // "loss" | "burst" | "outage" | "babble"
  double param;       // rate, outage ms, or babble us
  const char* method;
};

void printCell(const char* label, const ExperimentResult& r) {
  if (!r.feasible) {
    std::printf("  %-20s INFEASIBLE (engine %s)\n", label,
                r.solve.engine.c_str());
    return;
  }
  std::printf("  %-20s ect=%.6f  tct=%.6f  tct_miss=%-5lld"
              "  dropped(loss=%lld outage=%lld)\n",
              label, classRatio(r, net::TrafficClass::EventTriggered),
              classRatio(r, net::TrafficClass::TimeTriggered),
              bench::totalTctMisses(r),
              static_cast<long long>(totalDropped(r, false)),
              static_cast<long long>(totalDropped(r, true)));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const double load = 0.5;
  const sched::Method methods[] = {sched::Method::ETSN, sched::Method::PERIOD,
                                   sched::Method::AVB};

  const std::vector<double> lossRates =
      args.full ? std::vector<double>{0, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2}
                : std::vector<double>{0, 1e-3, 1e-2};
  const std::vector<TimeNs> outageLens =
      args.full ? std::vector<TimeNs>{0, milliseconds(5), milliseconds(20),
                                      milliseconds(50), milliseconds(200)}
                : std::vector<TimeNs>{0, milliseconds(20), milliseconds(100)};

  Campaign c;
  c.name = "fault_sweep";
  std::vector<RowMeta> meta;
  for (const double rate : lossRates) {
    for (const sched::Method m : methods) {
      char label[64];
      std::snprintf(label, sizeof label, "loss%.0e/%s", rate,
                    sched::methodName(m));
      c.add(label, [args, m, rate, load](std::uint64_t taskSeed) {
        Experiment ex = bench::testbedExperiment(args, m, load);
        ex.simConfig.seed = taskSeed;
        if (rate > 0) {
          sim::LossModel loss;  // iid loss on every link
          loss.dropProbability = rate;
          ex.simConfig.faults.losses.push_back(loss);
        }
        return ex;
      });
      meta.push_back({"loss", rate, sched::methodName(m)});
      if (args.full && rate > 0) {
        std::snprintf(label, sizeof label, "burst%.0e/%s", rate,
                      sched::methodName(m));
        c.add(label, [args, m, rate, load](std::uint64_t taskSeed) {
          Experiment ex = bench::testbedExperiment(args, m, load);
          ex.simConfig.seed = taskSeed;
          // Same long-run loss rate concentrated into bursts: bad state
          // loses everything, visited with stationary probability `rate`.
          sim::LossModel loss;
          loss.pGoodToBad = rate / (1 - rate) * 0.2;
          loss.pBadToGood = 0.2;
          loss.lossBad = 1.0;
          ex.simConfig.faults.losses.push_back(loss);
          return ex;
        });
        meta.push_back({"burst", rate, sched::methodName(m)});
      }
    }
  }
  for (const TimeNs len : outageLens) {
    for (const sched::Method m : methods) {
      char label[64];
      std::snprintf(label, sizeof label, "outage%lldms/%s",
                    static_cast<long long>(len / milliseconds(1)),
                    sched::methodName(m));
      c.add(label, [args, m, len, load](std::uint64_t taskSeed) {
        Experiment ex = bench::testbedExperiment(args, m, load);
        ex.simConfig.seed = taskSeed;
        if (len > 0) {
          // The testbed's single trunk: SW1 (node 4) -> SW2 (node 5).
          sim::LinkOutage o;
          o.link = ex.topo.linkBetween(4, 5);
          o.downAt = args.duration / 2;
          o.upAt = o.downAt + len;
          ex.simConfig.faults.outages.push_back(o);
        }
        return ex;
      });
      meta.push_back({"outage",
                      static_cast<double>(len / milliseconds(1)),
                      sched::methodName(m)});
    }
  }

  // Babbler intensity: the declared-rate "ect" source additionally fires
  // every `interval`; smaller interval = harder violation of its T.
  const std::vector<TimeNs> babbleIntervals =
      args.full ? std::vector<TimeNs>{microseconds(200), microseconds(50),
                                      microseconds(20), microseconds(10)}
                : std::vector<TimeNs>{microseconds(100), microseconds(10)};
  for (const TimeNs interval : babbleIntervals) {
    for (const sched::Method m : methods) {
      char label[64];
      std::snprintf(label, sizeof label, "babble%lldus/%s",
                    static_cast<long long>(interval / microseconds(1)),
                    sched::methodName(m));
      c.add(label, [args, m, interval, load](std::uint64_t taskSeed) {
        Experiment ex = bench::testbedExperiment(args, m, load);
        ex.simConfig.seed = taskSeed;
        sim::BabblingSource b;  // the sole ECT source goes rogue mid-run
        b.ectIndex = 0;
        b.start = args.duration / 10;
        b.stop = args.duration;
        b.interval = interval;
        ex.simConfig.faults.babblers.push_back(b);
        return ex;
      });
      meta.push_back({"babble",
                      static_cast<double>(interval / microseconds(1)),
                      sched::methodName(m)});
    }
  }

  // The harness would dump the raw campaign to --json; this bench instead
  // emits per-cell rows in the shared {"bench", "rows"} schema below.
  bench::Args campaignArgs = args;
  campaignArgs.jsonPath.clear();
  const CampaignResult r = bench::runBenchCampaign(std::move(c), campaignArgs);

  bench::printHeader(
      "Fault sweep: delivery ratio under loss, outages and babblers");
  std::printf("(testbed setting, load %.0f%%, duration %llds, seed %llu)\n",
              load * 100,
              static_cast<long long>(args.duration / seconds(1)),
              static_cast<unsigned long long>(args.seed));
  // Blank line between the loss, outage and babble sweeps.
  const char* sections[] = {"outage", "babble"};
  std::size_t next = 0;
  for (const CampaignTaskResult& t : r.tasks) {
    if (next < 2 && t.label.rfind(sections[next], 0) == 0) {
      std::printf("\n");
      ++next;
    }
    printCell(t.label.c_str(), t.result);
  }

  // Machine-readable rows (same top-level schema as bench_smt_scaling's
  // BENCH_sched.json: one "bench" tag, one flat "rows" array).
  const std::string path =
      args.jsonPath.empty() ? "BENCH_faults.json" : args.jsonPath;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fault_sweep\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    const ExperimentResult& res = r.tasks[i].result;
    const RowMeta& rm = meta[i];
    char row[320];
    std::snprintf(
        row, sizeof row,
        "    {\"sweep\": \"%s\", \"param\": %g, \"method\": \"%s\", "
        "\"feasible\": %s, \"ect\": %.6f, \"tct\": %.6f, "
        "\"tct_miss\": %lld, \"dropped_loss\": %lld, "
        "\"dropped_outage\": %lld}",
        rm.sweep, rm.param, rm.method, res.feasible ? "true" : "false",
        classRatio(res, net::TrafficClass::EventTriggered),
        classRatio(res, net::TrafficClass::TimeTriggered),
        static_cast<long long>(bench::totalTctMisses(res)),
        static_cast<long long>(totalDropped(res, false)),
        static_cast<long long>(totalDropped(res, true)));
    out << row << (i + 1 == r.tasks.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  if (out) {
    std::printf("[fault_sweep: machine-readable rows -> %s]\n", path.c_str());
  } else {
    std::fprintf(stderr, "[fault_sweep: cannot write rows to %s]\n",
                 path.c_str());
  }
  return 0;
}
