// Fault drill: a factory cell survives a cable failure.
//
// Three switches form a ring (the redundant backbone of a production
// cell), so every stream has an alternate path.  The drill:
//   1. schedule and run the cell with E-TSN; mid-run the SW1-SW3 trunk
//      cable fails (and stays dead) — frames crossing it are cut and the
//      CNC is notified;
//   2. the CNC repairs the schedule: streams over the dead trunk are
//      rerouted the long way around the ring, prudent reservations are
//      recomputed for the new ECT path, and every unaffected stream keeps
//      its slots bit-for-bit;
//   3. the repaired program runs on the degraded network — delivery is
//      back to 100% without the failed cable.
//
//   $ ./fault_drill
#include <cstdio>

#include "etsn/etsn.h"
#include "sched/repair.h"
#include "sched/validate.h"

namespace {

using namespace etsn;

void printSurvivability(const char* phase, const sim::Recorder& rec,
                        const std::vector<net::StreamSpec>& specs) {
  std::printf("%s\n", phase);
  std::printf("  %-10s %8s %10s %6s %8s %9s\n", "stream", "sent", "delivered",
              "lost", "inflight", "ratio");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::StreamRecord& r = rec.record(static_cast<std::int32_t>(i));
    std::printf("  %-10s %8lld %10lld %6lld %8lld %8.4f%%\n",
                specs[i].name.c_str(), static_cast<long long>(r.messagesSent),
                static_cast<long long>(r.messagesDelivered),
                static_cast<long long>(r.messagesLost),
                static_cast<long long>(r.messagesUnterminated),
                100.0 * r.deliveryRatio());
  }
}

}  // namespace

int main() {
  using namespace etsn;

  // The cell: a switch ring with two machines on SW1, one on SW2, one on
  // SW3.  Devices are 0..3, switches 4..6.
  net::Topology topo;
  const net::NodeId d1 = topo.addDevice("D1");
  const net::NodeId d2 = topo.addDevice("D2");
  const net::NodeId d3 = topo.addDevice("D3");
  const net::NodeId d4 = topo.addDevice("D4");
  const net::NodeId sw1 = topo.addSwitch("SW1");
  const net::NodeId sw2 = topo.addSwitch("SW2");
  const net::NodeId sw3 = topo.addSwitch("SW3");
  topo.connect(d1, sw1);
  topo.connect(d2, sw1);
  topo.connect(d3, sw2);
  topo.connect(d4, sw3);
  topo.connect(sw1, sw2);
  topo.connect(sw2, sw3);
  topo.connect(sw1, sw3);

  std::vector<net::StreamSpec> specs;
  {
    net::StreamSpec s;  // telemetry off the failed trunk (stays untouched
    s.name = "telemetry";  // unless the ECT reroute changes its books)
    s.src = d1;
    s.dst = d3;
    s.period = milliseconds(4);
    s.maxLatency = milliseconds(4);
    s.payloadBytes = 1000;
    s.share = true;
    specs.push_back(s);
  }
  {
    net::StreamSpec s;  // control loop over the SW1-SW3 trunk
    s.name = "control";
    s.src = d2;
    s.dst = d4;
    s.period = milliseconds(4);
    s.maxLatency = milliseconds(4);
    s.payloadBytes = 500;
    s.share = false;
    specs.push_back(s);
  }
  specs.push_back(workload::makeEct("estop", d1, d4, milliseconds(16), 200));

  sched::ScheduleOptions options;
  options.config.numProbabilistic = 4;
  const sched::MethodSchedule base = sched::buildSchedule(topo, specs, options);
  if (!base.schedule.info.feasible) {
    std::fprintf(stderr, "base schedule infeasible\n");
    return 1;
  }
  sched::validateOrThrow(topo, base.schedule);

  const net::LinkId trunk = topo.linkBetween(sw1, sw3);
  const TimeNs duration = seconds(2);
  const TimeNs failAt = duration / 2;

  // Phase 1: the cable dies mid-run and stays dead.
  {
    const sched::NetworkProgram program = sched::compileProgram(topo, base);
    sim::SimConfig cfg;
    cfg.duration = duration;
    cfg.seed = 7;
    sim::LinkOutage outage;
    outage.link = trunk;
    outage.downAt = failAt;
    outage.upAt = failAt;  // down for the rest of the run
    cfg.faults.outages.push_back(outage);
    cfg.onLinkDown = [&](net::LinkId l, TimeNs t) {
      std::printf("[%s] link %s -> %s DOWN — CNC notified\n",
                  formatTime(t).c_str(), topo.node(topo.link(l).from).name.c_str(),
                  topo.node(topo.link(l).to).name.c_str());
    };
    sim::Network network(topo, program, cfg);
    network.run();
    printSurvivability("phase 1: cable fails mid-run", network.recorder(),
                       specs);
  }

  // Phase 2: graceful degradation — repair around the dead trunk.
  const sched::LinkDownRepair repair =
      sched::repairLinkDown(topo, base.schedule, trunk);
  if (!repair.schedule.info.feasible) {
    std::fprintf(stderr, "repair infeasible\n");
    return 1;
  }
  sched::validateOrThrow(topo, repair.schedule);
  std::printf(
      "\nrepair: %zu spec(s) rerouted, %zu unreachable, %d stream(s) "
      "re-placed, %d untouched (engine %s%s)\n\n",
      repair.reroutedSpecs.size(), repair.droppedSpecs.size(),
      repair.repairedStreams, repair.untouchedStreams,
      repair.schedule.info.engine.c_str(),
      repair.schedule.info.degraded ? ", DEGRADED" : "");

  {
    sched::MethodSchedule repaired;
    repaired.method = base.method;
    repaired.schedule = repair.schedule;
    const sched::NetworkProgram program =
        sched::compileProgram(topo, repaired);
    sim::SimConfig cfg;
    cfg.duration = duration;
    cfg.seed = 7;
    sim::LinkOutage outage;  // the cable is still dead
    outage.link = trunk;
    outage.downAt = 0;
    outage.upAt = 0;
    cfg.faults.outages.push_back(outage);
    sim::Network network(topo, program, cfg);
    network.run();
    printSurvivability("phase 2: repaired schedule on the degraded network",
                       network.recorder(), specs);

    // The drill succeeds only with full recovery.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const sim::StreamRecord& r =
          network.recorder().record(static_cast<std::int32_t>(i));
      if (r.messagesLost > 0 || r.messagesSent == 0) {
        std::fprintf(stderr, "stream '%s' did not recover\n",
                     specs[i].name.c_str());
        return 1;
      }
    }
  }
  std::printf("\nfault drill passed: full delivery on the degraded network\n");
  return 0;
}
