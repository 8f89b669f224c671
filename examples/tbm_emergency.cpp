// Tunnel Boring Machine scenario (the paper's §I motivation, Fig. 1).
//
// The operator cabin connects to the TBM control network.  Periodic
// telemetry (cutterhead torque, pressure, temperature) flows as TCT; the
// operator's emergency-stop command and the cutterhead-hazard alarm are
// event-triggered critical traffic.  Digitalizing the TBM requires the
// network to deliver those signals deterministically — this example shows
// E-TSN doing so while the AVB fallback cannot give a comparable bound.
//
//   $ ./tbm_emergency
#include <cstdio>

#include "etsn/etsn.h"

namespace {

etsn::Experiment buildTbm(etsn::sched::Method method) {
  using namespace etsn;
  Experiment ex;
  // Operator cabin (D1), PLC (D2), cutterhead controller (D3), hydraulic
  // skid (D4) around two hardened switches.
  ex.topo = net::makeTestbedTopology();

  auto telemetry = [&](const std::string& name, net::NodeId src,
                       net::NodeId dst, TimeNs period, int bytes,
                       TimeNs release) {
    net::StreamSpec s;
    s.name = name;
    s.src = src;
    s.dst = dst;
    s.period = period;
    s.maxLatency = period;
    s.payloadBytes = bytes;
    s.releaseOffset = release;
    s.share = true;  // telemetry may yield its slots to emergencies
    return s;
  };

  // Cutterhead telemetry: 4 ms cycle, dense sensor block.
  ex.specs.push_back(telemetry("torque", 2, 1, milliseconds(4), 3000,
                               microseconds(500)));
  // Hydraulic pressures: 8 ms cycle.
  ex.specs.push_back(telemetry("hydraulics", 3, 1, milliseconds(8), 2000,
                               microseconds(2100)));
  // Guidance/attitude data to the cabin display: 8 ms cycle.
  ex.specs.push_back(telemetry("guidance", 2, 0, milliseconds(8), 1500,
                               microseconds(4700)));
  // Ring-build PLC interlock — more important than the alarms; never
  // shares its slots (§VI-C2's non-shared class).
  auto interlock = telemetry("interlock", 1, 2, milliseconds(4), 400,
                             microseconds(900));
  interlock.share = false;
  ex.specs.push_back(interlock);

  // Event-triggered critical traffic:
  // the operator's emergency stop (cabin -> cutterhead controller) ...
  ex.specs.push_back(etsn::workload::makeEct(
      "emergency-stop", 0, 2, milliseconds(16), 200, milliseconds(8)));
  // ... and the cutterhead hazard alarm (controller -> cabin).
  ex.specs.push_back(etsn::workload::makeEct(
      "cutterhead-hazard", 2, 0, milliseconds(20), 800, milliseconds(10)));

  ex.options.method = method;
  ex.options.config.numProbabilistic = 8;
  ex.simConfig.duration = etsn::seconds(20);
  ex.simConfig.seed = 2026;
  return ex;
}

}  // namespace

int main() {
  using namespace etsn;
  std::printf("Tunnel Boring Machine control network — emergency traffic\n");
  std::printf("==========================================================\n");
  for (const auto method : {sched::Method::ETSN, sched::Method::AVB}) {
    const ExperimentResult r = runExperiment(buildTbm(method));
    std::printf("\n[%s]\n", sched::methodName(method));
    if (!r.feasible) {
      std::printf("  schedule infeasible\n");
      continue;
    }
    for (const char* name : {"emergency-stop", "cutterhead-hazard"}) {
      const StreamResult& s = r.byName(name);
      std::printf(
          "  %-18s events=%-5lld avg=%8.1fus  worst=%8.1fus  "
          "jitter=%7.1fus  deadline-misses=%lld\n",
          name, static_cast<long long>(s.messagesDelivered), s.latency.meanUs(),
          s.latency.maxUs(), s.latency.jitterUs(),
          static_cast<long long>(s.deadlineMisses));
    }
    // Telemetry must stay healthy even while emergencies preempt it.
    long long telemetryMisses = 0;
    for (const StreamResult& s : r.streams) {
      if (s.type == net::TrafficClass::TimeTriggered) {
        telemetryMisses += s.deadlineMisses;
      }
    }
    std::printf("  telemetry deadline misses: %lld\n", telemetryMisses);
  }
  std::printf(
      "\nE-TSN bounds the emergency path deterministically; AVB's latency\n"
      "depends on where the telemetry windows happen to fall.\n");
  return 0;
}
