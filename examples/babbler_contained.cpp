// Babbler containment: a rogue event source is quarantined at the edge.
//
// A two-switch cell runs a 4 ms control loop (shared TCT slots) and a
// non-shared guard stream next to an event-triggered panel stream that
// declared a 16 ms minimum interevent time.  The drill:
//   1. clean run with PSFP-style ingress policing armed — the policer is
//      invisible: full delivery, zero violations;
//   2. mid-run the panel's firmware wedges and it babbles a frame every
//      10 us.  The ingress meter trips on the first non-conformant frame,
//      the policer raises an alarm and fail-silences the stream; when the
//      babble stops, a 10 ms quiet period heals it automatically and the
//      panel resumes.  The control loop and guard stream never notice;
//   3. the same babble with policing OFF — the control loop's shared
//      slots are starved and it visibly degrades.
//
//   $ ./babbler_contained
#include <cstdio>

#include "etsn/etsn.h"

namespace {

using namespace etsn;

void printStreams(const char* phase, const ExperimentResult& r) {
  std::printf("%s\n", phase);
  std::printf("  %-8s %8s %10s %8s %12s %8s\n", "stream", "sent", "delivered",
              "misses", "policer_drop", "blocks");
  for (const StreamResult& s : r.streams) {
    std::printf("  %-8s %8lld %10lld %8lld %12lld %8lld\n", s.name.c_str(),
                static_cast<long long>(s.messagesSent),
                static_cast<long long>(s.messagesDelivered),
                static_cast<long long>(s.deadlineMisses),
                static_cast<long long>(s.framesDroppedPolicer),
                static_cast<long long>(s.blockedIntervals));
  }
}

bool fullDelivery(const StreamResult& s) {
  return s.messagesSent > 0 && s.deadlineMisses == 0 &&
         s.messagesDelivered + s.messagesUnterminated == s.messagesSent;
}

}  // namespace

int main() {
  using namespace etsn;

  Experiment ex;
  const net::NodeId d1 = ex.topo.addDevice("D1");
  const net::NodeId d2 = ex.topo.addDevice("D2");
  const net::NodeId d3 = ex.topo.addDevice("D3");
  const net::NodeId d4 = ex.topo.addDevice("D4");
  const net::NodeId sw1 = ex.topo.addSwitch("SW1");
  const net::NodeId sw2 = ex.topo.addSwitch("SW2");
  ex.topo.connect(d1, sw1);
  ex.topo.connect(d2, sw1);
  ex.topo.connect(d3, sw2);
  ex.topo.connect(d4, sw2);
  ex.topo.connect(sw1, sw2);

  {
    net::StreamSpec s;  // control loop in shared TCT slots — the victim
    s.name = "control";  // a babbler could starve
    s.src = d1;
    s.dst = d3;
    s.period = milliseconds(4);
    // One period of slack: a legit panel event may displace one shared
    // slot, and the frame still makes the deadline via the next one.
    s.maxLatency = milliseconds(8);
    s.payloadBytes = 1000;
    s.share = true;
    ex.specs.push_back(s);
  }
  {
    net::StreamSpec s;  // non-shared guard stream: isolated by construction
    s.name = "guard";
    s.src = d1;
    s.dst = d4;
    s.period = milliseconds(4);
    s.maxLatency = milliseconds(4);
    s.payloadBytes = 500;
    s.share = false;
    ex.specs.push_back(s);
  }
  // The panel declares >= 16 ms between events; the meter is compiled
  // from exactly this declaration.
  ex.specs.push_back(workload::makeEct("panel", d2, d4, milliseconds(16), 1500));

  ex.simConfig.duration = seconds(2);
  ex.simConfig.seed = 7;
  ex.simConfig.police.enabled = true;
  ex.simConfig.police.blockOnViolation = true;
  ex.simConfig.police.quietPeriod = milliseconds(10);
  ex.simConfig.police.onBlock = [](std::int32_t specId, TimeNs at) {
    std::printf("[%s] ALARM: stream %d fail-silenced at ingress\n",
                formatTime(at).c_str(), specId);
  };
  bool recovered = false;
  ex.simConfig.police.onRecover = [&recovered](std::int32_t specId, TimeNs at) {
    recovered = true;
    std::printf("[%s] stream %d quiet for 10 ms — unblocked\n",
                formatTime(at).c_str(), specId);
  };

  // Phase 1: clean traffic, policing armed — the policer is invisible.
  const ExperimentResult clean = runExperiment(ex);
  if (!clean.feasible) {
    std::fprintf(stderr, "schedule infeasible\n");
    return 1;
  }
  printStreams("phase 1: clean run, policing armed", clean);
  for (const StreamResult& s : clean.streams) {
    if (!fullDelivery(s) || s.policerViolations > 0) {
      std::fprintf(stderr, "policing was not transparent for '%s'\n",
                   s.name.c_str());
      return 1;
    }
  }

  // Phase 2: the panel babbles a 1500 B frame every 10 us from 502 ms to
  // 600 ms (~123% of the line rate while it lasts).  Ingress policing
  // quarantines it; once the source's queue backlog finishes draining into
  // the policer, 10 ms of quiet heal the stream.
  sim::BabblingSource babble;
  babble.ectIndex = 0;
  babble.start = milliseconds(502);
  babble.stop = milliseconds(600);
  babble.interval = microseconds(10);
  ex.simConfig.faults.babblers.push_back(babble);

  std::printf("\n");
  const ExperimentResult contained = runExperiment(ex);
  printStreams("phase 2: panel babbles, policing ON", contained);
  const StreamResult& panel = contained.byName("panel");
  if (panel.blockedIntervals < 1 || panel.framesDroppedPolicer < 1000) {
    std::fprintf(stderr, "babbler was not contained\n");
    return 1;
  }
  if (!recovered) {
    std::fprintf(stderr, "panel did not auto-recover after the babble\n");
    return 1;
  }
  for (const char* name : {"control", "guard"}) {
    if (!fullDelivery(contained.byName(name))) {
      std::fprintf(stderr, "well-behaved stream '%s' was hurt\n", name);
      return 1;
    }
  }

  // Phase 3: same babble, policing off — the control loop's shared slots
  // are starved by the priority-7 flood.
  ex.simConfig.police.enabled = false;
  std::printf("\n");
  const ExperimentResult exposed = runExperiment(ex);
  printStreams("phase 3: panel babbles, policing OFF", exposed);
  const StreamResult& victim = exposed.byName("control");
  if (fullDelivery(victim)) {
    std::fprintf(stderr,
                 "expected the unpoliced babble to degrade the control "
                 "loop\n");
    return 1;
  }

  std::printf(
      "\nbabbler contained: well-behaved streams at full delivery, rogue "
      "panel fail-silenced and auto-recovered\n");
  return 0;
}
