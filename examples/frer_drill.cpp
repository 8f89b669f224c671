// FRER failover drill: a flaky trunk cable degrades, then dies — the
// protected stream loses nothing.
//
// A protected control stream (802.1CB redundancy 2) crosses the redundant
// cell from talker T to listener L over two link-disjoint switch spines.
// The primary spine's trunk cable is flaky (Gilbert-Elliott burst loss)
// and at half-time dies outright, for good.  Because every fragment
// travels as two copies with a shared R-TAG sequence number, the
// surviving member keeps delivering while the merge point keeps
// eliminating duplicates — the drill asserts:
//   * delivery ratio stays 1.0 with ZERO missed TCT deadlines
//     (seamless redundancy: no reroute, no repair, no gap);
//   * fragments whose primary copy died in a burst were recovered by the
//     surviving member;
//   * the latent-error detector raises an alarm once the duplicate flow
//     stops (the fault is masked but the protection margin is gone);
//   * the frame books close copy-for-copy:
//     emitted == delivered + dropped + eliminated + in-flight.
//
//   $ ./frer_drill
#include <cstdio>

#include "etsn/etsn.h"

int main() {
  using namespace etsn;

  Experiment ex;
  ex.topo = net::makeRedundantTopology(/*spineLength=*/2,
                                       /*devicesPerSwitch=*/0);
  // Nodes: T=0, L=1, spine A = {2, 3}, spine B = {4, 5}.
  net::StreamSpec crit;
  crit.name = "crit";
  crit.src = 0;
  crit.dst = 1;
  crit.period = milliseconds(4);
  crit.maxLatency = milliseconds(4);
  crit.payloadBytes = 1000;
  crit.redundancy = 2;  // one member per spine, link-disjoint
  ex.specs.push_back(crit);

  const TimeNs duration = seconds(2);
  const TimeNs failAt = duration / 2;
  ex.simConfig.duration = duration;
  ex.simConfig.seed = 7;
  ex.simConfig.frer.latentErrorPeriod = milliseconds(100);

  // The primary member's trunk (A1 -> A2) is a flaky cable — bursty
  // loss from the start — and at half-time it dies for good.
  const net::LinkId trunkA = ex.topo.linkBetween(2, 3);
  sim::LossModel flaky;
  flaky.link = trunkA;
  flaky.pGoodToBad = 0.02;
  flaky.pBadToGood = 0.1;
  flaky.lossBad = 1.0;
  ex.simConfig.faults.losses.push_back(flaky);
  sim::LinkOutage outage;
  outage.link = trunkA;
  outage.downAt = failAt;
  outage.upAt = failAt;
  ex.simConfig.faults.outages.push_back(outage);
  ex.simConfig.onLinkDown = [&](net::LinkId l, TimeNs t) {
    std::printf("[%s] trunk %s -> %s DOWN — member 1 is gone\n",
                formatTime(t).c_str(),
                ex.topo.node(ex.topo.link(l).from).name.c_str(),
                ex.topo.node(ex.topo.link(l).to).name.c_str());
  };
  bool alarmed = false;
  ex.simConfig.frer.onLatentError = [&](std::int32_t, TimeNs t) {
    if (!alarmed) {
      std::printf("[%s] latent-error alarm: duplicate flow degraded\n",
                  formatTime(t).c_str());
    }
    alarmed = true;
  };

  const ExperimentResult r = runExperiment(ex);
  if (!r.feasible) {
    std::fprintf(stderr, "schedule infeasible\n");
    return 1;
  }

  const StreamResult& s = r.byName("crit");
  std::printf("\ncrit: sent=%lld delivered=%lld lost=%lld miss=%lld "
              "(latency mean %.1f us, max %.1f us)\n",
              static_cast<long long>(s.messagesSent),
              static_cast<long long>(s.messagesDelivered),
              static_cast<long long>(s.messagesLost),
              static_cast<long long>(s.deadlineMisses), s.latency.meanUs(),
              static_cast<double>(s.latency.maxNs) / 1000.0);
  std::printf("frer: replicated=%lld eliminated=%lld recovered=%lld "
              "alarms=%lld\n",
              static_cast<long long>(s.framesReplicated),
              static_cast<long long>(s.duplicatesEliminated),
              static_cast<long long>(s.recoveredByRedundancy),
              static_cast<long long>(s.frerLatentAlarms));

  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAILED: %s\n", what);
      ok = false;
    }
  };
  expect(s.messagesSent > 0, "talker fired");
  expect(s.messagesLost == 0, "no message lost across the path kill");
  expect(s.deliveryRatio() == 1.0 || s.messagesUnterminated > 0,
         "delivery ratio 1.0 (modulo run-end in-flight)");
  expect(s.deadlineMisses == 0, "zero missed TCT deadlines");
  expect(s.duplicatesEliminated > 0, "merge point eliminated duplicates");
  expect(s.recoveredByRedundancy > 0,
         "fragments recovered by the surviving member after the kill");
  expect(s.frerLatentAlarms > 0 && alarmed,
         "latent-error detector noticed the dead member");
  expect(s.framesEmitted ==
             s.framesDelivered + s.framesDroppedLoss + s.framesDroppedOutage +
                 s.framesDroppedPolicer + s.framesDroppedOverflow +
                 s.duplicatesEliminated + s.framesInFlight,
         "frame books close copy-for-copy");

  if (!ok) return 1;
  std::printf("\nfrer drill passed: seamless failover, zero deadline "
              "misses\n");
  return 0;
}
