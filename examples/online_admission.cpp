// Schedule-as-a-service (§VII-C, grown up): a long-running admission
// engine absorbs add / reject / remove / re-admit churn while the network
// runs.  Untouched streams keep their slots bit-for-bit, rejections leave
// the schedule byte-identical, a request that cannot fit even an idle
// network is turned away on the `idle` rung without a re-solve (and again,
// alike, when it asks again), and a stream removed and re-admitted gets
// its first schedule back.
//
//   $ ./online_admission
#include <cstdio>
#include <cstdlib>
#include <string>

#include "etsn/etsn.h"
#include "sched/admission.h"
#include "sched/validate.h"

int main() {
  using namespace etsn;

  auto expect = [](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAILED: %s\n", what);
      std::exit(1);
    }
  };
  auto show = [](const char* verb, const char* name,
                 const sched::AdmissionDecision& d) {
    std::printf("%-7s %-10s -> %-8s rung=%-7s moved=%d%s\n", verb, name,
                d.admitted ? "ADMITTED" : "rejected", d.rung.c_str(),
                d.movedStreams,
                d.detail.empty() ? "" : ("  (" + d.detail + ")").c_str());
  };

  // The plant starts with one shared telemetry stream and one emergency
  // channel (ECT), solved jointly by the portfolio scheduler.
  const net::Topology topo = net::makeTestbedTopology();
  std::vector<net::StreamSpec> base;
  {
    net::StreamSpec s;
    s.name = "telemetry";
    s.src = 0;
    s.dst = 2;
    s.period = milliseconds(4);
    s.maxLatency = milliseconds(4);
    s.payloadBytes = 2000;
    s.share = true;
    s.priority = 4;
    base.push_back(s);
  }
  base.push_back(workload::makeEct("estop", 1, 3, milliseconds(16), 200));

  sched::SchedulerConfig config;
  config.numProbabilistic = 4;
  sched::AdmissionEngine engine(topo, base, config);
  expect(engine.feasible(), "base schedule feasible");
  std::printf("base schedule up: %zu specs\n\n",
              engine.schedule().specs.size());

  net::StreamSpec vision;
  vision.name = "vision";
  vision.src = 1;
  vision.dst = 2;
  vision.period = milliseconds(8);
  vision.maxLatency = milliseconds(8);
  vision.payloadBytes = 6000;
  vision.share = true;
  vision.priority = 5;

  net::StreamSpec greedy;  // 4.5 kB every 500 us cannot fit a 100 Mbps link
  greedy.name = "greedy";
  greedy.src = 0;
  greedy.dst = 3;
  greedy.period = microseconds(500);
  greedy.maxLatency = microseconds(500);
  greedy.payloadBytes = 4500;
  greedy.priority = 1;

  // Add: the new stream is delta-placed around the established slots.
  sched::AdmissionDecision d = engine.request(sched::addRequest(vision));
  show("add", "vision", d);
  expect(d.admitted, "vision admitted");
  const std::uint64_t withVision = sched::scheduleHash(engine.schedule());

  // Reject: an impossible request leaves the schedule byte-identical.  Its
  // frames miss their window even on an idle network, so the idle rung
  // rejects it before any rip-up or re-solve, and says where.
  d = engine.request(sched::addRequest(greedy));
  show("add", "greedy", d);
  expect(!d.admitted, "greedy rejected");
  expect(d.rung == "idle", "greedy rejected by the idle-network test");
  expect(sched::scheduleHash(engine.schedule()) == withVision,
         "rejection left the schedule byte-identical");

  // Repeating the impossible request rejects again, byte-identically, on
  // the same rung and for the same reason: the state and request are
  // unchanged.
  const std::string greedyWhy = d.detail;
  d = engine.request(sched::addRequest(greedy));
  show("add", "greedy", d);
  expect(!d.admitted, "repeat rejection");
  expect(d.rung == "idle" && d.detail == greedyWhy,
         "repeat rejected by the idle-network test, alike");
  expect(sched::scheduleHash(engine.schedule()) == withVision,
         "repeat rejection left the schedule byte-identical");

  // Remove: the device powers down; its slots are released.
  d = engine.request(sched::removeRequest("vision"));
  show("remove", "vision", d);
  expect(d.admitted, "vision removed");

  // Re-admit: the plant is back in the configuration of the first add, so
  // the delta placement finds the same slots again.
  d = engine.request(sched::addRequest(vision));
  show("add", "vision", d);
  expect(d.admitted && d.rung == "delta", "vision re-admitted by delta");
  expect(sched::scheduleHash(engine.schedule()) == withVision,
         "re-admitted schedule is byte-identical to the first admission");

  // Removing something unknown is an invalid request, not a crash.
  d = engine.request(sched::removeRequest("phantom"));
  show("remove", "phantom", d);
  expect(!d.admitted && d.rung == "invalid", "unknown removal rejected");

  const sched::Schedule final = engine.schedule();
  sched::validateOrThrow(topo, final);
  const sched::AdmissionCounters& c = engine.counters();
  std::printf("\nfinal schedule: %zu specs, %zu reserved slots, all "
              "constraints validated\n",
              final.specs.size(), final.slots.size());
  std::printf("requests: %lld  admits: %lld  rejects: %lld\n",
              static_cast<long long>(c.requests),
              static_cast<long long>(c.admits),
              static_cast<long long>(c.rejects));
  return 0;
}
