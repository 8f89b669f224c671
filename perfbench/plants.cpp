#include "plants.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "workload/iec60802.h"

namespace etsn::perfbench {

namespace {

/// Plant seed of the default set (the repo benches' default seed).
constexpr std::uint64_t kDefaultPlantSeed = 7;
/// Plant seed of the held-out set.
constexpr std::uint64_t kHeldOutPlantSeed = 1019;

/// testbed-smt instances: Fig. 11 loads 25-50% over a few workload seeds,
/// picked so each solve spends hundreds to thousands of SAT decisions per
/// conflict (like the 75% instance) while a set solves in about 5 s.  The
/// held-out set was sized the same way, from the same table of per-instance
/// solve times, before any claim was checked on it.
struct TestbedCase {
  double load;
  std::uint64_t seed;
};
constexpr TestbedCase kTestbedCases[] = {
    {0.25, 7}, {0.30, 8}, {0.35, 6}, {0.40, 6}, {0.45, 2}, {0.50, 2}};
constexpr TestbedCase kHeldOutTestbedCases[] = {
    {0.25, 8}, {0.30, 7}, {0.35, 3}, {0.40, 3}, {0.45, 3}, {0.50, 1}};

std::string loadLabel(double load, std::uint64_t seed) {
  return "load" + std::to_string(static_cast<int>(load * 100 + 0.5)) +
         "-ws" + std::to_string(seed);
}

Plant testbedSmt(std::uint64_t seed) {
  Plant p;
  p.topo = net::makeTestbedTopology();
  for (const TestbedCase& c : seed == kHeldOutPlantSeed ? kHeldOutTestbedCases
                                                        : kTestbedCases) {
    workload::TctWorkload w;
    w.numStreams = 10;
    w.periods = {milliseconds(4), milliseconds(8), milliseconds(16)};
    w.networkLoad = c.load;
    w.seed = c.seed;
    Instance in{loadLabel(c.load, c.seed), workload::generateTct(p.topo, w)};
    in.specs.push_back(
        workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
    p.instances.push_back(std::move(in));
  }
  p.options.engine = sched::Engine::Smt;
  p.options.config.numProbabilistic = 8;
  p.simHorizon = seconds(40);
  // Two switches and four devices fill up under the bench's streams (every
  // tenth request re-solved, 3.5 s a trace); these take 1 s a trace, so a
  // run holds several.
  p.churnPeriods = {milliseconds(8), milliseconds(16)};
  p.churnPayloadMin = 100;
  p.churnPayloadMax = 300;
  p.shares = {0.5, 0.2, 0.3};
  return p;
}

/// Scaled mesh with `tct` TCT streams (half of them sharing) and `ect`
/// generated ECT streams — the portfolio and admission benches' plants.
Plant scaledMesh(std::uint64_t seed, int switches, int tct, int ect) {
  Plant p;
  p.topo = workload::makeScaledTopology(workload::TopologyKind::Mesh,
                                        switches, 2);
  workload::TctWorkload w;
  w.numStreams = tct;
  w.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
  w.networkLoad = 0.4;
  w.numSharing = tct / 2;
  w.seed = seed;
  Instance in{std::to_string(switches) + "sw-" + std::to_string(tct + ect),
              workload::generateTct(p.topo, w)};
  workload::EctWorkload e;
  e.numStreams = ect;
  e.seed = seed + 1;
  for (net::StreamSpec& s : workload::generateEct(p.topo, e)) {
    in.specs.push_back(std::move(s));
  }
  p.instances.push_back(std::move(in));
  p.options.engine = sched::Engine::Portfolio;
  p.options.config.numProbabilistic = 4;
  p.churnPeriods = {milliseconds(5), milliseconds(10), milliseconds(20)};
  return p;
}

Plant mesh5000(std::uint64_t seed) {
  Plant p = scaledMesh(seed, 50, 4996, 4);
  // One simulated second: ~170 ECT messages for the worst-case latency
  // (0.2 s gives ~35) and seconds of kernel time per repetition.
  p.simHorizon = seconds(1);
  // The request loop runs on a 500-stream slice of the plant (the first
  // 496 TCT and the 4 ECT): on all 5000 streams every decision streamed the
  // engine's state from memory, and its times followed the neighbours'
  // memory traffic (spread 0.16-0.26 over ten runs).  Admission is
  // admission-churn's subject; here it only has to be steady.
  const std::vector<net::StreamSpec>& all = p.instances.front().specs;
  p.engineSpecs.assign(all.begin(), all.begin() + 496);
  p.engineSpecs.insert(p.engineSpecs.end(), all.end() - 4, all.end());
  // One ~12 s deploy (whatever its share), two or three 5-8 s simulations,
  // ten or more 0.7 s traces: 40-47 s a run of 40.
  p.shares = {0.2, 0.45, 0.25};
  // Neither the deploy (GCL compilation) nor the simulation at this scale
  // follows the reference kernel: scaled, their spreads over ten runs were
  // 0.15 and 0.17 against 0.04 and 0.08 unscaled (NOTES.md, "Host noise").
  p.scaleDeployAndSimulation = false;
  return p;
}

Plant admissionChurn(std::uint64_t seed) {
  Plant p = scaledMesh(seed, 16, 200, 2);
  // Seconds of host time per simulation: shorter runs are dominated by the
  // per-run set-up of frame arenas and recorder buffers, whose cost swings
  // with the host's memory state.
  p.simHorizon = seconds(16);
  p.shares = {0.05, 0.4, 0.5};
  return p;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "testbed-smt", "mesh-5000", "admission-churn"};
  return names;
}

Plant makePlant(const std::string& workload, std::uint64_t runSeed,
                bool shortRun) {
  const std::uint64_t seed =
      runSeed == kHeldOutSeed ? kHeldOutPlantSeed : kDefaultPlantSeed;
  Plant p;
  if (workload == "testbed-smt") {
    p = testbedSmt(seed);
  } else if (workload == "mesh-5000") {
    p = mesh5000(seed);
  } else if (workload == "admission-churn") {
    p = admissionChurn(seed);
  } else {
    throw ConfigError("unknown workload '" + workload + "'");
  }
  p.seed = seed;
  p.options.portfolio.seed = seed;
  p.options.portfolio.threads = 1;
  if (shortRun) {
    p.instances.resize(std::min<std::size_t>(p.instances.size(), 2));
    p.simHorizon /= 10;
    p.requests = 200;
  }
  return p;
}

sched::AdmissionOptions admissionOptions(const Plant& plant) {
  sched::AdmissionOptions o;
  o.portfolio.seed = plant.seed;
  o.portfolio.threads = 1;
  return o;
}

ChurnClient::ChurnClient(const Plant& plant)
    : plant_(plant), rng_(plant.seed * 9176), devices_(plant.topo.devices()) {
  ETSN_CHECK_MSG(devices_.size() >= 2, "churn needs two devices");
  // 4.5 kB every 500 us within 500 us: never feasible.
  greedy_.name = "greedy";
  greedy_.src = devices_.front();
  greedy_.dst = devices_.back();
  greedy_.period = microseconds(500);
  greedy_.maxLatency = microseconds(500);
  greedy_.payloadBytes = 4500;
  greedy_.priority = 1;
}

net::StreamSpec ChurnClient::freshSpec() {
  net::StreamSpec s;
  s.name = "churn" + std::to_string(fresh_++);
  s.src = rng_.pick(devices_);
  s.dst = rng_.pick(devices_);
  while (s.dst == s.src) s.dst = rng_.pick(devices_);
  s.period = plant_.churnPeriods[static_cast<std::size_t>(rng_.uniformInt(
      0, static_cast<std::int64_t>(plant_.churnPeriods.size()) - 1))];
  s.maxLatency = s.period;
  s.payloadBytes = static_cast<int>(
      rng_.uniformInt(plant_.churnPayloadMin, plant_.churnPayloadMax));
  // Explicit priorities keep the engine's round-robin counters, and so its
  // canonical state hash, revisitable by flapping streams.
  s.share = rng_.uniformInt(0, 1) == 1;
  s.priority = static_cast<int>(s.share ? 4 + rng_.uniformInt(0, 2)
                                        : 1 + rng_.uniformInt(0, 2));
  return s;
}

sched::AdmissionRequest ChurnClient::next() {
  const int i = issued_++;
  if (!queued_.empty()) {
    sched::AdmissionRequest r = std::move(queued_.front());
    queued_.pop_front();
    return r;
  }
  const int n = plant_.requests;
  const std::int64_t dice = rng_.uniformInt(0, 99);
  if (dice < 2 && i + 1 < n && i > n / 4) {
    queued_.push_back(sched::addRequest(greedy_));
    return sched::addRequest(greedy_);
  }
  if (dice < 22 && live_.size() > 4) {
    const std::size_t v = static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(live_.size()) - 1));
    return sched::removeRequest(live_[v]);
  }
  if (dice < 34 && !retired_.empty()) {
    net::StreamSpec s = std::move(retired_.back());
    retired_.pop_back();
    return sched::addRequest(std::move(s));
  }
  net::StreamSpec s = freshSpec();
  if (live_.size() + 1 > 6 && i + 3 < n && rng_.uniformInt(0, 3) == 0) {
    flapping_ = s;
    queued_.push_back(sched::removeRequest(s.name));
    queued_.push_back(sched::addRequest(s));
    queued_.push_back(sched::removeRequest(s.name));
  }
  return sched::addRequest(std::move(s));
}

void ChurnClient::observe(const sched::AdmissionRequest& req,
                          const sched::AdmissionDecision& d) {
  const bool add = req.op == sched::AdmissionRequest::Op::Add;
  const std::string& name = add ? req.spec.name : req.name;
  if (name == greedy_.name) return;
  if (!flapping_.name.empty() && name == flapping_.name) {
    // A refused add ends the flap; either way the device retires after it.
    if (add && !d.admitted) queued_.clear();
    if (queued_.empty()) {
      retired_.push_back(std::move(flapping_));
      flapping_ = net::StreamSpec{};
    }
    return;
  }
  if (add) {
    if (d.admitted) live_.push_back(name);
    return;
  }
  if (!d.admitted) return;
  const auto it = std::find(live_.begin(), live_.end(), name);
  if (it != live_.end()) live_.erase(it);
}

}  // namespace etsn::perfbench
