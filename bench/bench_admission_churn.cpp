// Admission-engine churn under load: drive the schedule-as-a-service
// engine (sched/admission.h) with a seeded add/remove/re-add/reject mix
// over the scaled mesh plants and report decision latency percentiles,
// admissions/sec and ladder-rung counts against a sampled full-resolve
// baseline (what every request would cost without delta-solve).
//
//   --quick   16-switch mesh,  200 TCT + 2 ECT,  240-request trace
//   --full    50-switch mesh, 4996 TCT + 4 ECT,  400-request trace
//             (the portfolio bench's flagship instance, under churn)
//
// Determinism gate: a second fresh engine replays the same trace; the
// per-request verdict sequence and the final schedule hash must be
// byte-identical in both runs.  Correctness gate: the final state (and
// every 60th intermediate state) must pass sched::validate.  Perf gate:
// --p99-ceiling-ms M fails the run if the single-request p99 exceeds M
// (the check_perf wiring sets a generous ceiling so only a >10x-class
// regression trips it).
//
// Output: the human-readable table plus machine-readable
// BENCH_admission.json (the run's row, baseline column, determinism
// verdict) for trend tracking across commits.
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "harness.h"
#include "sched/admission.h"
#include "sched/validate.h"

namespace {

using namespace etsn;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Scale {
  int switches = 16;
  int tct = 200;
  int ect = 2;
  int requests = 240;
};

struct Plant {
  net::Topology topo;
  std::vector<net::StreamSpec> base;
  std::vector<net::NodeId> devices;
};

Plant makePlant(const Scale& sc, std::uint64_t seed) {
  Plant p;
  p.topo = workload::makeScaledTopology(workload::TopologyKind::Mesh,
                                        sc.switches, 2);
  for (int d = 0; d < 2 * sc.switches; ++d) p.devices.push_back(sc.switches + d);
  workload::TctWorkload w;
  w.numStreams = sc.tct;
  w.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
  w.networkLoad = 0.4;
  w.numSharing = sc.tct / 2;
  w.seed = seed;
  p.base = workload::generateTct(p.topo, w);
  workload::EctWorkload e;
  e.numStreams = sc.ect;
  e.seed = seed + 1;
  for (auto& s : workload::generateEct(p.topo, e)) {
    p.base.push_back(std::move(s));
  }
  return p;
}

/// Seeded request mix: mostly feasible adds and removes of churn streams
/// (explicit priorities keep the round-robin counters — and therefore the
/// canonical state — revisitable), a flapping re-add pattern that revisits
/// prior states, and a recurring impossible spec that the idle-network
/// test rejects each time.
std::vector<sched::AdmissionRequest> makeTrace(const Plant& p,
                                               std::uint64_t seed, int n) {
  Rng rng(seed * 9176);
  std::vector<sched::AdmissionRequest> trace;
  std::vector<std::string> live;    // churn streams currently admitted
  std::vector<net::StreamSpec> retired;  // removed, eligible for re-add
  int fresh = 0;
  auto freshSpec = [&]() {
    net::StreamSpec s;
    s.name = "churn" + std::to_string(fresh++);
    s.src = rng.pick(p.devices);
    s.dst = rng.pick(p.devices);
    while (s.dst == s.src) s.dst = rng.pick(p.devices);
    s.period = milliseconds(5 * (1ll << rng.uniformInt(0, 2)));
    s.maxLatency = s.period;
    s.payloadBytes = static_cast<int>(rng.uniformInt(200, 800));
    s.share = rng.uniformInt(0, 1) == 1;
    s.priority = static_cast<int>(s.share ? 4 + rng.uniformInt(0, 2)
                                          : 1 + rng.uniformInt(0, 2));
    return s;
  };
  net::StreamSpec greedy;  // 4.5 kB every 500 us: never feasible
  greedy.name = "greedy";
  greedy.src = p.devices.front();
  greedy.dst = p.devices.back();
  greedy.period = microseconds(500);
  greedy.maxLatency = microseconds(500);
  greedy.payloadBytes = 4500;
  greedy.priority = 1;
  for (int i = 0; i < n; ++i) {
    const std::int64_t dice = rng.uniformInt(0, 99);
    if (dice < 2 && i + 1 < n && i > n / 4) {
      // A flapping infeasible requester: the idle-network test rejects
      // the request and its immediate repeat.
      trace.push_back(sched::addRequest(greedy));
      trace.push_back(sched::addRequest(greedy));
      ++i;
      continue;
    }
    if (dice < 22 && live.size() > 4) {
      const std::size_t v = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      trace.push_back(sched::removeRequest(live[v]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
      continue;
    }
    if (dice < 34 && !retired.empty()) {
      net::StreamSpec s = retired.back();  // flap: revisits a prior state
      retired.pop_back();
      live.push_back(s.name);
      trace.push_back(sched::addRequest(std::move(s)));
      continue;
    }
    net::StreamSpec s = freshSpec();
    live.push_back(s.name);
    if (live.size() > 6 && i + 3 < n && rng.uniformInt(0, 3) == 0) {
      // A flapping device: admitted, powered down, admitted again (the
      // remove returns the engine to the pre-add state, so the second
      // pair starts from the state the first one did).
      live.pop_back();
      trace.push_back(sched::addRequest(s));
      trace.push_back(sched::removeRequest(s.name));
      trace.push_back(sched::addRequest(s));
      trace.push_back(sched::removeRequest(s.name));
      retired.push_back(std::move(s));
      i += 3;
      continue;
    }
    trace.push_back(sched::addRequest(std::move(s)));
  }
  return trace;
}

struct RunRow {
  std::string mode;
  int requests = 0;
  sched::AdmissionCounters counters;
  double p50Ms = 0, p95Ms = 0, p99Ms = 0, maxMs = 0;
  double admissionsPerSec = 0;
  double initialSolveSeconds = 0;
  std::uint64_t scheduleHash = 0;
  std::uint64_t verdictHash = 0;  // fnv over the admitted/rejected sequence
  bool valid = false;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

/// Drive one engine through the trace, one request at a time.
RunRow runTrace(const Plant& p, const sched::SchedulerConfig& config,
                const sched::AdmissionOptions& opts,
                const std::vector<sched::AdmissionRequest>& trace,
                const std::string& mode, bool validateSamples) {
  RunRow row;
  row.mode = mode;
  row.requests = static_cast<int>(trace.size());
  const auto t0 = std::chrono::steady_clock::now();
  sched::AdmissionEngine eng(p.topo, p.base, config, opts);
  row.initialSolveSeconds = secondsSince(t0);
  ETSN_CHECK_MSG(eng.feasible(), "base plant must be schedulable");

  std::vector<double> latencies;
  std::string verdicts;
  const auto span = std::chrono::steady_clock::now();
  int step = 0;
  for (const sched::AdmissionRequest& req : trace) {
    const sched::AdmissionDecision d = eng.request(req);
    latencies.push_back(d.seconds);
    verdicts += d.admitted ? 'A' : 'r';
    ++step;
    if (validateSamples && step % 60 == 0) {
      ETSN_CHECK_MSG(sched::validate(p.topo, eng.schedule()).empty(),
                     "intermediate admitted state failed validation at "
                     "request " << step);
    }
  }
  const double wall = secondsSince(span);

  row.counters = eng.counters();
  row.p50Ms = percentile(latencies, 0.50) * 1e3;
  row.p95Ms = percentile(latencies, 0.95) * 1e3;
  row.p99Ms = percentile(latencies, 0.99) * 1e3;
  row.maxMs = percentile(latencies, 1.0) * 1e3;
  row.admissionsPerSec = wall > 0 ? static_cast<double>(trace.size()) / wall
                                  : 0;
  const sched::Schedule final = eng.schedule();
  row.scheduleHash = sched::scheduleHash(final);
  row.verdictHash = bench::fnv1a(verdicts);
  row.valid = sched::validate(p.topo, final).empty();
  return row;
}

void printRow(const RunRow& r) {
  std::printf("%-10s %5d %5lld %4lld %6lld %4lld %9.3f %9.3f "
              "%9.3f %9.3f %10.0f  %s\n",
              r.mode.c_str(), r.requests,
              static_cast<long long>(r.counters.admits),
              static_cast<long long>(r.counters.rejects),
              static_cast<long long>(r.counters.deltaSolves),
              static_cast<long long>(r.counters.fullResolves), r.p50Ms,
              r.p95Ms, r.p99Ms, r.maxMs, r.admissionsPerSec,
              r.valid ? "ok" : "INVALID");
}

void jsonRow(std::ofstream& out, const RunRow& r) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(r.scheduleHash));
  out << "    {\"mode\": \"" << r.mode << "\", \"requests\": " << r.requests
      << ", \"admits\": " << r.counters.admits
      << ", \"rejects\": " << r.counters.rejects
      << ", \"delta_solves\": " << r.counters.deltaSolves
      << ", \"full_resolves\": " << r.counters.fullResolves
      << ", \"p50_ms\": " << r.p50Ms << ", \"p95_ms\": " << r.p95Ms
      << ", \"p99_ms\": " << r.p99Ms << ", \"max_ms\": " << r.maxMs
      << ", \"admissions_per_sec\": " << r.admissionsPerSec
      << ", \"initial_solve_seconds\": " << r.initialSolveSeconds
      << ", \"schedule_hash\": \"" << hash << "\", \"valid\": "
      << (r.valid ? "true" : "false") << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace etsn::bench;
  // Bench-local gate flag, filtered out before the shared harness parse.
  double p99CeilingMs = 0;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--p99-ceiling-ms") && i + 1 < argc) {
      char* end = nullptr;
      p99CeilingMs = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || p99CeilingMs <= 0) {
        std::fprintf(stderr,
                     "error: --p99-ceiling-ms: not a valid positive "
                     "number: '%s'\n",
                     argv[i]);
        return 2;
      }
      continue;
    }
    rest.push_back(argv[i]);
  }
  Args args = Args::parse(static_cast<int>(rest.size()), rest.data());

  const Scale sc = args.full ? Scale{50, 4996, 4, 400} : Scale{16, 200, 2, 240};
  printHeader(args.full
                  ? "Admission churn: 50-switch mesh, 5000 streams (flagship)"
                  : "Admission churn: 16-switch mesh, ~200 streams (quick)");
  const Plant plant = makePlant(sc, args.seed);
  const std::vector<sched::AdmissionRequest> trace =
      makeTrace(plant, args.seed, sc.requests);
  sched::SchedulerConfig config;
  config.numProbabilistic = 4;
  sched::AdmissionOptions opts;
  opts.portfolio.seed = args.seed;

  std::printf("%-10s %5s %5s %4s %6s %4s %9s %9s %9s %9s %10s\n",
              "mode", "reqs", "admit", "rej", "delta", "rsolv",
              "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)", "req/s");

  const RunRow single = runTrace(plant, config, opts, trace, "single",
                                 /*validateSamples=*/true);
  printRow(single);
  const RunRow repeat = runTrace(plant, config, opts, trace, "repeat",
                                 /*validateSamples=*/false);

  // Full-resolve baseline: what each admission would cost without the
  // incremental engine — a from-scratch portfolio solve over snapshots of
  // the live spec list as the trace grows it.
  std::vector<double> baseline;
  {
    sched::AdmissionEngine eng(plant.topo, plant.base, config, opts);
    const int stride = std::max(1, static_cast<int>(trace.size()) / 6);
    int step = 0;
    for (const sched::AdmissionRequest& req : trace) {
      eng.request(req);
      if (++step % stride != 0) continue;
      sched::ScheduleOptions full;
      full.engine = sched::Engine::Portfolio;
      full.config = config;
      full.portfolio = opts.portfolio;
      const std::vector<net::StreamSpec> specs = eng.schedule().specs;
      const auto t0 = std::chrono::steady_clock::now();
      const auto ms = sched::buildSchedule(plant.topo, specs, full);
      ETSN_CHECK_MSG(ms.schedule.info.feasible,
                     "baseline re-solve of an admitted state must stay "
                     "feasible");
      baseline.push_back(secondsSince(t0));
    }
  }
  const double baselineP50Ms = percentile(baseline, 0.50) * 1e3;
  const double speedup =
      single.p50Ms > 0 ? baselineP50Ms / single.p50Ms : 0;
  std::printf("\nfull-resolve baseline (n=%zu snapshots): p50=%.1fms -> "
              "delta-solve speedup at p50: %.0fx\n",
              baseline.size(), baselineP50Ms, speedup);

  // Determinism: verdicts and final schedule hash must be byte-identical
  // across two fresh engines fed the same trace.
  const bool deterministic = single.scheduleHash == repeat.scheduleHash &&
                             single.verdictHash == repeat.verdictHash;
  std::printf("[determinism across repeated runs: %s]\n",
              deterministic ? "byte-identical" : "MISMATCH");
  std::printf("[schedule hash %016llx]\n",
              static_cast<unsigned long long>(single.scheduleHash));

  bool ceilingOk = true;
  if (p99CeilingMs > 0) {
    ceilingOk = single.p99Ms <= p99CeilingMs;
    std::printf("[p99 gate: %.3fms %s ceiling %.1fms]\n", single.p99Ms,
                ceilingOk ? "<=" : "EXCEEDS", p99CeilingMs);
  }
  const bool speedupOk = speedup >= 20;
  if (!speedupOk) {
    std::printf("[FAIL: delta-solve p50 speedup %.1fx < 20x]\n", speedup);
  }

  const std::string path =
      args.jsonPath.empty() ? "BENCH_admission.json" : args.jsonPath;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"admission_churn\",\n  \"switches\": "
      << sc.switches << ",\n  \"base_specs\": " << plant.base.size()
      << ",\n  \"trace_requests\": " << trace.size() << ",\n  \"seed\": "
      << args.seed << ",\n  \"rows\": [\n";
  jsonRow(out, single);
  out << "  ],\n  \"baseline_p50_ms\": " << baselineP50Ms
      << ",\n  \"speedup_p50\": " << speedup << ",\n  \"deterministic\": "
      << (deterministic ? "true" : "false") << ",\n  \"p99_ceiling_ms\": "
      << p99CeilingMs << ",\n  \"p99_gate_ok\": "
      << (ceilingOk ? "true" : "false") << "\n}\n";
  if (out) {
    std::printf("[admission_churn: machine-readable rows -> %s]\n",
                path.c_str());
  }

  return (deterministic && single.valid && ceilingOk && speedupOk)
             ? 0
             : 1;
}
