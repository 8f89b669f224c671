// Shared harness for the figure-reproduction benches.
//
// Each bench binary regenerates one table/figure of the paper's evaluation
// (§VI): it builds the workload, runs every method through the full
// schedule→GCL→simulate pipeline, and prints the series the figure plots.
// Absolute numbers depend on the simulated substrate; the *shape* (who
// wins, by what factor, trends across load/length) is the reproduction
// target — see EXPERIMENTS.md.
//
// Common flags: --quick (default) trims sweeps for a fast pass;
// --full runs the complete parameter grid; --seed N; --duration SECONDS;
// --threads N fans the figure's grid across a campaign thread pool of
// exactly N >= 1 workers (omit the flag for hardware concurrency);
// --json PATH dumps the campaign result.
#pragma once

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "etsn/campaign.h"
#include "etsn/etsn.h"
#include "net/ethernet.h"

namespace etsn::bench {

/// Strict decimal parsers: the whole token must be one number (no trailing
/// junk, no empty string), so "10x" or "" fail loudly instead of silently
/// truncating like raw strtoull.
inline bool parseUint64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

inline bool parseInt64(const char* s, std::int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

struct Args {
  bool full = false;
  bool help = false;
  std::uint64_t seed = 7;
  TimeNs duration = seconds(10);
  int numProbabilistic = 8;
  int threads = 0;  // campaign pool size; 0 (flag absent) = hw concurrency
  std::string jsonPath;

  static const char* usage() {
    return "flags: --quick (default) | --full | --seed N | --duration S"
           " | --threads N (>= 1; omit for hardware concurrency)"
           " | --json PATH | --help";
  }

  /// Parse without exiting: on success fills *out and returns true; on an
  /// unknown flag, missing value, or malformed number returns false with a
  /// one-line diagnostic in *error.
  static bool tryParse(int argc, char** argv, Args* out, std::string* error) {
    Args a;
    auto value = [&](int* i, const char* flag, const char** v) {
      if (*i + 1 >= argc) {
        *error = std::string(flag) + " requires a value";
        return false;
      }
      *v = argv[++*i];
      return true;
    };
    auto badNumber = [&](const char* flag, const char* v) {
      *error = std::string(flag) + ": not a valid number: '" + v + "'";
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const char* v = nullptr;
      if (!std::strcmp(arg, "--full")) {
        a.full = true;
      } else if (!std::strcmp(arg, "--quick")) {
        a.full = false;
      } else if (!std::strcmp(arg, "--help")) {
        a.help = true;
      } else if (!std::strcmp(arg, "--seed")) {
        if (!value(&i, arg, &v)) return false;
        if (!parseUint64(v, &a.seed)) return badNumber(arg, v);
      } else if (!std::strcmp(arg, "--duration")) {
        std::int64_t s = 0;
        if (!value(&i, arg, &v)) return false;
        if (!parseInt64(v, &s) || s <= 0) return badNumber(arg, v);
        a.duration = seconds(s);
      } else if (!std::strcmp(arg, "--threads")) {
        std::int64_t t = 0;
        if (!value(&i, arg, &v)) return false;
        if (!parseInt64(v, &t)) return badNumber(arg, v);
        if (t < 1) {
          // "--threads 0" used to silently mean hardware concurrency;
          // that spelling now fails loudly so a typo can't change the
          // benchmark's parallelism under the reader's feet.
          *error = std::string(arg) + ": thread count must be >= 1 (got '" +
                   v + "'); omit the flag to use hardware concurrency";
          return false;
        }
        a.threads = static_cast<int>(t);
      } else if (!std::strcmp(arg, "--json")) {
        if (!value(&i, arg, &v)) return false;
        a.jsonPath = v;
      } else {
        *error = std::string("unknown flag '") + arg + "'";
        return false;
      }
    }
    *out = a;
    return true;
  }

  /// Parse or die: errors print the diagnostic plus the usage line to
  /// stderr and exit(2); --help prints usage and exits 0.
  static Args parse(int argc, char** argv) {
    std::setvbuf(stdout, nullptr, _IOLBF, 0);  // survive timeouts/pipes
    Args a;
    std::string error;
    if (!tryParse(argc, argv, &a, &error)) {
      std::fprintf(stderr, "error: %s\n%s\n", error.c_str(), usage());
      std::exit(2);
    }
    if (a.help) {
      std::printf("%s\n", usage());
      std::exit(0);
    }
    return a;
  }
};

/// Run the campaign with the harness' thread/JSON flags applied: fans the
/// grid across `--threads` workers and, with `--json PATH`, writes the
/// deterministic campaign dump (plus timing) to PATH.
inline CampaignResult runBenchCampaign(Campaign c, const Args& args) {
  c.threads = args.threads;
  c.seed = args.seed;
  CampaignResult r = runCampaign(c);
  std::printf("[campaign %s: %zu tasks, %d threads, %.1fs]\n", r.name.c_str(),
              r.tasks.size(), r.threads, r.wallSeconds);
  if (!args.jsonPath.empty()) {
    std::ofstream out(args.jsonPath);
    out << toJson(r, /*includeSamples=*/false, /*includeTiming=*/true) << "\n";
    if (out) {
      std::printf("[campaign %s: JSON -> %s]\n", r.name.c_str(),
                  args.jsonPath.c_str());
    } else {
      std::fprintf(stderr, "[campaign %s: cannot write JSON to %s]\n",
                   r.name.c_str(), args.jsonPath.c_str());
    }
  }
  return r;
}

/// FNV-1a over the bytes of `s`: the benches' determinism fingerprint.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One campaign run at pool sizes 1, 2 and 8: the determinism gate of the
/// campaign benches.  `report` is the 1-thread run; `hashes` are the
/// fnv1a of each run's deterministic dump (samples included, no timing).
struct ThreadCountGate {
  CampaignResult report;
  std::array<std::uint64_t, 3> hashes{};  // t1, t2, t8
  bool identical() const {
    return hashes[0] == hashes[1] && hashes[0] == hashes[2];
  }
};

/// Run `c` through runBenchCampaign at 1, 2 and 8 threads (`args` minus
/// its JSON path: the benches write their own rows file).
inline ThreadCountGate runAtThreadCounts(const Campaign& c, Args args) {
  args.jsonPath.clear();
  ThreadCountGate gate;
  const int pools[3] = {1, 2, 8};
  for (std::size_t i = 0; i < gate.hashes.size(); ++i) {
    args.threads = pools[i];
    CampaignResult r = runBenchCampaign(c, args);
    gate.hashes[i] =
        fnv1a(toJson(r, /*includeSamples=*/true, /*includeTiming=*/false));
    if (i == 0) gate.report = std::move(r);
  }
  return gate;
}

/// §VI-B testbed setting: 2 switches + 4 devices, ten TCT streams with
/// periods {4, 8, 16} ms, one ECT stream D2 -> D4 (min interevent 16 ms).
inline Experiment testbedExperiment(const Args& args, sched::Method method,
                                    double load, int periodSlotFactor = 0) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  workload::TctWorkload w;
  w.numStreams = 10;
  w.periods = {milliseconds(4), milliseconds(8), milliseconds(16)};
  w.networkLoad = load;
  w.seed = args.seed;
  ex.specs = workload::generateTct(ex.topo, w);
  ex.specs.push_back(workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
  ex.options.method = method;
  ex.options.config.numProbabilistic = args.numProbabilistic;
  ex.options.periodSlotFactor = periodSlotFactor;
  ex.simConfig.duration = args.duration;
  ex.simConfig.seed = args.seed;
  return ex;
}

/// §VI-C simulation setting: 4 switches + 12 devices, forty TCT streams
/// with periods {5, 10, 20} ms, one ECT stream D1 -> D12 (min interevent
/// 10 ms) of `mtus` MTUs.
inline Experiment simulationExperiment(const Args& args, sched::Method method,
                                       double load, int mtus = 1,
                                       int numNonShared = 0) {
  Experiment ex;
  ex.topo = net::makeSimulationTopology();
  workload::TctWorkload w;
  w.numStreams = 40;
  w.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
  w.networkLoad = load;
  w.numSharing = 40 - numNonShared;
  w.seed = args.seed;
  ex.specs = workload::generateTct(ex.topo, w);
  // Non-shared streams first in the paper's §VI-C2 narrative; the
  // generator marks the first `numSharing` as sharing, so flip: mark the
  // first numNonShared as non-shared instead.
  if (numNonShared > 0) {
    for (int i = 0; i < 40; ++i) {
      ex.specs[static_cast<std::size_t>(i)].share = i >= numNonShared;
    }
  }
  ex.specs.push_back(workload::makeEct("ect", 0, 11, milliseconds(10),
                                       mtus * net::kMtuPayloadBytes));
  ex.options.method = method;
  ex.options.config.numProbabilistic = args.numProbabilistic;
  ex.simConfig.duration = args.duration;
  ex.simConfig.seed = args.seed;
  return ex;
}

inline void printHeader(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

inline void printEctRow(const char* label, const ExperimentResult& r) {
  if (!r.feasible) {
    std::printf("%-16s INFEASIBLE (solve %.1fs, engine %s)\n", label,
                r.solve.solveSeconds, r.solve.engine.c_str());
    return;
  }
  const StreamResult& e = r.byName("ect");
  std::printf("%-16s n=%-6lld avg=%9.1fus  worst=%9.1fus  jitter=%8.1fus"
              "  (solve %.1fs)\n",
              label, static_cast<long long>(e.latency.count),
              e.latency.meanUs(), e.latency.maxUs(), e.latency.jitterUs(),
              r.solve.solveSeconds);
}

inline long long totalTctMisses(const ExperimentResult& r) {
  long long misses = 0;
  for (const StreamResult& s : r.streams) {
    if (s.type == net::TrafficClass::TimeTriggered) misses += s.deadlineMisses;
  }
  return misses;
}

}  // namespace etsn::bench
