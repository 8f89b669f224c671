// Repository benchmark: one fixed plant (plants.h) through the three phases
// a CNC runs, for a time budget, printing every metric as one JSON line.
//
//   etsn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--short] [--spans PATH] [--untraced PATH]
//
//  * setup   — build the plant (topology + specs) and the admission
//              engine's initial solve; repeated, reported as the median.
//  * plan    — per instance: etsn::solveSchedule (expand, solve,
//              validate), sched::compileProgram, net::compileFilters.
//  * verify  — per instance: sim::Network construction plus run().
//  * operate — one client in a closed loop over AdmissionEngine::request.
//
// Each phase is timed from outside around its public calls and repeated
// while its share of the budget lasts.  Every unit of work (one instance's
// deploy, one simulation, one churn trace) is timed between two samples of
// a fixed reference kernel (reference.h) and scaled by how fast the kernel
// ran around it; a host time is the median scaled time of each unit over
// its repetitions (per request for admission; set-up: the median set-up
// over the run's median kernel speed; a plant may keep its deploys and
// simulations unscaled, as their fastest repetition).  Every repetition
// must reproduce the first one's schedule, latency-sample and verdict
// hashes, every deployed and every 100th admitted schedule must pass
// sched::validate, and every simulated stream must close its frame and
// message books; any miss counts as a failed operation.  With --trace 1
// the calls are wrapped in spans (spans.h) and the per-layer metrics
// replace the end-to-end ones.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "etsn/etsn.h"
#include "plants.h"
#include "reference.h"
#include "sched/expand.h"
#include "sched/validate.h"
#include "spans.h"

namespace {

using namespace etsn;
using namespace etsn::perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 20;
  bool trace = false;
  bool shortRun = false;
  std::string spansPath;
  std::string untracedPath;
};

const char* kUsage =
    "usage: etsn_perfbench --workload NAME --seed N --seconds S --trace 0|1"
    " [--short] [--spans PATH] [--untraced PATH]";

bool parseArgs(int argc, char** argv, Options* o, std::string* error) {
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--short") {
      o->shortRun = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = arg + " requires a value";
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = v;
      haveWorkload = true;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(v, &end);
      if (end != v && o->seconds <= 0) end = const_cast<char*>(v);
    } else if (arg == "--trace") {
      const long t = std::strtol(v, &end, 10);
      if (t != 0 && t != 1) end = const_cast<char*>(v);
      o->trace = t == 1;
    } else if (arg == "--spans") {
      o->spansPath = v;
    } else if (arg == "--untraced") {
      o->untracedPath = v;
    } else {
      *error = "unknown flag '" + arg + "'";
      return false;
    }
    if (end != nullptr && (end == v || *end != '\0')) {
      *error = arg + ": invalid value '" + v + "'";
      return false;
    }
  }
  if (!haveWorkload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The fastest repetition's time.  Neighbours on a shared host only ever
/// slow a repetition down, by up to 40% for tens of seconds, so the fastest
/// of several is the steadiest estimate of the program's own speed.
double fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0 : *std::min_element(seconds.begin(),
                                                  seconds.end());
}

/// Raw and host-scaled seconds of one unit of program work.
struct UnitTime {
  double raw = 0;
  double scaled = 0;
};

/// Times units of program work between samples of the host reference: a
/// unit's scaled time is its raw time divided by the mean of the samples
/// taken right before and right after it.  The sample taken after one unit
/// is reused as the next one's "before" when nothing ran in between.
class UnitTimer {
 public:
  explicit UnitTimer(HostReference& reference) : reference_(reference) {}

  template <typename Work>
  UnitTime time(Work&& work) {
    const double before = !samples_.empty() && secondsSince(lastAt_) < 1e-3
                              ? samples_.back()
                              : take();
    const auto t = Clock::now();
    work();
    const double raw = secondsSince(t);
    const double after = take();
    return {raw, raw / (0.5 * (before + after))};
  }

  /// Every sample so far: the host's speed through the run.
  const std::vector<double>& samples() const { return samples_; }

 private:
  double take() {
    samples_.push_back(reference_.sample());
    lastAt_ = Clock::now();
    return samples_.back();
  }

  HostReference& reference_;
  std::vector<double> samples_;
  Clock::time_point lastAt_;
};

/// Sum over a plant's instances of each one's median (`scaled`) or fastest
/// (raw) time over its repetitions.  Every repetition of one instance is
/// the same work (its hashes must match the first's).
double perInstance(const std::vector<std::vector<UnitTime>>& instances,
                   bool scaled) {
  double total = 0;
  for (const std::vector<UnitTime>& reps : instances) {
    std::vector<double> t;
    for (const UnitTime& u : reps) t.push_back(scaled ? u.scaled : u.raw);
    total += scaled ? median(t) : fastest(t);
  }
  return total;
}

/// Each request's median scaled (or fastest raw) time over the repetitions
/// of its trace.  Every repetition asks the same requests of an engine in
/// the same state (its verdict and final-state hashes must match the
/// first's), so request i is the same work in each; a trace's requests are
/// scaled by the reference samples around the trace.
template <typename Rep>
std::vector<double> perRequest(const std::vector<Rep>& reps,
                               std::vector<double> Rep::*times, bool scaled) {
  std::vector<double> out;
  for (std::size_t i = 0;; ++i) {
    std::vector<double> t;
    for (const Rep& r : reps) {
      const std::vector<double>& seconds = r.*times;
      if (i < seconds.size()) {
        t.push_back(scaled ? seconds[i] / r.factor : seconds[i]);
      }
    }
    if (t.empty()) return out;
    out.push_back(scaled ? median(t) : fastest(t));
  }
}

/// Nearest-rank percentile on q * (n - 1); for n = 1000 and q = 0.99 ten
/// samples lie beyond it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// FNV-1a over 64-bit words (determinism fingerprints).
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    add(s.size());
  }
};

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Operations attempted and failed.  Ladder rejections are verdicts, not
/// failures; a failure is an infeasible deploy, an exception, a validator
/// violation, open books, an "invalid" rung on a well-formed request, or a
/// repetition that does not reproduce the first.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }
};

/// Peak resident set (VmHWM) since the last resetResidentPeak(), in MB.
double residentPeakMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Lowers the peak resident set to the current one (Linux >= 4.0).
void resetResidentPeak() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// One timed phase of the run: repetitions of `rep`, run while its share
/// of the budget lasts (the next repetition is assumed as long as the
/// last) and at least `minReps` times.
struct Phase {
  double budget = 0;
  std::function<void(int)> rep;
  int minReps = 1;
  int maxReps = 1000;
  int reps = 0;
  double elapsed = 0;
  double last = 0;
  std::vector<double> peaksMb = {};  // peak resident set of each repetition

  bool wants() const {
    return reps < minReps || (reps < maxReps && elapsed + last <= budget);
  }
};

/// Runs the phases round-robin so every phase's repetitions sample the
/// whole run rather than one stretch of it: in round r of `rounds`, a
/// phase repeats until it has used r / rounds of its budget (at least one
/// repetition per round while it still wants more).
void interleave(std::vector<Phase>& phases, int rounds = 8) {
  for (int round = 1;; ++round) {
    bool ran = false;
    for (Phase& p : phases) {
      const double quota = p.budget * std::min(round, rounds) / rounds;
      for (bool first = true;
           p.wants() && (first || p.elapsed + p.last <= quota); first = false) {
        resetResidentPeak();
        const auto t = Clock::now();
        p.rep(p.reps);
        p.last = secondsSince(t);
        p.elapsed += p.last;
        ++p.reps;
        p.peaksMb.push_back(residentPeakMb());
        // Hand freed memory back, so the next repetition starts from the
        // run's live data, not from heap the interleaving left behind.
        malloc_trim(0);
        ran = true;
      }
    }
    if (!ran) return;
  }
}

// ---------------------------------------------------------------- plan

struct Deployed {
  std::shared_ptr<const sched::MethodSchedule> ms;
  sched::NetworkProgram program;
  net::PsfpConfig filters;
  std::uint64_t hash = 0;
};

struct PlanResult {
  std::vector<double> deploySeconds;  // per repetition, summed over instances
  std::vector<std::vector<UnitTime>> instanceTimes;  // per instance, per rep
  std::vector<double> solveSeconds;   // SolveInfo::solveSeconds, likewise
  std::vector<double> phaseSeconds;
  std::vector<Deployed> deployed;     // first repetition, per instance
};

/// Deploys every instance once; `times` gets each instance's time.
void deployAll(const std::vector<Experiment>& exps, UnitTimer& timer,
               Tracer& tracer, Ledger& ledger, std::vector<Deployed>* out,
               std::vector<UnitTime>* times, double* solve) {
  *solve = 0;
  for (std::size_t i = 0; i < exps.size(); ++i) {
    const Experiment& ex = exps[i];
    ++ledger.attempted;
    Deployed d;
    std::string error;
    times->push_back(timer.time([&] {
      try {
        {
          SpanScope s(tracer, "sched.solve_schedule");
          d.ms = solveSchedule(ex);  // validates: throws on any violation
        }
        if (d.ms->schedule.info.feasible) {
          {
            SpanScope s(tracer, "sched.compile_program");
            d.program = sched::compileProgram(ex.topo, *d.ms);
          }
          SpanScope s(tracer, "net.compile_filters");
          d.filters = net::compileFilters(ex.topo, *d.ms);
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
    }));
    if (!error.empty() || !d.ms) {
      ledger.fail("deploy " + std::to_string(i) + ": " + error);
      out->push_back(std::move(d));
      continue;
    }
    *solve += d.ms->schedule.info.solveSeconds;
    if (!d.ms->schedule.info.feasible) {
      ledger.fail("deploy " + std::to_string(i) + ": infeasible");
    } else {
      d.hash = sched::scheduleHash(d.ms->schedule);
    }
    out->push_back(std::move(d));
  }
}

void planRep(const std::vector<Experiment>& exps, int rep, UnitTimer& timer,
             Tracer& tracer, Ledger& ledger, PlanResult& r) {
  std::vector<Deployed> deployed;
  std::vector<UnitTime> times;
  double solve = 0;
  const auto t0 = Clock::now();
  {
    SpanScope phase(tracer, "plan");
    deployAll(exps, timer, tracer, ledger, &deployed, &times, &solve);
  }
  r.phaseSeconds.push_back(secondsSince(t0));
  r.instanceTimes.resize(times.size());
  double raw = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    r.instanceTimes[i].push_back(times[i]);
    raw += times[i].raw;
  }
  r.deploySeconds.push_back(raw);
  r.solveSeconds.push_back(solve);
  if (rep == 0) {
    r.deployed = std::move(deployed);
    return;
  }
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    if (deployed[i].hash != r.deployed[i].hash) {
      ledger.fail("deploy " + std::to_string(i) +
                  ": schedule differs from the first repetition");
    }
  }
}

// -------------------------------------------------------------- verify

struct SimOutcome {
  std::int64_t events = 0;
  std::int64_t framesDelivered = 0;
  std::int64_t tctDelivered = 0;
  std::int64_t tctMisses = 0;
  TimeNs ectWorst = 0;
  std::uint64_t latencyHash = 0;
};

struct VerifyResult {
  std::vector<double> hostSeconds;  // per repetition, build + run
  std::vector<std::vector<UnitTime>> instanceTimes;  // per instance, per rep
  std::vector<double> phaseSeconds;
  std::vector<SimOutcome> outcomes;  // first repetition, per instance
  double simulatedSeconds = 0;       // per repetition
};

/// Reads one finished run; open books on any stream fail the operation.
SimOutcome inspect(const Experiment& ex, const sim::Network& network,
                   const std::string& label, Ledger& ledger) {
  SimOutcome o;
  o.events = network.simulator().eventsProcessed();
  Fnv latencies;
  const sim::Recorder& rec = network.recorder();
  bool closed = true;
  for (int i = 0; i < rec.numSpecs(); ++i) {
    const sim::StreamRecord& r = rec.record(i);
    o.framesDelivered += r.framesDelivered;
    for (const TimeNs l : r.latencies) latencies.add(static_cast<std::uint64_t>(l));
    if (ex.specs[static_cast<std::size_t>(i)].type ==
        net::TrafficClass::TimeTriggered) {
      o.tctDelivered += r.messagesDelivered;
      o.tctMisses += r.deadlineMisses;
    } else {
      for (const TimeNs l : r.latencies) o.ectWorst = std::max(o.ectWorst, l);
    }
    const std::int64_t frameEnds =
        r.framesDelivered + r.framesDroppedLoss + r.framesDroppedOutage +
        r.framesDroppedPolicer + r.framesDroppedOverflow +
        r.duplicatesEliminated + r.framesInFlight;
    const std::int64_t messageEnds =
        r.messagesDelivered + r.messagesLost + r.messagesUnterminated;
    closed = closed && r.framesEmitted == frameEnds &&
             r.messagesSent == messageEnds;
  }
  if (!closed) ledger.fail("simulate " + label + ": books do not close");
  o.latencyHash = latencies.h;
  return o;
}

void verifyRep(const Plant& plant, const std::vector<Experiment>& exps,
               const std::vector<Deployed>& deployed, int rep,
               UnitTimer& timer, Tracer& tracer, Ledger& ledger,
               VerifyResult& r) {
  std::vector<UnitTime> host(exps.size());
  std::vector<SimOutcome> outcomes;
  const auto t0 = Clock::now();
  {
    SpanScope phase(tracer, "verify");
    for (std::size_t i = 0; i < exps.size(); ++i) {
      if (!deployed[i].ms || !deployed[i].ms->schedule.info.feasible) {
        outcomes.emplace_back();
        continue;
      }
      ++ledger.attempted;
      std::unique_ptr<sim::Network> network;
      std::string error;
      host[i] = timer.time([&] {
        try {
          {
            SpanScope s(tracer, "sim.build");
            network = std::make_unique<sim::Network>(
                exps[i].topo, deployed[i].program, exps[i].simConfig);
          }
          SpanScope s(tracer, "sim.run");
          network->run();
        } catch (const std::exception& e) {
          error = e.what();
        }
      });
      if (!error.empty()) {
        ledger.fail("simulate " + plant.instances[i].label + ": " + error);
        outcomes.emplace_back();
        continue;
      }
      outcomes.push_back(
          inspect(exps[i], *network, plant.instances[i].label, ledger));
    }
  }
  r.phaseSeconds.push_back(secondsSince(t0));
  r.instanceTimes.resize(host.size());
  double raw = 0;
  for (std::size_t i = 0; i < host.size(); ++i) {
    r.instanceTimes[i].push_back(host[i]);
    raw += host[i].raw;
  }
  r.hostSeconds.push_back(raw);
  if (rep == 0) {
    r.outcomes = std::move(outcomes);
    return;
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].latencyHash != r.outcomes[i].latencyHash ||
        outcomes[i].events != r.outcomes[i].events) {
      ledger.fail("simulate " + plant.instances[i].label +
                  ": run differs from the first repetition");
    }
  }
}

// ------------------------------------------------------------- operate

struct OperateRep {
  std::vector<double> decisionSeconds;  // AdmissionDecision::seconds
  std::vector<double> requestSeconds;   // each request() call, timed outside
  double loopSeconds = 0;               // their sum
  double factor = 1;  // host reference around the trace (raw / scaled)
  std::int64_t admitted = 0;
  std::int64_t movedStreams = 0;
  std::int64_t resolveAdmits = 0;  // re-solves that admitted
  std::map<std::string, std::int64_t> rungs;
  std::map<std::string, std::vector<double>> rungSeconds;
  std::uint64_t verdictHash = 0;
  std::uint64_t finalHash = 0;
};

struct OperateResult {
  std::vector<OperateRep> reps;
  std::vector<double> phaseSeconds;
};

std::unique_ptr<sched::AdmissionEngine> makeEngine(const Plant& plant,
                                                   Tracer& tracer) {
  SpanScope s(tracer, "admission.init");
  return std::make_unique<sched::AdmissionEngine>(
      plant.topo,
      plant.engineSpecs.empty() ? plant.instances.front().specs
                                : plant.engineSpecs,
      plant.options.config,
      admissionOptions(plant));
}

OperateRep operateOnce(const Plant& plant, sched::AdmissionEngine& engine,
                       Tracer& tracer, Ledger& ledger) {
  OperateRep r;
  ChurnClient client(plant);
  Fnv verdicts;
  std::int64_t step = 0;
  while (!client.done()) {
    const sched::AdmissionRequest req = client.next();
    ++ledger.attempted;
    sched::AdmissionDecision d;
    const auto t0 = Clock::now();
    try {
      SpanScope s(tracer, "admission.request", step);
      d = engine.request(req);
    } catch (const std::exception& e) {
      ledger.fail("request " + std::to_string(step) + " threw: " + e.what());
      d.rung = "exception";
    }
    r.requestSeconds.push_back(secondsSince(t0));
    r.loopSeconds += r.requestSeconds.back();
    client.observe(req, d);
    r.decisionSeconds.push_back(d.seconds);
    ++r.rungs[d.rung];
    r.rungSeconds[d.rung].push_back(d.seconds);
    r.movedStreams += d.movedStreams;
    if (d.rung == "resolve" && d.admitted) ++r.resolveAdmits;
    verdicts.add(d.rung);
    verdicts.add(d.admitted ? 1 : 0);
    if (d.rung == "invalid") {
      ledger.fail("request " + std::to_string(step) + " invalid: " + d.detail);
    }
    if (d.admitted && ++r.admitted % 100 == 0 &&
        !sched::validate(plant.topo, engine.schedule()).empty()) {
      ledger.fail("admitted state after request " + std::to_string(step) +
                  " violates the schedule constraints");
    }
    ++step;
  }
  const sched::Schedule final = engine.schedule();
  if (!sched::validate(plant.topo, final).empty()) {
    ledger.fail("final admitted state violates the schedule constraints");
  }
  r.verdictHash = verdicts.h;
  r.finalHash = sched::scheduleHash(final);
  return r;
}

/// `first` is the engine setup built; later repetitions build their own.
void operateRep(const Plant& plant,
                std::unique_ptr<sched::AdmissionEngine>& first, int rep,
                UnitTimer& timer, Tracer& tracer, Ledger& ledger,
                OperateResult& r) {
  std::unique_ptr<sched::AdmissionEngine> engine = std::move(first);
  if (rep > 0) engine = makeEngine(plant, tracer);
  if (!engine->feasible()) {
    ++ledger.attempted;
    ledger.fail("admission engine: base plant infeasible");
    r.reps.emplace_back();
    return;
  }
  const auto t0 = Clock::now();
  {
    SpanScope phase(tracer, "operate");
    OperateRep trace;
    const UnitTime t = timer.time(
        [&] { trace = operateOnce(plant, *engine, tracer, ledger); });
    trace.factor = t.scaled > 0 ? t.raw / t.scaled : 1;
    r.reps.push_back(std::move(trace));
  }
  r.phaseSeconds.push_back(secondsSince(t0));
  const OperateRep& now = r.reps.back();
  if (rep > 0 && (now.verdictHash != r.reps[0].verdictHash ||
                  now.finalHash != r.reps[0].finalHash)) {
    ledger.fail("admission: verdicts differ from the first repetition");
  }
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void printResult(bool correct, const Ledger& ledger,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted
      << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << jsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

/// The largest, over the phases, of a phase's median per-repetition peak
/// resident set: the working set of the heaviest phase, without the
/// one-off peaks the heap's state at some moment of the run adds.  Falls
/// back to the process's peak when /proc gives nothing.
double peakRssMb(const std::vector<Phase>& phases,
                 const HostReference& reference) {
  double peak = 0;
  for (const Phase& p : phases) peak = std::max(peak, median(p.peaksMb));
  if (peak <= 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    peak = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  }
  return peak - reference.residentBytes() / (1024.0 * 1024.0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options opt;
  std::string error;
  if (!parseArgs(argc, argv, &opt, &error)) {
    std::fprintf(stderr, "error: %s\n%s\n", error.c_str(), kUsage);
    return 2;
  }
  const auto& names = workloadNames();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  // Built first, before the program allocates anything.
  HostReference reference;
  UnitTimer timer(reference);
  Tracer tracer(opt.trace);
  Ledger ledger;

  // --- setup: plant generation + the admission engine's initial solve.
  // The first set-up builds the plant and engine the phases use; the
  // others run between the phases' repetitions and are discarded.
  std::vector<double> setupSeconds;
  auto setUp = [&](std::unique_ptr<Plant>& plant,
                   std::unique_ptr<sched::AdmissionEngine>& engine) {
    const auto t0 = Clock::now();
    {
      SpanScope s(tracer, "workload.generate");
      plant = std::make_unique<Plant>(
          makePlant(opt.workload, opt.seed, opt.shortRun));
    }
    engine = makeEngine(*plant, tracer);
    setupSeconds.push_back(secondsSince(t0));
  };
  std::unique_ptr<Plant> plant;
  std::unique_ptr<sched::AdmissionEngine> engine;
  setUp(plant, engine);

  std::vector<Experiment> exps;
  for (const Instance& in : plant->instances) {
    Experiment ex;
    ex.topo = plant->topo;
    ex.specs = in.specs;
    ex.options = plant->options;
    ex.simConfig.duration = plant->simHorizon;
    ex.simConfig.seed = opt.seed;
    exps.push_back(std::move(ex));
  }
  std::printf("workload %s seed %llu (plant seed %llu): %zu instance(s), "
              "%zu specs in the first, %.3g s simulated each, %d churn "
              "requests\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(plant->seed), exps.size(),
              exps[0].specs.size(),
              static_cast<double>(plant->simHorizon) / 1e9, plant->requests);

  PlanResult plan;
  VerifyResult verify;
  verify.simulatedSeconds = static_cast<double>(plant->simHorizon) / 1e9 *
                            static_cast<double>(exps.size());
  OperateResult operate;
  const PhaseShares& share = plant->shares;
  std::vector<Phase> phases = {
      {share.plan * opt.seconds,
       [&](int rep) { planRep(exps, rep, timer, tracer, ledger, plan); }},
      {share.verify * opt.seconds,
       [&](int rep) {
         verifyRep(*plant, exps, plan.deployed, rep, timer, tracer, ledger,
                   verify);
       },
       2},
      {share.operate * opt.seconds,
       [&](int rep) {
         operateRep(*plant, engine, rep, timer, tracer, ledger, operate);
       }},
      {std::max(2.0, 0.05 * opt.seconds),
       [&](int) {
         std::unique_ptr<Plant> p;
         std::unique_ptr<sched::AdmissionEngine> e;
         setUp(p, e);
       },
       5, 1000},
  };
  interleave(phases);

  // Traced run only: the layers nested inside the deploy calls, each
  // called once more in its own span outside the phase spans.
  std::int64_t placementSteps = 0;
  double placementSeconds = 0;
  if (tracer.enabled()) {
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const Deployed& d = plan.deployed[i];
      if (!d.ms || !d.ms->schedule.info.feasible) continue;
      sched::Expansion expansion;
      {
        SpanScope s(tracer, "sched.expand");
        expansion = sched::expandStreams(exps[i].topo, exps[i].specs,
                                         plant->options.config);
      }
      ++ledger.attempted;
      {
        SpanScope s(tracer, "sched.validate");
        if (!sched::validate(exps[i].topo, d.ms->schedule).empty()) {
          ledger.fail("deploy " + plant->instances[i].label +
                      ": validator violation");
        }
      }
      SpanScope s(tracer, "sched.portfolio");
      const sched::PortfolioResult pr =
          sched::runPortfolio(exps[i].topo, expansion.streams,
                              plant->options.config, plant->options.portfolio);
      for (const sched::EngineRun& run : pr.runs) {
        placementSteps += run.steps;
        placementSeconds += run.seconds;
      }
    }
  }

  // --- fingerprints and deterministic results (never compared to
  // constants here: the determinism test compares two runs).
  SimOutcome total;  // over the instances of the first repetition
  std::int64_t streams = 0, slots = 0, gclEntries = 0;
  sched::SolveInfo smt;
  for (std::size_t i = 0; i < exps.size(); ++i) {
    const Deployed& d = plan.deployed[i];
    if (!d.ms) continue;
    const sched::Schedule& s = d.ms->schedule;
    std::printf("fingerprint schedule %s %s\n",
                plant->instances[i].label.c_str(), hex(d.hash).c_str());
    streams += static_cast<std::int64_t>(s.streams.size());
    slots += static_cast<std::int64_t>(s.slots.size());
    smt.smtConflicts += s.info.smtConflicts;
    smt.smtDecisions += s.info.smtDecisions;
    smt.smtAtoms += s.info.smtAtoms;
    smt.smtClauses += s.info.smtClauses;
    for (const net::Gcl& g : d.program.linkGcl) {
      gclEntries += static_cast<std::int64_t>(g.entries().size());
    }
  }
  for (std::size_t i = 0; i < verify.outcomes.size(); ++i) {
    const SimOutcome& o = verify.outcomes[i];
    std::printf("fingerprint latencies %s %s\n",
                plant->instances[i].label.c_str(),
                hex(o.latencyHash).c_str());
    total.events += o.events;
    total.framesDelivered += o.framesDelivered;
    total.tctDelivered += o.tctDelivered;
    total.tctMisses += o.tctMisses;
    total.ectWorst = std::max(total.ectWorst, o.ectWorst);
  }
  const OperateRep& churn = operate.reps.front();
  const auto requests = static_cast<double>(churn.decisionSeconds.size());
  std::printf("fingerprint admission-final %s\n",
              hex(churn.finalHash).c_str());
  std::printf("fingerprint verdicts %s\n", hex(churn.verdictHash).c_str());
  auto rungCount = [&](const char* rung) {
    const auto it = churn.rungs.find(rung);
    return it == churn.rungs.end() ? std::int64_t{0} : it->second;
  };
  const double ectWorstUs = static_cast<double>(total.ectWorst) / 1e3;
  const double ontime =
      ratio(static_cast<double>(total.tctDelivered - total.tctMisses),
            static_cast<double>(total.tctDelivered));
  const double admitRatio = ratio(static_cast<double>(churn.admitted), requests);
  std::printf("deterministic ect_worst_us %.3f\n", ectWorstUs);
  std::printf("deterministic tct_ontime_ratio %.9f\n", ontime);
  std::printf("deterministic admit_ratio %.9f\n", admitRatio);
  const std::pair<const char*, std::int64_t> counts[] = {
      {"smt.conflicts", smt.smtConflicts},
      {"smt.decisions", smt.smtDecisions},
      {"smt.atoms", smt.smtAtoms},
      {"smt.clauses", smt.smtClauses},
      {"sched.streams", streams},
      {"sched.slots", slots},
      {"net.gcl_entries", gclEntries},
      {"sim.events", total.events},
      {"sim.frames_delivered", total.framesDelivered},
      {"sim.tct_delivered", total.tctDelivered},
      {"sim.tct_late", total.tctMisses},
      {"admission.requests", static_cast<std::int64_t>(requests)},
      {"admission.admitted", churn.admitted},
      {"admission.cache", rungCount("cache")},
      {"admission.delta", rungCount("delta")},
      {"admission.ripup", rungCount("ripup")},
      {"admission.smt", rungCount("smt")},
      {"admission.resolve", rungCount("resolve")},
      {"admission.resolve_admits", churn.resolveAdmits},
      {"admission.moved_streams", churn.movedStreams},
  };
  for (const auto& [name, value] : counts) {
    std::printf("count %s %lld\n", name, static_cast<long long>(value));
  }
  std::printf("repetitions: setup %zu, plan %zu, verify %zu, operate %zu\n",
              setupSeconds.size(), plan.deploySeconds.size(),
              verify.hostSeconds.size(), operate.reps.size());
  std::vector<double> loopSeconds;
  for (const OperateRep& r : operate.reps) loopSeconds.push_back(r.loopSeconds);
  const std::pair<const char*, const std::vector<double>*> repTimes[] = {
      {"deploy", &plan.deploySeconds},
      {"simulate", &verify.hostSeconds},
      {"requests", &loopSeconds}};
  for (const auto& [name, times] : repTimes) {
    if (times->empty()) continue;
    std::printf("seconds %s (raw): %zu repetitions, fastest %.4g, median "
                "%.4g, slowest %.4g\n",
                name, times->size(), fastest(*times), median(*times),
                *std::max_element(times->begin(), times->end()));
  }
  const std::vector<double>& host = timer.samples();
  const double hostFactor = host.empty() ? 1 : median(host);
  if (!host.empty()) {
    std::printf("host reference: %zu samples, fastest %.4g, median %.4g, "
                "slowest %.4g of nominal\n",
                host.size(), fastest(host), hostFactor,
                *std::max_element(host.begin(), host.end()));
  }

  const double planPhase = median(plan.phaseSeconds);
  const double verifyPhase = median(verify.phaseSeconds);
  const double operatePhase = median(operate.phaseSeconds);
  std::vector<Metric> metrics;
  if (!tracer.enabled()) {
    // Unscaled counterparts from the fastest repetitions, for reference.
    const std::vector<double> rawDecisions =
        perRequest(operate.reps, &OperateRep::decisionSeconds, false);
    const std::vector<double> rawCalls =
        perRequest(operate.reps, &OperateRep::requestSeconds, false);
    std::printf("unscaled setup_s %.6g deploy_s %.6g sim_x_realtime %.6g "
                "admit_p50_us %.6g admit_p99_ms %.6g admits_per_s %.6g\n",
                median(setupSeconds), perInstance(plan.instanceTimes, false),
                ratio(verify.simulatedSeconds,
                      perInstance(verify.instanceTimes, false)),
                median(rawDecisions) * 1e6,
                percentile(rawDecisions, 0.99) * 1e3,
                ratio(requests, sum(rawCalls)));
    const std::vector<double> decisions =
        perRequest(operate.reps, &OperateRep::decisionSeconds, true);
    const std::vector<double> calls =
        perRequest(operate.reps, &OperateRep::requestSeconds, true);
    metrics = {
        {"setup_s", median(setupSeconds) / hostFactor, "s"},
        {"deploy_s",
         perInstance(plan.instanceTimes, plant->scaleDeployAndSimulation),
         "s"},
        {"sim_x_realtime",
         ratio(verify.simulatedSeconds,
               perInstance(verify.instanceTimes,
                           plant->scaleDeployAndSimulation)),
         "x"},
        {"ect_worst_us", ectWorstUs, "us"},
        {"tct_ontime_ratio", ontime, "ratio"},
        {"admit_p50_us", median(decisions) * 1e6, "us"},
        {"admit_p99_ms", percentile(decisions, 0.99) * 1e3, "ms"},
        {"admits_per_s", ratio(requests, sum(calls)), "1/s"},
        {"admit_ratio", admitRatio, "ratio"},
        {"peak_rss_mb", peakRssMb(phases, reference), "MB"},
    };
    if (!opt.untracedPath.empty()) {
      std::ofstream out(opt.untracedPath);
      out << planPhase << " " << verifyPhase << " " << operatePhase << "\n";
    }
  } else {
    const double planReps = static_cast<double>(plan.phaseSeconds.size());
    const double verifyReps = static_cast<double>(verify.phaseSeconds.size());
    const double solve = median(plan.solveSeconds);
    const double compile = tracer.selfSeconds("sched.compile_program") /
                           planReps;
    const double run = tracer.selfSeconds("sim.run") / verifyReps;
    auto rungP50 = [&](const char* rung) {
      std::vector<double> all;
      for (const OperateRep& r : operate.reps) {
        const auto it = r.rungSeconds.find(rung);
        if (it != r.rungSeconds.end()) {
          all.insert(all.end(), it->second.begin(), it->second.end());
        }
      }
      return median(all);
    };
    const auto resolveIt = churn.rungSeconds.find("resolve");
    const double resolveSeconds =
        resolveIt == churn.rungSeconds.end() ? 0 : sum(resolveIt->second);
    const auto conflicts = static_cast<double>(smt.smtConflicts);
    std::vector<double> init = tracer.durations("admission.init");
    metrics = {
        {"workload.generate_s", median(tracer.durations("workload.generate")),
         "s"},
        {"smt.conflicts", conflicts, "count"},
        {"smt.decisions", static_cast<double>(smt.smtDecisions), "count"},
        {"smt.decisions_per_conflict",
         ratio(static_cast<double>(smt.smtDecisions), conflicts), "ratio"},
        {"smt.conflicts_per_s",
         plant->options.engine == sched::Engine::Smt ? ratio(conflicts, solve)
                                                     : 0,
         "1/s"},
        {"smt.atoms", static_cast<double>(smt.smtAtoms), "count"},
        {"smt.clauses", static_cast<double>(smt.smtClauses), "count"},
        {"sched.expand_s", tracer.selfSeconds("sched.expand"), "s"},
        {"sched.streams", static_cast<double>(streams), "count"},
        {"sched.solve_s", solve, "s"},
        {"sched.slots", static_cast<double>(slots), "count"},
        {"sched.placement_steps_per_s",
         ratio(static_cast<double>(placementSteps), placementSeconds), "1/s"},
        {"sched.validate_s", tracer.selfSeconds("sched.validate"), "s"},
        {"sched.compile_program_s", compile, "s"},
        {"net.gcl_entries", static_cast<double>(gclEntries), "count"},
        {"net.gcl_entries_per_s",
         ratio(static_cast<double>(gclEntries), compile), "1/s"},
        {"net.compile_filters_s",
         tracer.selfSeconds("net.compile_filters") / planReps, "s"},
        {"sim.build_s", tracer.selfSeconds("sim.build") / verifyReps, "s"},
        {"sim.run_s", run, "s"},
        {"sim.events", static_cast<double>(total.events), "count"},
        {"sim.events_per_s", ratio(static_cast<double>(total.events), run),
         "1/s"},
        {"sim.frames_delivered", static_cast<double>(total.framesDelivered),
         "count"},
        {"sim.tct_late", static_cast<double>(total.tctMisses), "count"},
        {"admission.init_s", median(init), "s"},
        {"admission.cache", static_cast<double>(rungCount("cache")), "count"},
        {"admission.delta", static_cast<double>(rungCount("delta")), "count"},
        {"admission.ripup", static_cast<double>(rungCount("ripup")), "count"},
        {"admission.smt", static_cast<double>(rungCount("smt")), "count"},
        {"admission.resolve", static_cast<double>(rungCount("resolve")),
         "count"},
        {"admission.resolve_admits", static_cast<double>(churn.resolveAdmits),
         "count"},
        {"admission.rejects",
         requests - static_cast<double>(churn.admitted), "count"},
        {"admission.cache_p50_us", rungP50("cache") * 1e6, "us"},
        {"admission.delta_p50_us", rungP50("delta") * 1e6, "us"},
        {"admission.ripup_p50_ms", rungP50("ripup") * 1e3, "ms"},
        {"admission.resolve_p50_ms", rungP50("resolve") * 1e3, "ms"},
        {"admission.resolve_s", resolveSeconds, "s"},
        {"admission.moved_streams", static_cast<double>(churn.movedStreams),
         "count"},
        {"admission.cache_hit_ratio",
         ratio(static_cast<double>(rungCount("cache")), requests), "ratio"},
        {"phase.plan_s", planPhase, "s"},
        {"phase.verify_s", verifyPhase, "s"},
        {"phase.operate_s", operatePhase, "s"},
    };
    std::ifstream in(opt.untracedPath);
    double untraced[3] = {0, 0, 0};
    if (!opt.untracedPath.empty() && in >> untraced[0] >> untraced[1] >>
                                         untraced[2]) {
      const double traced[3] = {planPhase, verifyPhase, operatePhase};
      const char* names[3] = {"plan", "verify", "operate"};
      for (int i = 0; i < 3; ++i) {
        std::printf("tracing overhead %s: %+.4f s (%+.2f%%) against the last "
                    "untraced run\n",
                    names[i], traced[i] - untraced[i],
                    100 * ratio(traced[i] - untraced[i], untraced[i]));
      }
    } else {
      std::printf("tracing overhead: no untraced run of this workload to "
                  "compare against yet\n");
    }
    if (!opt.spansPath.empty() && !tracer.write(opt.spansPath)) {
      std::printf("warning: could not write spans to %s\n",
                  opt.spansPath.c_str());
    }
    const double phaseTotal = sum(plan.phaseSeconds) +
                              sum(verify.phaseSeconds) +
                              sum(operate.phaseSeconds);
    const double cost = Tracer::spanCost() * static_cast<double>(tracer.size());
    std::printf("tracing cost: %zu spans x %.0f ns = %.4f s, %.3f%% of the "
                "traced phase time\n",
                tracer.size(), 1e9 * cost / static_cast<double>(tracer.size()),
                cost, 100 * ratio(cost, phaseTotal));
  }

  printResult(ledger.failed == 0, ledger, metrics);
  return 0;
}
