#include "sched/scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/log.h"
#include "common/math.h"
#include "sched/expand.h"
#include "sched/smt_builder.h"

namespace etsn::sched {

const char* methodName(Method m) {
  switch (m) {
    case Method::ETSN: return "E-TSN";
    case Method::PERIOD: return "PERIOD";
    case Method::AVB: return "AVB";
  }
  return "?";
}

const char* engineName(Engine e) {
  switch (e) {
    case Engine::Smt: return "smt";
    case Engine::Greedy: return "greedy";
    case Engine::Tabu: return "tabu";
    case Engine::Portfolio: return "portfolio";
  }
  return "?";
}

Engine engineFromString(const std::string& name) {
  for (const Engine e :
       {Engine::Smt, Engine::Greedy, Engine::Tabu, Engine::Portfolio}) {
    if (name == engineName(e)) return e;
  }
  throw ConfigError("unknown scheduling engine '" + name +
                    "' (expected smt|greedy|tabu|portfolio)");
}

namespace {

/// Transform the user specs according to the method, keeping a map from
/// transformed index back to the original spec index.  AVB drops ECT specs
/// from scheduling entirely (they ride in unallocated slots at runtime).
struct TransformedSpecs {
  std::vector<net::StreamSpec> specs;
  std::vector<std::size_t> origIndex;
};

TransformedSpecs transformSpecs(const std::vector<net::StreamSpec>& in,
                                const ScheduleOptions& options) {
  TransformedSpecs out;
  const int factor = options.periodSlotFactor > 0
                         ? options.periodSlotFactor
                         : options.config.numProbabilistic;
  for (std::size_t i = 0; i < in.size(); ++i) {
    net::StreamSpec spec = in[i];
    switch (options.method) {
      case Method::ETSN:
        break;  // as-is
      case Method::PERIOD:
        spec.share = false;
        if (spec.type == net::TrafficClass::EventTriggered) {
          // Dedicated slots: a periodic stream with factor slots per
          // minimum interevent time.
          spec.type = net::TrafficClass::TimeTriggered;
          spec.period = spec.period / factor;
          if (spec.period <= 0) {
            throw ConfigError("stream '" + spec.name +
                              "': PERIOD slot factor too large");
          }
          spec.maxLatency = std::min(spec.maxLatency, spec.period * factor);
          spec.priority = -1;
        }
        break;
      case Method::AVB:
        spec.share = false;
        if (spec.type == net::TrafficClass::EventTriggered) {
          continue;  // not scheduled; handled by CBS at runtime
        }
        break;
    }
    out.specs.push_back(std::move(spec));
    out.origIndex.push_back(i);
  }
  return out;
}

}  // namespace

MethodSchedule buildSchedule(const net::Topology& topo,
                             const std::vector<net::StreamSpec>& specs,
                             const ScheduleOptions& options) {
  const TransformedSpecs ts = transformSpecs(specs, options);
  Expansion exp = expandStreams(topo, ts.specs, options.config);

  // Remap specIds back to the original spec indices.
  std::vector<std::vector<StreamId>> specToStreams(specs.size());
  for (ExpandedStream& s : exp.streams) {
    const std::size_t orig = ts.origIndex[static_cast<std::size_t>(s.specId)];
    s.specId = static_cast<std::int32_t>(orig);
    specToStreams[orig].push_back(s.id);
    if (options.method == Method::PERIOD &&
        specs[orig].type == net::TrafficClass::EventTriggered) {
      // The converted ECT stream keeps its own (EP) queue: its frames
      // arrive at stochastic event times, so sharing a FIFO with paced
      // periodic streams would break isolation at runtime.
      s.priority = options.config.ectPriority;
    }
  }

  MethodSchedule out;
  out.method = options.method;
  out.avbIdleSlopeFraction = options.avbIdleSlopeFraction;
  Schedule& sched = out.schedule;
  sched.config = options.config;
  sched.specs = specs;
  sched.specToStreams = std::move(specToStreams);

  const auto t0 = std::chrono::steady_clock::now();
  const Engine engine = options.engine;
  if (engine == Engine::Greedy || engine == Engine::Tabu) {
    EngineResult r =
        engine == Engine::Greedy
            ? runGreedy(topo, exp.streams, options.config)
            : runTabu(topo, exp.streams, options.config, options.portfolio);
    sched.streams = exp.streams;
    sched.info.feasible = r.feasible;
    sched.info.engine = engineName(engine);
    if (r.feasible) sched.slots = std::move(r.slots);
  } else if (engine == Engine::Portfolio) {
    PortfolioResult r =
        runPortfolio(topo, exp.streams, options.config, options.portfolio);
    sched.streams = exp.streams;
    sched.info.feasible = r.feasible;
    sched.info.engine = "portfolio";
    sched.info.portfolioWinner = r.winner;
    if (r.feasible) sched.slots = std::move(r.slots);
  } else {
    ScheduleSmt smt(topo, exp.streams, options.config);
    smt.buildConstraints();
    const smt::Result r = smt.solve();
    sched.streams = smt.streams();
    sched.info.feasible = (r == smt::Result::Sat);
    sched.info.engine = "smt";
    const auto st = smt.solver().stats();
    sched.info.smtAtoms = st.atoms;
    sched.info.smtClauses = st.clauses;
    sched.info.smtConflicts = st.sat.conflicts;
    sched.info.smtDecisions = st.sat.decisions;
    sched.info.smtIntVars = st.intVars;
    if (sched.info.feasible) sched.slots = smt.extractSlots();
    if (r == smt::Result::Unknown) {
      // Graceful degradation: the conflict budget ran out before a verdict.
      // Fall back to greedy rather than reporting nothing — the result is
      // marked so callers can tell it apart from a clean SMT solution.
      ETSN_LOG(Warn) << "SMT budget exhausted; degrading to greedy";
      EngineResult g = runGreedy(topo, exp.streams, options.config);
      sched.streams = exp.streams;
      sched.info.feasible = g.feasible;
      sched.info.engine = "smt+greedy";
      sched.info.degraded = true;
      if (g.feasible) sched.slots = std::move(g.slots);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  sched.info.solveSeconds =
      std::chrono::duration<double>(t1 - t0).count();

  if (options.certify && engine != Engine::Smt && sched.info.feasible &&
      !sched.streams.empty()) {
    TimeNs tu = 0;
    for (const ExpandedStream& s : sched.streams) {
      if (!s.path.empty()) {
        tu = topo.link(s.path[0]).timeUnit;
        break;
      }
    }
    if (tu > 0) {
      std::int64_t span = 0;
      for (const Slot& slot : sched.slots) {
        span = std::max(span, (slot.start + slot.duration) / tu);
      }
      sched.info.flowspanTu = span;
      const GapProbeResult probe =
          probeOptimalityGap(topo, sched.streams, options.config, span,
                             options.certifyConflictBudget);
      sched.info.certified = probe.feasibilityCertified;
      sched.info.gapCertified = probe.gapCertified;
      sched.info.flowspanLowerBoundTu = probe.lowerBoundTu;
      sched.info.gapPercent = probe.gapPercent;
      if (probe.infeasible) {
        // An incomplete engine's schedule for an SMT-infeasible instance
        // means the engines disagree on the constraint semantics — loudly
        // visible.
        ETSN_LOG(Error) << "gap probe: instance is SMT-infeasible but an "
                           "incomplete engine produced a schedule";
      }
    }
  }

  // Hyperperiod over all scheduled streams (GCL cycle).
  if (!sched.streams.empty()) {
    std::vector<std::int64_t> periods;
    for (const ExpandedStream& s : sched.streams) periods.push_back(s.period);
    sched.hyperperiod = lcmAll(periods);
  }
  return out;
}

}  // namespace etsn::sched
