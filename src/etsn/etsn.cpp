#include "etsn/etsn.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "sched/validate.h"

namespace etsn {

const StreamResult& ExperimentResult::byName(const std::string& name) const {
  for (const StreamResult& s : streams) {
    if (s.name == name) return s;
  }
  throw ConfigError("no stream result named '" + name + "'");
}

std::shared_ptr<const sched::MethodSchedule> solveSchedule(
    const Experiment& ex) {
  auto ms = std::make_shared<sched::MethodSchedule>(
      sched::buildSchedule(ex.topo, ex.specs, ex.options));
  if (ms->schedule.info.feasible && ex.validateSchedule) {
    sched::validateOrThrow(ex.topo, ms->schedule);
  }
  return ms;
}

namespace {

/// Cheap guard against wiring a presolved schedule into the wrong
/// experiment: the full inputs (topology, stream parameters, solver
/// options) are the caller's responsibility, but method and per-spec
/// identity mismatches are catchable and catch the likely bugs (stale
/// cache entry, methods crossed in a sweep loop).
void checkPresolvedMatches(const Experiment& ex,
                           const sched::MethodSchedule& ms) {
  if (ms.method != ex.options.method) {
    throw ConfigError("presolved schedule method does not match "
                      "Experiment::options.method");
  }
  const auto& specs = ms.schedule.specs;
  if (specs.size() != ex.specs.size()) {
    throw ConfigError("presolved schedule has " +
                      std::to_string(specs.size()) + " specs, experiment has " +
                      std::to_string(ex.specs.size()));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name != ex.specs[i].name) {
      throw ConfigError("presolved schedule spec " + std::to_string(i) +
                        " is '" + specs[i].name + "', experiment has '" +
                        ex.specs[i].name + "'");
    }
  }
}

}  // namespace

ExperimentResult runExperiment(const Experiment& ex) {
  ExperimentResult out;
  out.method = ex.options.method;

  std::shared_ptr<const sched::MethodSchedule> solved = ex.presolved;
  if (solved) {
    checkPresolvedMatches(ex, *solved);
  } else {
    solved = solveSchedule(ex);
  }
  const sched::MethodSchedule& ms = *solved;
  out.solve = ms.schedule.info;
  out.feasible = ms.schedule.info.feasible;
  if (!out.feasible) return out;

  const sched::NetworkProgram program = sched::compileProgram(ex.topo, ms);
  sim::SimConfig simConfig = ex.simConfig;
  if (simConfig.police.enabled) {
    simConfig.police.filters = net::compileFilters(ex.topo, ms);
  }
  // Malformed fault plans are rejected with a ConfigError by the Network
  // constructor (FaultPlan::validate).
  sim::Network network(ex.topo, program, simConfig);
  network.run();

  const sim::Recorder& rec = network.recorder();
  for (std::size_t i = 0; i < ex.specs.size(); ++i) {
    StreamResult r;
    r.name = ex.specs[i].name;
    r.type = ex.specs[i].type;
    if (static_cast<int>(i) < rec.numSpecs()) {
      static_cast<sim::StreamRecord&>(r) =
          rec.record(static_cast<std::int32_t>(i));
      r.latency = stats::summarize(r.latencies);
    }
    out.streams.push_back(std::move(r));
  }

  if (const sim::Gptp* g = network.gptp()) {
    out.gptp.enabled = true;
    static_cast<sim::GptpStats&>(out.gptp) = g->stats();
    // The margin the schedule budgeted vs the offsets the network showed.
    const TimeNs margin = ms.schedule.config.syncErrorMargin;
    std::vector<std::pair<std::uint64_t, int>> followers;
    for (net::NodeId n = 0; n < ex.topo.numNodes(); ++n) {
      const sim::GptpNodeStats& ns = g->nodeStats(n);
      out.gptp.nodes.push_back({ns, ex.topo.node(n).name});

      const TimeNs worst = std::max(ns.maxOffsetError, ns.holdoverExcursion);
      out.gptp.maxOffsetError = std::max(out.gptp.maxOffsetError, worst);
      out.gptp.maxHoldoverExcursion =
          std::max(out.gptp.maxHoldoverExcursion, ns.holdoverExcursion);
      out.gptp.maxReelectionTimeNs =
          std::max(out.gptp.maxReelectionTimeNs, ns.reelectionTimeNs);
      if (worst > margin) out.gptp.syncMarginViolations++;
      bool found = false;
      for (auto& [id, count] : followers) {
        if (id == ns.master) {
          ++count;
          found = true;
        }
      }
      if (!found) followers.push_back({ns.master, 1});
    }
    if (!followers.empty()) {
      // Majority identity (smallest id on ties): a killed grandmaster
      // keeps following itself, so "the" grandmaster is the consensus.
      const auto best = std::max_element(
          followers.begin(), followers.end(),
          [](const auto& a, const auto& b) {
            return a.second != b.second ? a.second < b.second
                                        : a.first > b.first;
          });
      out.gptp.grandmaster = best->first;
    }
  }
  return out;
}

}  // namespace etsn
