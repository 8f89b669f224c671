#include "sched/portfolio.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <climits>
#include <deque>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sched/placement.h"

namespace etsn::sched {

namespace {

// Search budgets.  greedy: rip-ups before giving up; tabu: force-in moves
// before giving up, and the eviction tenure.
constexpr int kGreedyBacktrack = 256;
constexpr int kTabuIterations = 20000;
constexpr int kTabuTenure = 16;

/// The placement order of greedy and tabu's seed: deterministic
/// streams first, tightest laxity first; then probabilistic streams in
/// (spec, occurrence) order so early possibilities grab the early shared
/// slots.
std::vector<StreamId> laxityOrder(const std::vector<ExpandedStream>& streams) {
  std::vector<StreamId> order;
  for (const ExpandedStream& s : streams) order.push_back(s.id);
  std::stable_sort(order.begin(), order.end(),
                   [&](StreamId ia, StreamId ib) {
                     const ExpandedStream& a =
                         streams[static_cast<std::size_t>(ia)];
                     const ExpandedStream& b =
                         streams[static_cast<std::size_t>(ib)];
                     if ((a.kind == StreamKind::Det) !=
                         (b.kind == StreamKind::Det)) {
                       return a.kind == StreamKind::Det;
                     }
                     if (a.kind == StreamKind::Det) {
                       return a.maxLatency < b.maxLatency;
                     }
                     if (a.specId != b.specId) return a.specId < b.specId;
                     return a.occurrence < b.occurrence;
                   });
  return order;
}

}  // namespace

/// Greedy earliest-slot placement in laxity order with bounded
/// backtracking: on failure, rip the most recently placed conflicting
/// stream off the blocking link, retry the failed stream, and re-queue the
/// victim.
EngineResult runGreedy(const net::Topology& topo,
                       const std::vector<ExpandedStream>& streams,
                       const SchedulerConfig& config, CancelToken cancel) {
  EngineResult out;
  Placement p(topo, streams, config);
  const std::vector<StreamId> order = laxityOrder(streams);
  std::deque<StreamId> queue(order.begin(), order.end());
  int budget = kGreedyBacktrack;
  while (!queue.empty()) {
    if (cancel.cancelled()) {
      out.cancelled = true;
      return out;
    }
    const StreamId s = queue.front();
    queue.pop_front();
    ++out.steps;
    if (p.tryPlace(s)) continue;
    const std::vector<StreamId> victims =
        p.conflictCandidates(s, p.lastFailedLink());
    if (victims.empty() || budget <= 0) return out;  // gave up
    --budget;
    StreamId victim = victims.front();
    for (const StreamId v : victims) {
      if (p.placeEpoch(v) > p.placeEpoch(victim)) victim = v;
    }
    p.remove(victim);
    queue.push_front(s);
    queue.push_back(victim);
  }
  out.feasible = true;
  out.slots = p.slots();
  return out;
}

EngineResult runTabu(const net::Topology& topo,
                     const std::vector<ExpandedStream>& streams,
                     const SchedulerConfig& config,
                     const PortfolioOptions& opts, CancelToken cancel) {
  EngineResult out;
  Placement p(topo, streams, config);

  // No-rip-up seed: each stream once, in laxity order; collect the
  // conflicted remainder.
  std::deque<StreamId> unplaced;
  for (const StreamId id : laxityOrder(streams)) {
    if (cancel.cancelled()) {
      out.cancelled = true;
      return out;
    }
    ++out.steps;
    if (!p.tryPlace(id)) unplaced.push_back(id);
  }

  // Repair: force each unplaced stream in by evicting a seeded-random
  // non-tabu victim from the blocking link; evictions are tabu for a
  // tenure so the search cannot ping-pong the same pair.
  std::vector<std::int64_t> tabuUntil(streams.size(), -1);
  Rng rng(opts.seed);
  std::int64_t iter = 0;
  while (!unplaced.empty()) {
    if (cancel.cancelled()) {
      out.cancelled = true;
      return out;
    }
    if (++iter > kTabuIterations) return out;  // gave up
    const StreamId s = unplaced.front();
    ++out.steps;
    if (p.tryPlace(s)) {
      unplaced.pop_front();
      continue;
    }
    const std::vector<StreamId> victims =
        p.conflictCandidates(s, p.lastFailedLink());
    if (victims.empty()) return out;
    std::vector<StreamId> pool;
    for (const StreamId v : victims) {
      if (tabuUntil[static_cast<std::size_t>(v)] < iter) pool.push_back(v);
    }
    if (pool.empty()) pool = victims;  // aspiration: all tabu, allow any
    const StreamId victim = pool[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    p.remove(victim);
    tabuUntil[static_cast<std::size_t>(victim)] = iter + kTabuTenure;
    unplaced.push_back(victim);
  }
  out.feasible = true;
  out.slots = p.slots();
  return out;
}

PortfolioResult runPortfolio(const net::Topology& topo,
                             const std::vector<ExpandedStream>& streams,
                             const SchedulerConfig& config,
                             const PortfolioOptions& opts) {
  using Clock = std::chrono::steady_clock;
  static constexpr std::array<const char*, 2> kNames = {"greedy", "tabu"};
  constexpr std::size_t kEngines = kNames.size();
  std::atomic<int> bestRank{INT_MAX};
  std::array<EngineResult, kEngines> results;
  std::array<double, kEngines> seconds{};
  std::array<double, kEngines> doneAt{};
  const auto t0 = Clock::now();

  const int engines = static_cast<int>(kEngines);
  ThreadPool pool(opts.threads > 0 ? std::min(opts.threads, engines)
                                   : engines);
  pool.parallelFor(kEngines, [&](std::size_t i) {
    const CancelToken token{&bestRank, static_cast<int>(i)};
    const auto s0 = Clock::now();
    EngineResult r = i == 0 ? runGreedy(topo, streams, config, token)
                            : runTabu(topo, streams, config, opts, token);
    const auto now = Clock::now();
    seconds[i] = std::chrono::duration<double>(now - s0).count();
    doneAt[i] = std::chrono::duration<double>(now - t0).count();
    if (r.feasible) {
      // CAS-min: ranks above the winner may cancel, which cannot change
      // the (lowest-feasible-rank) winner.
      int cur = bestRank.load();
      while (static_cast<int>(i) < cur &&
             !bestRank.compare_exchange_weak(cur, static_cast<int>(i))) {
      }
    }
    results[i] = std::move(r);
  });

  PortfolioResult out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EngineRun run;
    run.name = kNames[i];
    run.feasible = results[i].feasible;
    run.cancelled = results[i].cancelled;
    run.seconds = seconds[i];
    run.steps = results[i].steps;
    out.runs.push_back(std::move(run));
    if (results[i].feasible &&
        (out.timeToFeasible == 0 || doneAt[i] < out.timeToFeasible)) {
      out.timeToFeasible = doneAt[i];
    }
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].feasible) {
      out.feasible = true;
      out.winner = kNames[i];
      out.slots = std::move(results[i].slots);
      break;
    }
  }
  return out;
}

}  // namespace etsn::sched
