#include "sched/portfolio.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>

#include "common/check.h"
#include "common/rng.h"

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
/// slots.  Stable, so ties keep the order of `ids`.
std::vector<StreamId> laxityOrder(const std::vector<ExpandedStream>& streams,
                                  std::vector<StreamId> order) {
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

std::vector<StreamId> allIds(const std::vector<ExpandedStream>& streams) {
  std::vector<StreamId> ids;
  for (const ExpandedStream& s : streams) ids.push_back(s.id);
  return ids;
}

}  // namespace

/// Greedy earliest-slot placement in laxity order with bounded
/// backtracking: on failure, rip the most recently placed conflicting
/// stream off the blocking link, retry the failed stream, and re-queue the
/// victim.
EngineResult runGreedy(Placement& p, const std::vector<StreamId>& ids) {
  ETSN_CHECK(p.numPlaced() == 0);
  EngineResult out;
  const std::vector<StreamId> order = laxityOrder(p.streams(), ids);
  std::deque<StreamId> queue(order.begin(), order.end());
  int budget = kGreedyBacktrack;
  while (!queue.empty()) {
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
  return out;
}

EngineResult runTabu(Placement& p, const std::vector<StreamId>& ids,
                     const PortfolioOptions& opts) {
  ETSN_CHECK(p.numPlaced() == 0);
  EngineResult out;

  // No-rip-up seed: each stream once, in laxity order; collect the
  // conflicted remainder.
  std::deque<StreamId> unplaced;
  for (const StreamId id : laxityOrder(p.streams(), ids)) {
    ++out.steps;
    if (!p.tryPlace(id)) unplaced.push_back(id);
  }

  // Repair: force each unplaced stream in by evicting a seeded-random
  // non-tabu victim from the blocking link; evictions are tabu for a
  // tenure so the search cannot ping-pong the same pair.
  std::vector<std::int64_t> tabuUntil(p.streams().size(), -1);
  Rng rng(opts.seed);
  std::int64_t iter = 0;
  while (!unplaced.empty()) {
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
  return out;
}

EngineResult runGreedy(const net::Topology& topo,
                       const std::vector<ExpandedStream>& streams,
                       const SchedulerConfig& config) {
  Placement p(topo, streams, config);
  EngineResult out = runGreedy(p, allIds(streams));
  if (out.feasible) out.slots = p.slots();
  return out;
}

EngineResult runTabu(const net::Topology& topo,
                     const std::vector<ExpandedStream>& streams,
                     const SchedulerConfig& config,
                     const PortfolioOptions& opts) {
  Placement p(topo, streams, config);
  EngineResult out = runTabu(p, allIds(streams), opts);
  if (out.feasible) out.slots = p.slots();
  return out;
}

PortfolioResult runPortfolio(Placement& p, const std::vector<StreamId>& ids,
                             const PortfolioOptions& opts) {
  using Clock = std::chrono::steady_clock;
  static constexpr std::array<const char*, 2> kNames = {"greedy", "tabu"};
  PortfolioResult out;
  for (std::size_t rank = 0; rank < kNames.size() && !out.feasible; ++rank) {
    p.clear();
    const auto t0 = Clock::now();
    const EngineResult r =
        rank == 0 ? runGreedy(p, ids) : runTabu(p, ids, opts);
    out.runs.push_back(
        {kNames[rank], r.feasible,
         std::chrono::duration<double>(Clock::now() - t0).count(), r.steps});
    if (r.feasible) {
      out.feasible = true;
      out.winner = kNames[rank];
    }
  }
  return out;
}

PortfolioResult runPortfolio(const net::Topology& topo,
                             const std::vector<ExpandedStream>& streams,
                             const SchedulerConfig& config,
                             const PortfolioOptions& opts) {
  Placement p(topo, streams, config);
  PortfolioResult out = runPortfolio(p, allIds(streams), opts);
  if (out.feasible) out.slots = p.slots();
  return out;
}

}  // namespace etsn::sched
