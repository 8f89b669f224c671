#include "sched/portfolio.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <climits>
#include <deque>
#include <map>

#include "common/check.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sched/expand.h"
#include "sched/placement.h"

namespace etsn::sched {

namespace {

// Search budgets.  greedy: rip-ups before giving up; tabu: force-in moves
// before giving up, and the eviction tenure; dnc: rip-ups per component.
constexpr int kGreedyBacktrack = 256;
constexpr int kTabuIterations = 20000;
constexpr int kTabuTenure = 16;
constexpr int kDncBacktrack = 32;

/// The placement order of first-fit, greedy and tabu's seed: deterministic
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

enum class QueueStatus { Done, Failed, Cancelled };

/// Greedy earliest-slot placement of `queue` with bounded backtracking:
/// on failure, rip the most recently placed conflicting stream off the
/// blocking link, retry the failed stream, and re-queue the victim.
QueueStatus placeQueue(Placement& p, std::deque<StreamId> queue, int budget,
                       const CancelToken& cancel, std::int64_t* steps) {
  while (!queue.empty()) {
    if (cancel.cancelled()) return QueueStatus::Cancelled;
    const StreamId s = queue.front();
    queue.pop_front();
    ++*steps;
    if (p.tryPlace(s)) continue;
    const std::vector<StreamId> victims =
        p.conflictCandidates(s, p.lastFailedLink());
    if (victims.empty() || budget <= 0) return QueueStatus::Failed;
    --budget;
    StreamId victim = victims.front();
    for (const StreamId v : victims) {
      if (p.placeEpoch(v) > p.placeEpoch(victim)) victim = v;
    }
    p.remove(victim);
    queue.push_front(s);
    queue.push_back(victim);
  }
  return QueueStatus::Done;
}

void finish(EngineResult* out, const Placement& p, QueueStatus status) {
  if (status == QueueStatus::Cancelled) {
    out->cancelled = true;
  } else if (status == QueueStatus::Done) {
    out->feasible = true;
    out->slots = p.slots();
  }
}

EngineResult greedy(const net::Topology& topo,
                    const std::vector<ExpandedStream>& streams,
                    const SchedulerConfig& config, int budget,
                    CancelToken cancel) {
  EngineResult out;
  Placement p(topo, streams, config);
  const std::vector<StreamId> order = laxityOrder(streams);
  const QueueStatus status = placeQueue(p, {order.begin(), order.end()},
                                        budget, cancel, &out.steps);
  finish(&out, p, status);
  return out;
}

}  // namespace

EngineResult runFirstFit(const net::Topology& topo,
                         const std::vector<ExpandedStream>& streams,
                         const SchedulerConfig& config) {
  return greedy(topo, streams, config, /*budget=*/0, {});
}

EngineResult runGreedy(const net::Topology& topo,
                       const std::vector<ExpandedStream>& streams,
                       const SchedulerConfig& config, CancelToken cancel) {
  return greedy(topo, streams, config, kGreedyBacktrack, cancel);
}

EngineResult runTabu(const net::Topology& topo,
                     const std::vector<ExpandedStream>& streams,
                     const SchedulerConfig& config,
                     const PortfolioOptions& opts, CancelToken cancel) {
  EngineResult out;
  Placement p(topo, streams, config);

  // First-fit seed: collect the conflicted remainder.
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

EngineResult runDnc(const net::Topology& topo,
                    const std::vector<ExpandedStream>& streams,
                    const SchedulerConfig& config, CancelToken cancel) {
  EngineResult out;
  if (streams.empty()) {
    out.feasible = true;
    return out;
  }

  // Divide: link-disjoint components cannot interact (no shared links, so
  // no overlap or isolation constraint couples them) and merge trivially.
  std::vector<StreamId> parent(streams.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<StreamId>(i);
  }
  auto find = [&](StreamId x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](StreamId a, StreamId b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
        std::min(a, b);
  };
  std::vector<StreamId> linkOwner(static_cast<std::size_t>(topo.numLinks()),
                                  -1);
  // Per-link contention (utilization), the conquer-order key.
  std::vector<double> linkLoad(static_cast<std::size_t>(topo.numLinks()), 0);
  for (const ExpandedStream& s : streams) {
    for (int h = 0; h < s.hops(); ++h) {
      const net::LinkId l = s.path[static_cast<std::size_t>(h)];
      StreamId& owner = linkOwner[static_cast<std::size_t>(l)];
      if (owner < 0) {
        owner = s.id;
      } else {
        unite(s.id, owner);
      }
      const net::Link& link = topo.link(l);
      for (int j = 0; j < s.framesOnLink[static_cast<std::size_t>(h)]; ++j) {
        linkLoad[static_cast<std::size_t>(l)] +=
            static_cast<double>(frameTxTimeOf(s, j, link)) /
            static_cast<double>(s.period);
      }
    }
  }

  std::map<StreamId, std::vector<StreamId>> components;
  for (const StreamId id : laxityOrder(streams)) {
    components[find(id)].push_back(id);
  }

  // Conquer: inside a component, schedule the customers of the most
  // contended link first (their freedom disappears fastest), laxity order
  // within equal contention (the component lists are already laxity-
  // ordered, so the sort below is stable on that).
  Placement p(topo, streams, config);
  for (auto& [root, ids] : components) {
    std::vector<std::pair<double, StreamId>> keyed;
    for (const StreamId id : ids) {
      const ExpandedStream& s = streams[static_cast<std::size_t>(id)];
      double bottleneck = 0;
      for (const net::LinkId l : s.path) {
        bottleneck = std::max(bottleneck,
                              linkLoad[static_cast<std::size_t>(l)]);
      }
      keyed.emplace_back(-bottleneck, id);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::deque<StreamId> queue;
    for (const auto& [key, id] : keyed) queue.push_back(id);
    const QueueStatus status =
        placeQueue(p, std::move(queue), kDncBacktrack, cancel, &out.steps);
    if (status != QueueStatus::Done) {
      finish(&out, p, status);
      return out;
    }
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
  static constexpr std::array<const char*, 3> kNames = {"greedy", "tabu",
                                                        "dnc"};
  std::atomic<int> bestRank{INT_MAX};
  std::array<EngineResult, 3> results;
  std::array<double, 3> seconds{};
  std::array<double, 3> doneAt{};
  const auto t0 = Clock::now();

  const int width = opts.threads > 0 ? std::min(opts.threads, 3) : 3;
  ThreadPool pool(width);
  pool.parallelFor(3, [&](std::size_t i) {
    const CancelToken token{&bestRank, static_cast<int>(i)};
    const auto s0 = Clock::now();
    EngineResult r;
    switch (i) {
      case 0: r = runGreedy(topo, streams, config, token); break;
      case 1: r = runTabu(topo, streams, config, opts, token); break;
      default: r = runDnc(topo, streams, config, token); break;
    }
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
