// Portfolio scheduling engines vs the exact oracle.
//
//  * Differential corpus: ~200 randomized instances small enough for the
//    SMT engine; every heuristic schedule must pass sched::validate, and
//    no heuristic may "solve" an instance SMT proves infeasible.
//  * Validator-as-oracle fuzz: seeded, *provably violating* mutations of
//    known-good schedules (negative offset, undersized slot, pre-occurrence
//    start, hop swap, guard-band intrusion, slot collision) must each be
//    rejected — the oracle itself is tested against near-miss schedules.
//  * Rank order: the portfolio runs tabu only when greedy gives up, and
//    adopts the first feasible engine's schedule.
//  * Determinism: the portfolio result is byte-identical across repeated
//    runs with the same seed.
//  * Idle-network test: Placement::idleMiss gives tryPlace's verdict on an
//    empty Placement, and a stream it rejects fails tryPlace in every
//    state greedy passes through; so does a stream Placement::clash finds
//    a partner for, while that partner stays placed.
//  * Substrate equivalence: the per-link-ring bitmap overlap search and
//    the pairwise one place every corpus instance identically, and agree
//    search by search, failed searches included, on instances built for
//    the word-at-a-time bitmap kernel's edges, rings that grow mid-walk
//    among them.
//  * Degradation: an SMT solve that runs out of budget falls back to
//    greedy, and says so.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/expand.h"
#include "sched/placement.h"
#include "sched/portfolio.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "workload/iec60802.h"

namespace etsn::sched {
namespace {

struct Instance {
  net::Topology topo;
  std::vector<net::StreamSpec> specs;
};

Instance makeInstance(std::uint64_t seed) {
  Rng rng(seed);
  const auto kind = static_cast<workload::TopologyKind>(
      rng.uniformInt(0, 3));
  const int switches = static_cast<int>(rng.uniformInt(2, 4));
  Instance inst;
  inst.topo = workload::makeScaledTopology(kind, switches, 2);
  workload::TctWorkload w;
  w.numStreams = static_cast<int>(rng.uniformInt(3, 8));
  w.periods = {milliseconds(4), milliseconds(8)};
  w.networkLoad = 0.3 + 0.2 * static_cast<double>(rng.uniformInt(0, 2));
  w.seed = seed;
  inst.specs = workload::generateTct(inst.topo, w);
  // A slice of the corpus gets latency bounds squeezed to exactly one
  // last-hop frame transmission + propagation: structurally valid (the
  // e2e budget is 0, not negative) yet provably UNSAT for the >= 2-hop
  // device-to-device paths here, where the first hop's wire time plus the
  // switch processing delay alone already overdraw the budget.  The
  // differential contract needs both sides of the oracle's verdict.
  if (seed % 3 == 0) {
    SchedulerConfig cfg;
    cfg.numProbabilistic = 3;
    const Expansion exp = expandStreams(inst.topo, inst.specs, cfg);
    for (std::size_t i = 0; i < inst.specs.size(); ++i) {
      TimeNs squeezed = 0;
      for (const StreamId id : exp.specToStreams[i]) {
        const ExpandedStream& s = exp.streams[static_cast<std::size_t>(id)];
        const std::size_t lastHop = static_cast<std::size_t>(s.hops() - 1);
        const net::Link& link = inst.topo.link(s.path[lastHop]);
        const TimeNs tu = link.timeUnit;
        const TimeNs tx =
            frameTxTimeOf(s, s.framesOnLink[lastHop] - 1, link);
        const TimeNs budget =
            ((tx + tu - 1) / tu + (link.propagationDelay + tu - 1) / tu) *
            tu;
        squeezed = std::max(squeezed, budget);
      }
      inst.specs[i].maxLatency = squeezed;
    }
  }
  if (seed % 2 == 0) {
    workload::EctWorkload e;
    e.numStreams = 1;
    e.seed = seed + 1;
    for (auto& s : workload::generateEct(inst.topo, e)) {
      inst.specs.push_back(std::move(s));
    }
  }
  return inst;
}

ScheduleOptions optionsFor(const std::string& engine) {
  ScheduleOptions opt;
  opt.engine = engineFromString(engine);
  opt.config.numProbabilistic = 3;
  return opt;
}

/// Canonical byte-level serialization of the deterministic result surface
/// (timing metadata deliberately excluded).
std::string fingerprint(const MethodSchedule& ms) {
  std::ostringstream os;
  os << ms.schedule.info.feasible << '|' << ms.schedule.info.engine << '|'
     << ms.schedule.info.portfolioWinner << '|';
  for (const Slot& s : ms.schedule.slots) {
    os << s.stream << ',' << s.hop << ',' << s.frameIndex << ',' << s.start
       << ',' << s.duration << ';';
  }
  return os.str();
}

TEST(SchedPortfolioDifferential, HeuristicsAgreeWithSmtOracle) {
  const std::vector<std::string> heuristics = {"greedy", "tabu", "portfolio"};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Instance inst = makeInstance(seed);
    const auto smt = buildSchedule(inst.topo, inst.specs, optionsFor("smt"));
    ASSERT_FALSE(smt.schedule.info.degraded)
        << "corpus instance " << seed << " exceeded the SMT budget";
    // Pinned verdicts: the squeezed slice is UNSAT by construction and
    // every other instance is SAT, so an unsound theory implication (which
    // turns a SAT instance UNSAT) fails here, and so does a missed conflict.
    EXPECT_EQ(smt.schedule.info.feasible, seed % 3 != 0)
        << "SMT verdict changed on corpus instance " << seed;
    if (smt.schedule.info.feasible) {
      EXPECT_TRUE(validate(inst.topo, smt.schedule).empty())
          << "SMT schedule invalid on instance " << seed;
    }
    for (const std::string& engine : heuristics) {
      auto opt = optionsFor(engine);
      opt.portfolio.seed = seed;
      const auto h = buildSchedule(inst.topo, inst.specs, opt);
      if (h.schedule.info.feasible) {
        EXPECT_TRUE(smt.schedule.info.feasible)
            << engine << " 'solved' SMT-infeasible instance " << seed;
        const auto violations = validate(inst.topo, h.schedule);
        EXPECT_TRUE(violations.empty())
            << engine << " schedule rejected by the validator on instance "
            << seed << ": " << violations.front().constraint << " "
            << violations.front().detail;
      }
      // The converse (SMT feasible, heuristic gave up) is allowed:
      // the heuristics are incomplete by contract.
    }
  }
}

// ---------------------------------------------------------------------------
// Validator-as-oracle fuzz: each mutation helper finds a site where the
// mutation provably violates a constraint family, applies it, and returns
// true; schedules lacking such a site are skipped for that mutation.

using Mutator = bool (*)(const net::Topology&, Schedule*, Rng*);

bool mutateNegativeStart(const net::Topology&, Schedule* s, Rng* rng) {
  if (s->slots.empty()) return false;
  auto& slot = s->slots[static_cast<std::size_t>(rng->uniformInt(
      0, static_cast<std::int64_t>(s->slots.size()) - 1))];
  slot.start = -microseconds(1);  // (1): negative offset
  return true;
}

bool mutateUndersizedSlot(const net::Topology& topo, Schedule* s, Rng* rng) {
  if (s->slots.empty()) return false;
  auto& slot = s->slots[static_cast<std::size_t>(rng->uniformInt(
      0, static_cast<std::int64_t>(s->slots.size()) - 1))];
  const ExpandedStream& es =
      s->streams[static_cast<std::size_t>(slot.stream)];
  const net::Link& link =
      topo.link(es.path[static_cast<std::size_t>(slot.hop)]);
  // (1): one nanosecond below the frame's wire time.
  slot.duration = frameTxTimeOf(es, slot.frameIndex, link) - 1;
  return true;
}

bool mutatePreOccurrence(const net::Topology&, Schedule* s, Rng* rng) {
  std::vector<StreamId> probs;
  for (const ExpandedStream& es : s->streams) {
    if (es.kind == StreamKind::Prob && es.occurrence > 0) probs.push_back(es.id);
  }
  if (probs.empty()) return false;
  const StreamId id = probs[static_cast<std::size_t>(rng->uniformInt(
      0, static_cast<std::int64_t>(probs.size()) - 1))];
  for (Slot& slot : s->slots) {
    if (slot.stream == id && slot.hop == 0 && slot.frameIndex == 0) {
      // (2): first slot opens before the possibility's occurrence time.
      slot.start =
          s->streams[static_cast<std::size_t>(id)].occurrence -
          microseconds(1);
      return true;
    }
  }
  return false;
}

bool mutateHopSwap(const net::Topology&, Schedule* s, Rng* rng) {
  std::vector<StreamId> multi;
  for (const ExpandedStream& es : s->streams) {
    if (es.hops() >= 2) multi.push_back(es.id);
  }
  if (multi.empty()) return false;
  const StreamId id = multi[static_cast<std::size_t>(rng->uniformInt(
      0, static_cast<std::int64_t>(multi.size()) - 1))];
  const ExpandedStream& es = s->streams[static_cast<std::size_t>(id)];
  // Swap hop-1 frame 0 with its (7)-checked upstream partner (the prudent
  // index offset decides which hop-0 frame that is).
  const int nUp = es.framesOnLink[0];
  const int nDown = es.framesOnLink[1];
  const int upIdx = std::min(std::max(nUp - nDown, 0), nUp - 1);
  Slot* h0 = nullptr;
  Slot* h1 = nullptr;
  for (Slot& slot : s->slots) {
    if (slot.stream != id) continue;
    if (slot.hop == 0 && slot.frameIndex == upIdx) h0 = &slot;
    if (slot.hop == 1 && slot.frameIndex == 0) h1 = &slot;
  }
  if (h0 == nullptr || h1 == nullptr) return false;
  // (7): the downstream slot now precedes its upstream transmission
  // (hop-1 starts strictly after hop-0 ends in any valid schedule).
  std::swap(h0->start, h1->start);
  return true;
}

bool mutateGuardBand(const net::Topology& topo, Schedule* s, Rng* rng) {
  std::vector<StreamId> multi;
  for (const ExpandedStream& es : s->streams) {
    if (es.hops() >= 2) multi.push_back(es.id);
  }
  if (multi.empty()) return false;
  const StreamId id = multi[static_cast<std::size_t>(rng->uniformInt(
      0, static_cast<std::int64_t>(multi.size()) - 1))];
  const ExpandedStream& es = s->streams[static_cast<std::size_t>(id)];
  const Slot* up = nullptr;
  Slot* down = nullptr;
  const int nUp = es.framesOnLink[0];
  const int nDown = es.framesOnLink[1];
  const int upIdx = std::min(std::max(nUp - nDown, 0), nUp - 1);
  for (Slot& slot : s->slots) {
    if (slot.stream != id) continue;
    if (slot.hop == 0 && slot.frameIndex == upIdx) up = &slot;
    if (slot.hop == 1 && slot.frameIndex == 0) down = &slot;
  }
  if (up == nullptr || down == nullptr) return false;
  // (7): land the downstream slot one microsecond inside the propagation +
  // processing guard band following the upstream transmission.
  down->start = up->start + up->duration + topo.link(es.path[0]).propagationDelay +
                s->config.switchProcessingDelay - microseconds(1);
  return true;
}

bool mutateSlotCollision(const net::Topology&, Schedule* s, Rng* rng) {
  // Shift a Det slot exactly onto another Det stream's slot on the same
  // link: Det/Det pairs may never overlap, so (5) must fire.
  std::vector<std::pair<Slot*, Slot*>> candidates;
  for (Slot& a : s->slots) {
    const ExpandedStream& sa = s->streams[static_cast<std::size_t>(a.stream)];
    if (sa.kind != StreamKind::Det) continue;
    for (Slot& b : s->slots) {
      if (a.stream == b.stream) continue;
      const ExpandedStream& sb =
          s->streams[static_cast<std::size_t>(b.stream)];
      if (sb.kind != StreamKind::Det) continue;
      if (sa.path[static_cast<std::size_t>(a.hop)] !=
          sb.path[static_cast<std::size_t>(b.hop)])
        continue;
      candidates.emplace_back(&a, &b);
    }
  }
  if (candidates.empty()) return false;
  const auto& [a, b] = candidates[static_cast<std::size_t>(rng->uniformInt(
      0, static_cast<std::int64_t>(candidates.size()) - 1))];
  a->start = b->start;  // identical starts always intersect
  return true;
}

TEST(SchedPortfolioFuzz, ValidatorRejectsEveryMutation) {
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"negative-start", mutateNegativeStart},
      {"undersized-slot", mutateUndersizedSlot},
      {"pre-occurrence", mutatePreOccurrence},
      {"hop-swap", mutateHopSwap},
      {"guard-band", mutateGuardBand},
      {"slot-collision", mutateSlotCollision},
  };
  int applied = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = makeInstance(seed * 2);  // even: feasible-leaning
    auto opt = optionsFor("portfolio");
    opt.portfolio.seed = seed;
    const auto base = buildSchedule(inst.topo, inst.specs, opt);
    if (!base.schedule.info.feasible) continue;
    ASSERT_TRUE(validate(inst.topo, base.schedule).empty());
    for (const auto& [name, mutate] : mutators) {
      Schedule mutated = base.schedule;
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(applied));
      if (!mutate(inst.topo, &mutated, &rng)) continue;
      const auto violations = validate(inst.topo, mutated);
      EXPECT_FALSE(violations.empty())
          << "validator accepted a '" << name
          << "' mutation on corpus seed " << seed * 2;
      ++applied;
    }
  }
  // Every mutation family must have actually run, several times over.
  EXPECT_GE(applied, 30);
}

// ---------------------------------------------------------------------------

TEST(SchedPortfolioDeterminism, ByteIdenticalAcrossRepeatedRuns) {
  const Instance inst = makeInstance(43);
  std::string reference;
  for (int run = 0; run < 3; ++run) {
    auto opt = optionsFor("portfolio");
    opt.portfolio.seed = 11;
    const auto ms = buildSchedule(inst.topo, inst.specs, opt);
    const std::string fp = fingerprint(ms);
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "portfolio result differs on run " << run;
    }
  }
}

bool sameSlot(const Slot& a, const Slot& b) {
  return a.stream == b.stream && a.hop == b.hop &&
         a.frameIndex == b.frameIndex && a.start == b.start &&
         a.duration == b.duration;
}

bool sameSlots(const std::vector<Slot>& a, const std::vector<Slot>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), sameSlot);
}

// The portfolio runs its ranks in order on the calling thread: greedy
// alone when it places the instance, tabu only after greedy gives up, and
// the first feasible engine supplies the schedule.
TEST(SchedPortfolio, RunsTabuOnlyWhenGreedyGivesUp) {
  int gaveUp = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Instance inst = makeInstance(seed);
    SchedulerConfig config;
    config.numProbabilistic = 3;
    const Expansion exp = expandStreams(inst.topo, inst.specs, config);
    PortfolioOptions opts;
    opts.seed = seed;
    const EngineResult greedy = runGreedy(inst.topo, exp.streams, config);
    const PortfolioResult r =
        runPortfolio(inst.topo, exp.streams, config, opts);
    ASSERT_FALSE(r.runs.empty()) << "instance " << seed;
    EXPECT_EQ(r.runs[0].name, "greedy") << "instance " << seed;
    EXPECT_EQ(r.runs[0].feasible, greedy.feasible) << "instance " << seed;
    if (greedy.feasible) {
      ASSERT_EQ(r.runs.size(), 1u) << "tabu ran after greedy placed "
                                   << "instance " << seed;
      EXPECT_EQ(r.winner, "greedy");
      ASSERT_TRUE(r.feasible);
      EXPECT_TRUE(sameSlots(r.slots, greedy.slots)) << "instance " << seed;
      continue;
    }
    ++gaveUp;
    const EngineResult tabu = runTabu(inst.topo, exp.streams, config, opts);
    ASSERT_EQ(r.runs.size(), 2u) << "instance " << seed;
    EXPECT_EQ(r.runs[1].name, "tabu");
    EXPECT_EQ(r.runs[1].feasible, tabu.feasible) << "instance " << seed;
    EXPECT_EQ(r.feasible, tabu.feasible) << "instance " << seed;
    EXPECT_EQ(r.winner, tabu.feasible ? "tabu" : "") << "instance " << seed;
    EXPECT_TRUE(sameSlots(r.slots, tabu.slots)) << "instance " << seed;
  }
  // The squeezed slice is UNSAT, so greedy gives up on a third of the
  // corpus and the second rank is exercised.
  EXPECT_GE(gaveUp, 60);
}

/// runGreedy's placement order: Det streams first, tightest latency
/// bound first, then Prob streams in (spec, occurrence) order.
void sortByLaxity(const std::vector<ExpandedStream>& streams,
                  std::vector<StreamId>& ids) {
  std::stable_sort(ids.begin(), ids.end(), [&](StreamId ia, StreamId ib) {
    const ExpandedStream& a = streams[static_cast<std::size_t>(ia)];
    const ExpandedStream& b = streams[static_cast<std::size_t>(ib)];
    if ((a.kind == StreamKind::Det) != (b.kind == StreamKind::Det)) {
      return a.kind == StreamKind::Det;
    }
    if (a.kind == StreamKind::Det) return a.maxLatency < b.maxLatency;
    if (a.specId != b.specId) return a.specId < b.specId;
    return a.occurrence < b.occurrence;
  });
}

// The idle-network test against the search it stands in for.  On an empty
// Placement, idleMiss must agree with tryPlace on every corpus stream; in
// every state of a greedy walk, a stream that misses on the idle network
// must fail tryPlace too (the admission engine's idle rung rejects on that
// without trying rip-ups or a re-solve).  The squeezed slice supplies
// latency (4) misses.  Window (1)-(2) misses come from a stream added to
// every fifth instance whose 8 kB payload outlasts its 500-us period on
// the first 100-Mbps hop; its maxLatency above the period is valid.
TEST(SchedPortfolioIdle, IdleMissMeansNoPlacementInAnyState) {
  int latencyMisses = 0;
  int windowMisses = 0;
  int checkedInPlacedStates = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Instance inst = makeInstance(seed);
    if (seed % 5 == 0) {
      net::StreamSpec hog;
      hog.name = "hog";
      hog.src = inst.topo.devices().front();
      hog.dst = inst.topo.devices().back();
      hog.period = microseconds(500);
      hog.maxLatency = milliseconds(4);
      hog.payloadBytes = 8000;
      inst.specs.push_back(hog);
    }
    SchedulerConfig config;
    config.numProbabilistic = 3;
    const Expansion exp = expandStreams(inst.topo, inst.specs, config);

    Placement empty(inst.topo, exp.streams, config);
    std::vector<StreamId> fits;
    std::vector<StreamId> misses;
    for (const ExpandedStream& s : exp.streams) {
      const std::optional<PlacementMiss> miss = empty.idleMiss(s.id);
      const bool placed = empty.tryPlace(s.id);
      EXPECT_EQ(!miss.has_value(), placed)
          << "instance " << seed << ", stream " << s.name;
      if (placed) empty.remove(s.id);
      if (!miss) {
        fits.push_back(s.id);
        continue;
      }
      misses.push_back(s.id);
      EXPECT_GT(miss->value, miss->bound)
          << "instance " << seed << ", stream " << s.name;
      ++(miss->constraint == PlacementMiss::Constraint::Window
             ? windowMisses
             : latencyMisses);
    }
    if (misses.empty()) continue;

    // Greedy's walk (runGreedy) over the streams that fit the idle network
    // (a missing stream would only end the walk early): laxity order, and
    // on a failure the most recently placed conflicting stream on the
    // blocking link is ripped and re-queued.
    sortByLaxity(exp.streams, fits);
    Placement p(inst.topo, exp.streams, config);
    std::deque<StreamId> queue(fits.begin(), fits.end());
    int budget = 256;
    while (!queue.empty()) {
      for (const StreamId m : misses) {
        EXPECT_FALSE(p.tryPlace(m))
            << "instance " << seed << ": stream "
            << exp.streams[static_cast<std::size_t>(m)].name
            << " misses on the idle network but places with "
            << p.numPlaced() << " streams placed";
        if (p.isPlaced(m)) p.remove(m);
        if (p.numPlaced() > 0) ++checkedInPlacedStates;
      }
      const StreamId s = queue.front();
      queue.pop_front();
      if (p.tryPlace(s)) continue;
      const std::vector<StreamId> victims =
          p.conflictCandidates(s, p.lastFailedLink());
      if (victims.empty() || budget-- <= 0) break;
      StreamId victim = victims.front();
      for (const StreamId v : victims) {
        if (p.placeEpoch(v) > p.placeEpoch(victim)) victim = v;
      }
      p.remove(victim);
      queue.push_front(s);
      queue.push_back(victim);
    }
  }
  EXPECT_GT(latencyMisses, 0);
  EXPECT_GT(windowMisses, 0);
  EXPECT_GT(checkedInPlacedStates, 100);
}

// The clash test against the search.  Every corpus instance gets two
// 520-us probes, one non-shared and one shared, between its first and
// last devices: the gcd of 520 us and each corpus period (4, 8 or 16 ms)
// is 40 us, shorter than a probe frame (500 B, 44 us at 100 Mb/s) alone,
// so a probe clashes with every Det frame on its path (and the
// non-shared one with every ECT possibility too), while the hyperperiod,
// at most 208 000 tu, keeps the bitmap search.  In every state of
// greedy's walk over the corpus streams, a probe that clash() finds a
// partner for must fail tryPlace; a probe that places is ripped back out.
TEST(SchedPortfolioIdle, ClashMeansNoPlacementInThatState) {
  int clashes = 0;
  int placedProbes = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Instance inst = makeInstance(seed);
    const std::size_t corpusSpecs = inst.specs.size();
    for (const bool share : {false, true}) {
      net::StreamSpec probe;
      probe.name = share ? "probe-shared" : "probe";
      probe.src = inst.topo.devices().front();
      probe.dst = inst.topo.devices().back();
      probe.period = microseconds(520);
      probe.maxLatency = microseconds(520);
      probe.payloadBytes = 500;
      probe.share = share;
      inst.specs.push_back(probe);
    }
    SchedulerConfig config;
    config.numProbabilistic = 3;
    const Expansion exp = expandStreams(inst.topo, inst.specs, config);
    std::vector<StreamId> probes;
    std::vector<StreamId> order;
    for (const ExpandedStream& s : exp.streams) {
      (static_cast<std::size_t>(s.specId) < corpusSpecs ? order : probes)
          .push_back(s.id);
    }
    sortByLaxity(exp.streams, order);
    Placement p(inst.topo, exp.streams, config);
    ASSERT_TRUE(p.usesBitmap()) << "instance " << seed;

    std::deque<StreamId> queue(order.begin(), order.end());
    int budget = 256;
    while (true) {
      for (const StreamId m : probes) {
        const std::optional<PlacementClash> c = p.clash(m);
        const bool placed = p.tryPlace(m);
        if (c) {
          ++clashes;
          EXPECT_FALSE(placed)
              << "instance " << seed << ": "
              << exp.streams[static_cast<std::size_t>(m)].name
              << " clashes with "
              << exp.streams[static_cast<std::size_t>(c->other)].name
              << " on link " << c->link << " but places";
          EXPECT_TRUE(p.isPlaced(c->other));
          EXPECT_GT(c->len + c->otherLen, c->gcd);
        }
        if (placed) {
          ++placedProbes;
          p.remove(m);
        }
      }
      if (queue.empty()) break;
      const StreamId s = queue.front();
      queue.pop_front();
      if (p.tryPlace(s)) continue;
      const std::vector<StreamId> victims =
          p.conflictCandidates(s, p.lastFailedLink());
      if (victims.empty() || budget-- <= 0) break;
      StreamId victim = victims.front();
      for (const StreamId v : victims) {
        if (p.placeEpoch(v) > p.placeEpoch(victim)) victim = v;
      }
      p.remove(victim);
      queue.push_front(s);
      queue.push_back(victim);
    }
  }
  EXPECT_GT(clashes, 1000);
  EXPECT_GT(placedProbes, 100);
}

/// The corpus instance plus one stream on a cable of its own, then `late`
/// specs: the original streams keep their ids, and the slow stream never
/// meets them.  Its default 263-ms period lifts the hyperperiod past
/// kMaxBitmapTu.
struct WideInstance {
  net::Topology topo;
  Expansion exp;
};

WideInstance widen(const Instance& inst, const SchedulerConfig& config,
                   TimeNs slowPeriod = milliseconds(263),
                   const std::vector<net::StreamSpec>& late = {}) {
  WideInstance wide{inst.topo, {}};
  net::StreamSpec slow;
  slow.name = "slow";
  slow.src = wide.topo.addDevice("slow-talker");
  slow.dst = wide.topo.addDevice("slow-listener");
  wide.topo.connect(slow.src, slow.dst);
  slow.period = slowPeriod;
  slow.maxLatency = slowPeriod;
  slow.payloadBytes = 100;
  std::vector<net::StreamSpec> specs = inst.specs;
  specs.push_back(slow);
  specs.insert(specs.end(), late.begin(), late.end());
  wide.exp = expandStreams(wide.topo, specs, config);
  return wide;
}

// Greedy places every corpus instance twice: as is, where the small
// hyperperiod selects the bitmap search, and widened (see widen) onto the
// pairwise search.  The slow stream neither moves nor rips any other
// stream, so the original streams' slots must match.
TEST(SchedPortfolioSubstrate, BitmapAndPairwiseSearchesPlaceIdentically) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Instance inst = makeInstance(seed);
    SchedulerConfig config;
    config.numProbabilistic = 3;
    const Expansion exp = expandStreams(inst.topo, inst.specs, config);
    const WideInstance wide = widen(inst, config);

    ASSERT_NE(Placement(inst.topo, exp.streams, config).usesBitmap(),
              Placement(wide.topo, wide.exp.streams, config).usesBitmap())
        << "instance " << seed;
    const EngineResult a = runGreedy(inst.topo, exp.streams, config);
    const EngineResult b = runGreedy(wide.topo, wide.exp.streams, config);
    ASSERT_EQ(a.feasible, b.feasible) << "instance " << seed;
    if (!a.feasible) continue;
    // Canonical slot order puts the original streams' slots first.
    ASSERT_GT(b.slots.size(), a.slots.size()) << "instance " << seed;
    for (std::size_t i = 0; i < a.slots.size(); ++i) {
      ASSERT_TRUE(sameSlot(a.slots[i], b.slots[i]))
          << "instance " << seed << ", slot " << i;
    }
    ++compared;
  }
  EXPECT_GT(compared, 20);
}

// The bitmap search works a 64-bit word at a time; these instances reach
// the edges of that kernel.  Periods of 1, 1.5 and 3 ms give a 3000-tu
// hyperperiod, which ends 56 bits into its last word.  Loads of 60-90%
// fragment payloads into frames of more than 64 tu and make searches
// fail.  generateTct's release phases put windows across the hyperperiod
// wrap.  Half the TCT streams are non-shared, so their search also
// avoids the slots of two 3-ms ECT streams.
Instance makeEdgeInstance(std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.topo = workload::makeScaledTopology(
      static_cast<workload::TopologyKind>(rng.uniformInt(0, 3)),
      static_cast<int>(rng.uniformInt(2, 4)), 2);
  workload::TctWorkload w;
  w.numStreams = static_cast<int>(rng.uniformInt(6, 12));
  w.periods = {microseconds(1000), microseconds(1500), microseconds(3000)};
  w.networkLoad = 0.6 + 0.1 * static_cast<double>(rng.uniformInt(0, 3));
  w.numSharing = w.numStreams / 2;
  w.seed = seed;
  inst.specs = workload::generateTct(inst.topo, w);
  workload::EctWorkload e;
  e.minInterevents = {milliseconds(3)};
  e.payloadBytes = 300;
  e.seed = seed + 1;
  for (auto& s : workload::generateEct(inst.topo, e)) {
    inst.specs.push_back(std::move(s));
  }
  return inst;
}

/// 9-ms TCT streams on `inst`'s devices, half of them sharing.
std::vector<net::StreamSpec> lateSpecs(const Instance& inst,
                                       std::uint64_t seed) {
  workload::TctWorkload w;
  w.numStreams = 4;
  w.periods = {microseconds(9000)};
  w.networkLoad = 0.3;
  w.numSharing = 2;
  w.seed = seed + 2;
  std::vector<net::StreamSpec> late = workload::generateTct(inst.topo, w);
  for (std::size_t i = 0; i < late.size(); ++i) {
    late[i].name = "late" + std::to_string(i);
  }
  return late;
}

// Greedy's walk on one instance through both overlap searches in
// lockstep: the bitmap Placement of the instance and the pairwise one of
// its widened copy must agree on every search, failed ones included
// (verdict, blocking link, rip-up candidates), on every start, and so on
// every rip-up.  Halfway through the walk, 9-ms streams join both stream
// vectors (syncAppendedStreams), which lifts the bitmap hyperperiod to
// 9000 tu: their searches step through rings of 3000 tu that their
// period does not divide, and their placements grow those rings to
// 9000 tu, tiling the Det bits (neither ring is a multiple of 64) and,
// on links an ECT crosses, the Prob counters.
TEST(SchedPortfolioSubstrate, WordKernelMatchesPairwiseAtItsEdges) {
  int failedSearches = 0;
  int placedSearches = 0;
  int longFrames = 0;
  int wrappedFrames = 0;
  int prob = 0;
  int offRingSearches = 0;
  int grownRings = 0;
  int tiledProb = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Instance inst = makeEdgeInstance(seed);
    SchedulerConfig config;
    config.numProbabilistic = 3;
    const std::vector<net::StreamSpec> late = lateSpecs(inst, seed);
    // The bitmap side's slow stream has a 1-ms period, so both expansions
    // give every stream the same id; it is never placed.
    const WideInstance narrow = widen(inst, config, milliseconds(1), late);
    const WideInstance wide = widen(inst, config, milliseconds(263), late);
    const std::size_t slowId = static_cast<std::size_t>(
        narrow.exp.specToStreams[inst.specs.size()].front());
    const std::size_t firstLate = slowId + 1;
    std::vector<ExpandedStream> bitStreams(
        narrow.exp.streams.begin(),
        narrow.exp.streams.begin() + static_cast<std::ptrdiff_t>(firstLate));
    std::vector<ExpandedStream> pairStreams(
        wide.exp.streams.begin(),
        wide.exp.streams.begin() + static_cast<std::ptrdiff_t>(firstLate));
    Placement bits(narrow.topo, bitStreams, config);
    Placement pairs(wide.topo, pairStreams, config);
    ASSERT_TRUE(bits.usesBitmap());
    ASSERT_FALSE(pairs.usesBitmap());
    ASSERT_EQ(bits.hyperTu(), 3000);

    std::vector<StreamId> order;
    for (std::size_t i = 0; i < slowId; ++i) {
      order.push_back(static_cast<StreamId>(i));
    }
    sortByLaxity(bitStreams, order);
    std::deque<StreamId> queue(order.begin(), order.end());
    const auto probPlacedOn = [&](net::LinkId l) {
      return std::any_of(
          bitStreams.begin(), bitStreams.end(), [&](const ExpandedStream& o) {
            return o.kind == StreamKind::Prob && bits.isPlaced(o.id) &&
                   std::find(o.path.begin(), o.path.end(), l) != o.path.end();
          });
    };
    int budget = 256;
    std::size_t steps = 0;
    while (!queue.empty()) {
      if (steps++ == order.size() / 2) {
        for (std::size_t i = firstLate; i < narrow.exp.streams.size(); ++i) {
          bitStreams.push_back(narrow.exp.streams[i]);
          pairStreams.push_back(wide.exp.streams[i]);
          queue.push_back(static_cast<StreamId>(i));
        }
        bits.syncAppendedStreams();
        pairs.syncAppendedStreams();
        ASSERT_TRUE(bits.usesBitmap());
        ASSERT_FALSE(pairs.usesBitmap());
        ASSERT_EQ(bits.hyperTu(), 9000);
      }
      const StreamId s = queue.front();
      queue.pop_front();
      const ExpandedStream& st = bitStreams[static_cast<std::size_t>(s)];
      const std::string at = "instance " + std::to_string(seed) +
                             ", stream " + st.name;
      const std::int64_t period = st.period / bits.tu();
      std::vector<std::int64_t> ringsBefore;
      for (const net::LinkId l : st.path) {
        ringsBefore.push_back(bits.ringTu(l));
        if (bits.ringTu(l) % period != 0 &&
            !bits.conflictCandidates(s, l).empty()) {
          ++offRingSearches;
        }
      }
      const bool placed = bits.tryPlace(s);
      ASSERT_EQ(placed, pairs.tryPlace(s)) << at;
      if (placed) {
        ASSERT_EQ(bits.startsOf(s), pairs.startsOf(s)) << at;
        ++placedSearches;
        for (std::size_t hop = 0; hop < st.path.size(); ++hop) {
          const net::LinkId l = st.path[hop];
          if (ringsBefore[hop] == 3000 && bits.ringTu(l) == 9000) {
            ++grownRings;
            if (probPlacedOn(l)) ++tiledProb;
          }
        }
        continue;
      }
      ++failedSearches;
      const net::LinkId link = bits.lastFailedLink();
      ASSERT_EQ(link, pairs.lastFailedLink()) << at;
      const std::vector<StreamId> victims = bits.conflictCandidates(s, link);
      ASSERT_EQ(victims, pairs.conflictCandidates(s, link)) << at;
      if (victims.empty() || budget-- <= 0) break;
      StreamId victim = victims.front();
      for (const StreamId v : victims) {
        if (bits.placeEpoch(v) > bits.placeEpoch(victim)) victim = v;
      }
      bits.remove(victim);
      pairs.remove(victim);
      queue.push_front(s);
      queue.push_back(victim);
    }

    // Evidence that the walk reached the kernel's edges.
    for (const Slot& slot : bits.slots()) {
      const ExpandedStream& st =
          bitStreams[static_cast<std::size_t>(slot.stream)];
      const std::int64_t start = slot.start / bits.tu();
      const std::int64_t len = slot.duration / bits.tu();
      const std::int64_t period = st.period / bits.tu();
      const std::int64_t ring = bits.ringTu(st.path[
          static_cast<std::size_t>(slot.hop)]);
      if (len > 64) ++longFrames;
      if (st.kind == StreamKind::Prob) ++prob;
      for (std::int64_t r = 0; r < ring / period; ++r) {
        if ((start + r * period) % ring + len > ring) {
          ++wrappedFrames;
          break;
        }
      }
    }
  }
  EXPECT_GT(placedSearches, 3000);
  EXPECT_GT(failedSearches, 3000);
  EXPECT_GT(longFrames, 1000);
  EXPECT_GT(wrappedFrames, 100);
  EXPECT_GT(prob, 300);
  EXPECT_GT(offRingSearches, 100);
  EXPECT_GT(grownRings, 100);
  EXPECT_GT(tiledProb, 30);
}

// With a one-conflict budget the testbed's SMT solves give up, and every
// result comes from greedy: marked degraded, valid whenever feasible, and
// slot for slot the `greedy` engine's schedule.
TEST(SchedPortfolioFallback, SmtOverBudgetDegradesToGreedy) {
  const net::Topology topo = net::makeTestbedTopology();
  int feasible = 0;
  for (const double load : {0.5, 0.75}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      workload::TctWorkload w;
      w.numStreams = 10;
      w.networkLoad = load;
      w.seed = seed;
      std::vector<net::StreamSpec> specs = workload::generateTct(topo, w);
      specs.push_back(
          workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
      ScheduleOptions smt;
      smt.config.conflictBudget = 1;
      const MethodSchedule degraded = buildSchedule(topo, specs, smt);
      ScheduleOptions greedy;
      greedy.engine = Engine::Greedy;
      const MethodSchedule reference = buildSchedule(topo, specs, greedy);

      const SolveInfo& info = degraded.schedule.info;
      EXPECT_TRUE(info.degraded) << "load " << load << ", seed " << seed;
      EXPECT_EQ(info.engine, "smt+greedy");
      ASSERT_EQ(info.feasible, reference.schedule.info.feasible);
      if (!info.feasible) continue;
      ++feasible;
      EXPECT_TRUE(validate(topo, degraded.schedule).empty());
      const std::vector<Slot>& got = degraded.schedule.slots;
      const std::vector<Slot>& want = reference.schedule.slots;
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(sameSlot(got[i], want[i])) << "slot " << i;
      }
    }
  }
  EXPECT_GT(feasible, 0);
}

// The fallback rips up: on these dense PERIOD instances (ten TCT streams,
// five sharing, two ECT streams converted to dedicated slots) placing each
// stream once in laxity order leaves a stream with no offsets, and the
// fallback still returns a schedule the validator accepts.
TEST(SchedPortfolioFallback, OverBudgetDensePeriodInstancesArePlaced) {
  const net::Topology topo = net::makeTestbedTopology();
  const std::vector<std::pair<double, std::uint64_t>> cells = {
      {0.75, 2}, {0.9, 1}, {0.9, 2}};
  for (const auto& [load, seed] : cells) {
    workload::TctWorkload w;
    w.numStreams = 10;
    w.numSharing = 5;
    w.networkLoad = load;
    w.seed = seed;
    std::vector<net::StreamSpec> specs = workload::generateTct(topo, w);
    workload::EctWorkload e;
    e.seed = seed + 1;
    for (net::StreamSpec& s : workload::generateEct(topo, e)) {
      specs.push_back(std::move(s));
    }
    ScheduleOptions opt;
    opt.method = Method::PERIOD;
    opt.config.numProbabilistic = 4;
    opt.config.conflictBudget = 1;
    const MethodSchedule ms = buildSchedule(topo, specs, opt);
    const SolveInfo& info = ms.schedule.info;
    EXPECT_TRUE(info.degraded) << "load " << load << ", seed " << seed;
    EXPECT_EQ(info.engine, "smt+greedy");
    ASSERT_TRUE(info.feasible) << "load " << load << ", seed " << seed;
    const auto violations = validate(topo, ms.schedule);
    EXPECT_TRUE(violations.empty())
        << "load " << load << ", seed " << seed << ": "
        << violations.front().constraint << " "
        << violations.front().detail;
  }
}

// The gap probe certifies heuristic results against the exact engine and
// reports a sane optimality gap.
TEST(SchedPortfolioCertification, GapProbeCertifiesFeasibleInstances) {
  const Instance inst = makeInstance(44);
  auto opt = optionsFor("portfolio");
  opt.portfolio.seed = 3;
  opt.certify = true;
  const auto ms = buildSchedule(inst.topo, inst.specs, opt);
  ASSERT_TRUE(ms.schedule.info.feasible);
  EXPECT_TRUE(ms.schedule.info.certified);
  EXPECT_GT(ms.schedule.info.flowspanTu, 0);
  EXPECT_GT(ms.schedule.info.flowspanLowerBoundTu, 0);
  EXPECT_LE(ms.schedule.info.flowspanLowerBoundTu,
            ms.schedule.info.flowspanTu);
  EXPECT_GE(ms.schedule.info.gapPercent, 0.0);
}

}  // namespace
}  // namespace etsn::sched
