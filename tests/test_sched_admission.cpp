// Tests for the schedule-as-a-service admission engine (sched/admission.h).
//
//  * Churn traces: 100 seeded add/remove/modify/repeat sequences over
//    randomized instances; after EVERY request the live schedule must pass
//    sched::validate, and the engine's feasibility verdict must match a
//    from-scratch portfolio solve over the same canonical spec list (the
//    engine's re-solve rung, its verdict authority, run independently
//    here), and the exported streams must equal a batch expansion of the
//    live specs.
//  * Rejections leave the schedule byte-identical (content hash).
//  * An admitting re-solve commits exactly the portfolio's schedule of the
//    live streams, and counts as moved exactly the streams whose slots it
//    changed; a re-solve that gives up, and a Modify whose two phases both
//    re-solve, unwind byte-for-byte.
//  * An Add that collides at every offset with a placed frame rejects on
//    rung "idle", before any re-solve.
//  * Two engines fed the same trace agree on every verdict and state hash.
//  * Invalid requests (unknown node, duplicate name, unknown removal)
//    reject with rung "invalid" and the service stays up; a seeded fuzz
//    loop mixes every kind of malformed request into valid churn.
//  * Hand-made incremental admissions on the paper's topologies.
//
// The randomized TCT specs carry explicit priorities: the engine's
// round-robin priority cursor advances over its full history (removals
// included), while a from-scratch batch expansion restarts it at zero —
// explicit priorities keep the two expansions identical, which the
// oracle-parity and batch-expansion checks need.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/admission.h"
#include "sched/expand.h"
#include "sched/portfolio.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "workload/iec60802.h"

namespace etsn::sched {
namespace {

net::StreamSpec tct(const std::string& name, net::NodeId src, net::NodeId dst,
                    TimeNs period, int payload, bool share, int priority) {
  net::StreamSpec s;
  s.name = name;
  s.src = src;
  s.dst = dst;
  s.period = period;
  s.maxLatency = period;
  s.payloadBytes = payload;
  s.share = share;
  s.priority = priority;
  return s;
}

SchedulerConfig config() {
  SchedulerConfig c;
  c.numProbabilistic = 3;
  return c;
}

/// A randomized live instance: a small scaled topology plus a feasible
/// base spec set (explicit priorities, see file comment).
struct Instance {
  net::Topology topo;
  std::vector<net::StreamSpec> base;
  std::vector<net::NodeId> devices;
};

Instance makeInstance(std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  const auto kind =
      static_cast<workload::TopologyKind>(rng.uniformInt(0, 3));
  const int switches = static_cast<int>(rng.uniformInt(2, 3));
  inst.topo = workload::makeScaledTopology(kind, switches, 2);
  for (int d = 0; d < 2 * switches; ++d) {
    inst.devices.push_back(switches + d);
  }
  const int baseStreams = static_cast<int>(rng.uniformInt(2, 4));
  for (int i = 0; i < baseStreams; ++i) {
    const net::NodeId src = rng.pick(inst.devices);
    net::NodeId dst = rng.pick(inst.devices);
    while (dst == src) dst = rng.pick(inst.devices);
    const TimeNs period = milliseconds(4 << rng.uniformInt(0, 2));
    const bool share = rng.uniformInt(0, 1) == 1;
    const int prio = static_cast<int>(share ? 4 + rng.uniformInt(0, 2)
                                            : 1 + rng.uniformInt(0, 2));
    inst.base.push_back(tct("base" + std::to_string(i), src, dst, period,
                            static_cast<int>(rng.uniformInt(400, 1800)),
                            share, prio));
  }
  if (seed % 2 == 0) {
    inst.base.push_back(workload::makeEct("base_ect", inst.devices[0],
                                          inst.devices.back(),
                                          milliseconds(16), 200));
  }
  return inst;
}

/// A random candidate spec for an Add/Modify; occasionally deliberately
/// impossible (multi-frame payload against a sub-millisecond deadline) so
/// the trace exercises rejections too.
net::StreamSpec randomSpec(Rng& rng, const Instance& inst,
                           const std::string& name) {
  const net::NodeId src = rng.pick(inst.devices);
  net::NodeId dst = rng.pick(inst.devices);
  while (dst == src) dst = rng.pick(inst.devices);
  if (rng.uniformInt(0, 5) == 0) {
    net::StreamSpec s =
        tct(name, src, dst, microseconds(500), 4500, false, 1);
    return s;  // ~3 frames in 500 us over >= 2 hops: never feasible
  }
  if (rng.uniformInt(0, 5) == 0) {
    return workload::makeEct(name, src, dst, milliseconds(16), 200);
  }
  const TimeNs period = milliseconds(4 << rng.uniformInt(0, 2));
  const bool share = rng.uniformInt(0, 1) == 1;
  const int prio = static_cast<int>(share ? 4 + rng.uniformInt(0, 2)
                                          : 1 + rng.uniformInt(0, 2));
  return tct(name, src, dst, period,
             static_cast<int>(rng.uniformInt(400, 2500)), share, prio);
}

/// Seeded request trace; identical for identical seeds so two engines can
/// be driven in lockstep.
std::vector<AdmissionRequest> makeTrace(Rng& rng, const Instance& inst,
                                        int length) {
  std::vector<AdmissionRequest> trace;
  std::vector<std::string> liveNames;
  for (const net::StreamSpec& s : inst.base) liveNames.push_back(s.name);
  std::vector<std::string> retiredNames;
  int fresh = 0;
  for (int i = 0; i < length; ++i) {
    const std::int64_t dice = rng.uniformInt(0, 9);
    if (dice >= 8 && !trace.empty()) {
      trace.push_back(trace.back());  // repeat against the state it left
      continue;
    }
    if (dice >= 6 && liveNames.size() > 1) {
      const std::size_t v =
          static_cast<std::size_t>(rng.uniformInt(
              0, static_cast<std::int64_t>(liveNames.size()) - 1));
      trace.push_back(removeRequest(liveNames[v]));
      retiredNames.push_back(liveNames[v]);
      liveNames.erase(liveNames.begin() + static_cast<std::ptrdiff_t>(v));
      continue;
    }
    if (dice == 5 && !liveNames.empty()) {
      const std::string name = rng.pick(liveNames);
      trace.push_back(modifyRequest(randomSpec(rng, inst, name)));
      continue;
    }
    if (dice == 4 && !retiredNames.empty()) {
      const std::string name = retiredNames.back();
      retiredNames.pop_back();
      trace.push_back(addRequest(randomSpec(rng, inst, name)));
      liveNames.push_back(name);
      continue;
    }
    const std::string name = "churn" + std::to_string(fresh++);
    trace.push_back(addRequest(randomSpec(rng, inst, name)));
    liveNames.push_back(name);  // optimistic; rejection just misses later
  }
  return trace;
}

/// From-scratch portfolio verdict over an explicit spec list — the same
/// engine family the admission engine's re-solve rung runs, invoked through the
/// public batch API as an independent oracle.
bool oracleFeasible(const net::Topology& topo,
                    const std::vector<net::StreamSpec>& specs) {
  ScheduleOptions opt;
  opt.engine = Engine::Portfolio;
  opt.config = config();
  return buildSchedule(topo, specs, opt).schedule.info.feasible;
}

void expectValid(const net::Topology& topo, const Schedule& s,
                 std::uint64_t seed, int step) {
  for (const auto& v : validate(topo, s)) {
    ADD_FAILURE() << "seed " << seed << " step " << step << ": "
                  << v.constraint << ": " << v.detail;
  }
}

/// The engine's streams must be exactly what a batch expansion of its live
/// specs gives — routing, possibilities, priorities and Alg. 1 grids —
/// however the requests reached that spec list.
void expectMatchesBatchExpansion(const net::Topology& topo, const Schedule& s,
                                 std::uint64_t seed, int step) {
  const Expansion exp = expandStreams(topo, s.specs, config());
  ASSERT_EQ(s.streams.size(), exp.streams.size())
      << "seed " << seed << " step " << step;
  for (std::size_t i = 0; i < exp.streams.size(); ++i) {
    const ExpandedStream& a = s.streams[i];
    const ExpandedStream& b = exp.streams[i];
    const std::string at = "seed " + std::to_string(seed) + " step " +
                           std::to_string(step) + " stream " + b.name;
    EXPECT_EQ(a.name, b.name) << at;
    EXPECT_EQ(a.kind, b.kind) << at;
    EXPECT_EQ(a.member, b.member) << at;
    EXPECT_EQ(a.priority, b.priority) << at;
    EXPECT_EQ(a.path, b.path) << at;
    EXPECT_EQ(a.period, b.period) << at;
    EXPECT_EQ(a.maxLatency, b.maxLatency) << at;
    EXPECT_EQ(a.occurrence, b.occurrence) << at;
    EXPECT_EQ(a.framePayloads, b.framePayloads) << at;
    EXPECT_EQ(a.framesOnLink, b.framesOnLink) << at;
  }
}

TEST(Admission, BaseScheduleMatchesBatch) {
  const Instance inst = makeInstance(7);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  const Schedule s = eng.schedule();
  EXPECT_EQ(s.specs.size(), inst.base.size());
  EXPECT_EQ(s.info.engine, "admission");
  expectValid(inst.topo, s, 7, 0);
  EXPECT_TRUE(oracleFeasible(inst.topo, inst.base));
}

// The headline contract: 100 random churn traces; every post-request
// state validates, every rejection is a byte-identical no-op, and the
// engine's verdict agrees with a from-scratch portfolio solve over the
// canonical live spec list (plus the candidate, for adds).
TEST(Admission, ChurnTracesValidateAndMatchOracle) {
  int admits = 0, rejects = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Instance inst = makeInstance(seed);
    AdmissionEngine eng(inst.topo, inst.base, config());
    if (!eng.feasible()) {
      // A randomized base set may be over-subscribed; the instance is
      // then vacuous for churn.  Keep the corpus honest: this must agree
      // with the oracle and stay rare enough to leave real coverage.
      EXPECT_FALSE(oracleFeasible(inst.topo, inst.base)) << "seed " << seed;
      continue;
    }
    Rng rng(seed * 977);
    const std::vector<AdmissionRequest> trace = makeTrace(rng, inst, 8);
    int step = 0;
    for (const AdmissionRequest& req : trace) {
      const std::uint64_t before = scheduleHash(eng.schedule());
      const std::vector<net::StreamSpec> liveBefore = eng.schedule().specs;
      const AdmissionDecision d = eng.request(req);
      ++step;
      (d.admitted ? admits : rejects)++;
      const Schedule now = eng.schedule();
      expectValid(inst.topo, now, seed, step);
      expectMatchesBatchExpansion(inst.topo, now, seed, step);
      if (!d.admitted) {
        EXPECT_EQ(scheduleHash(now), before)
            << "seed " << seed << " step " << step
            << ": rejection mutated the schedule (rung " << d.rung << ")";
      }
      if (d.rung == "invalid") continue;
      // Oracle parity on the solved verdict.  For a rejected Add the
      // hypothetical spec list is the live set plus the candidate; for
      // everything else it is the post-request live set.
      std::vector<net::StreamSpec> specs = now.specs;
      if (!d.admitted && req.op == AdmissionRequest::Op::Add) {
        specs.push_back(req.spec);
        EXPECT_FALSE(oracleFeasible(inst.topo, specs))
            << "seed " << seed << " step " << step << ": engine rejected '"
            << req.spec.name << "' but the portfolio solves it";
      } else if (d.admitted) {
        EXPECT_TRUE(oracleFeasible(inst.topo, specs))
            << "seed " << seed << " step " << step
            << ": engine admitted a state the portfolio cannot re-solve";
      }
    }
  }
  // The corpus must exercise all three outcomes, not degenerate.
  EXPECT_GT(admits, 100);
  EXPECT_GT(rejects, 20);
}

// Removing a stream and adding it again decides the re-add live, on the
// delta rung, and restores the first admission's schedule exactly.
TEST(Admission, RemoveThenReAddRestoresTheSchedule) {
  const Instance inst = makeInstance(3);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  net::StreamSpec extra = tct("extra", inst.devices[0], inst.devices[1],
                              milliseconds(8), 900, true, 5);
  ASSERT_TRUE(eng.request(addRequest(extra)).admitted);
  const std::uint64_t withExtra = scheduleHash(eng.schedule());
  ASSERT_TRUE(eng.request(removeRequest("extra")).admitted);
  const AdmissionDecision again = eng.request(addRequest(extra));
  EXPECT_TRUE(again.admitted);
  EXPECT_EQ(again.rung, "delta");
  EXPECT_EQ(scheduleHash(eng.schedule()), withExtra);
  expectValid(inst.topo, eng.schedule(), 3, 3);
}

TEST(Admission, RejectionLeavesScheduleByteIdentical) {
  const Instance inst = makeInstance(5);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  const std::uint64_t before = scheduleHash(eng.schedule());
  const std::uint64_t stateBefore = eng.stateHash();
  // 4.5 kB every 500 us over a multi-hop path cannot fit a 100 Mbps link.
  const AdmissionRequest greedy = addRequest(
      tct("greedy", inst.devices[0], inst.devices.back(), microseconds(500),
          4500, false, 1));
  const AdmissionCounters snap = eng.counters();
  const AdmissionDecision d = eng.request(greedy);
  EXPECT_FALSE(d.admitted);
  // It misses on the idle network already, so neither the rip-up pass nor
  // the re-solve runs.
  EXPECT_EQ(d.rung, "idle");
  EXPECT_EQ(eng.counters().deltaSolves, snap.deltaSolves);
  EXPECT_EQ(eng.counters().fullResolves, snap.fullResolves);
  // The last hop's frame 1 cannot start by its latest start, the 500-us
  // period less its 124-us wire time.
  EXPECT_NE(d.detail.find("stream 'greedy' misses its window (1)-(2)"),
            std::string::npos)
      << d.detail;
  EXPECT_NE(d.detail.find("bound 376.000us"), std::string::npos) << d.detail;
  EXPECT_EQ(d.movedStreams, 0);
  EXPECT_EQ(scheduleHash(eng.schedule()), before);
  EXPECT_EQ(eng.stateHash(), stateBefore);
  EXPECT_EQ(eng.counters().rejects, 1);
  // Same state, same request: the idle rung rejects it again, alike.
  const AdmissionDecision again = eng.request(greedy);
  EXPECT_FALSE(again.admitted);
  EXPECT_EQ(again.rung, "idle");
  EXPECT_EQ(again.detail, d.detail);
  EXPECT_EQ(scheduleHash(eng.schedule()), before);
  EXPECT_EQ(eng.counters().rejects, 2);
  // One 1 kB frame fits its 4-ms window, but its first hop alone
  // outlasts a 50-us latency bound.
  net::StreamSpec tight = tct("tight", inst.devices[0], inst.devices.back(),
                              milliseconds(4), 1000, false, 1);
  tight.maxLatency = microseconds(50);
  const AdmissionDecision late = eng.request(addRequest(tight));
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.rung, "idle");
  EXPECT_NE(late.detail.find("stream 'tight' misses latency (4)"),
            std::string::npos)
      << late.detail;
  EXPECT_NE(late.detail.find("bound 50.000us"), std::string::npos)
      << late.detail;
  EXPECT_EQ(eng.counters().deltaSolves, snap.deltaSolves);
  EXPECT_EQ(eng.counters().fullResolves, snap.fullResolves);
  EXPECT_EQ(scheduleHash(eng.schedule()), before);
}

TEST(Admission, InvalidRequestsRejectWithoutThrowing) {
  const Instance inst = makeInstance(9);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  const std::uint64_t before = eng.stateHash();

  // Unknown removal.
  AdmissionDecision d = eng.request(removeRequest("phantom"));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.rung, "invalid");

  // Duplicate live name.
  d = eng.request(addRequest(tct(inst.base[0].name, inst.devices[0],
                                 inst.devices[1], milliseconds(4), 500,
                                 true, 4)));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.rung, "invalid");

  // Priority outside its group (constraint 6).
  d = eng.request(addRequest(tct("badprio", inst.devices[0],
                                 inst.devices[1], milliseconds(4), 500,
                                 /*share=*/true, /*priority=*/1)));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.rung, "invalid");

  EXPECT_EQ(eng.stateHash(), before);
  EXPECT_TRUE(eng.feasible());
  expectValid(inst.topo, eng.schedule(), 9, 3);
}

// Regression: an ECT whose min interevent time is smaller than
// numProbabilistic only fails inside expandSpec (T/N == 0), *after* the
// spec entry has already been transacted.  The request must come back as
// an "invalid" rejection with the transaction fully unwound — not escape
// as an exception with half the state mutated.
TEST(Admission, EctPeriodTooSmallForNRejectsInvalid) {
  const Instance inst = makeInstance(9);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  const std::uint64_t before = eng.stateHash();
  const AdmissionDecision d = eng.request(addRequest(workload::makeEct(
      "tiny", inst.devices[0], inst.devices[1], /*minInterevent=*/2, 200)));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.rung, "invalid");
  EXPECT_EQ(eng.stateHash(), before);
  // The service is still up and consistent: a valid add goes through and
  // the resulting schedule validates.
  const AdmissionDecision ok = eng.request(addRequest(
      tct("after", inst.devices[0], inst.devices[1], milliseconds(8), 500,
          true, 4)));
  EXPECT_TRUE(ok.admitted);
  expectValid(inst.topo, eng.schedule(), 9, 2);
}

// Regression: decisions the rip-up pass cannot place escalate into the
// full re-solve rung, which commits through the op log.  Rejections
// (including Modifies whose remove phase already re-solved) must unwind
// to the byte-identical pre-request state, and a second engine fed the
// same trace must reach the same verdict and state hash at every step
// (repeat-run determinism).
TEST(Admission, ResolveEscalationStaysTransactional) {
  std::int64_t resolves = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = makeInstance(seed);
    AdmissionEngine on(inst.topo, inst.base, config());
    AdmissionEngine off(inst.topo, inst.base, config());
    ASSERT_EQ(on.feasible(), off.feasible()) << "seed " << seed;
    if (!on.feasible()) continue;
    Rng rng(seed * 7919);
    int step = 0;
    for (const AdmissionRequest& req : makeTrace(rng, inst, 10)) {
      const std::uint64_t before = on.stateHash();
      const AdmissionDecision a = on.request(req);
      const AdmissionDecision b = off.request(req);
      ++step;
      EXPECT_EQ(a.admitted, b.admitted)
          << "seed " << seed << " step " << step << " (rungs " << a.rung
          << " vs " << b.rung << ")";
      if (!a.admitted) {
        EXPECT_EQ(on.stateHash(), before)
            << "seed " << seed << " step " << step << ": rejection on rung "
            << a.rung << " mutated the schedule";
      }
      EXPECT_EQ(on.stateHash(), off.stateHash())
          << "seed " << seed << " step " << step;
      expectValid(inst.topo, on.schedule(), seed, step);
    }
    resolves += on.counters().fullResolves;
  }
  EXPECT_GT(resolves, 0) << "corpus never exercised the re-solve rung";
}

/// Each stream's slots as (hop, frame, start, duration), by stream name.
std::map<std::string, std::vector<std::vector<TimeNs>>> slotsByName(
    const std::vector<ExpandedStream>& streams,
    const std::vector<Slot>& slots) {
  std::map<std::string, std::vector<std::vector<TimeNs>>> out;
  for (const Slot& sl : slots) {
    out[streams[static_cast<std::size_t>(sl.stream)].name].push_back(
        {sl.hop, sl.frameIndex, sl.start, sl.duration});
  }
  return out;
}

// An admitting re-solve commits the portfolio's schedule of the live
// streams but re-pins only the streams whose starts it changed.  The
// traces are ResolveEscalationStaysTransactional's, longer (40 requests
// on 40 instances, which reach both admitting and rejecting re-solves).
// Each admitting re-solve of an Add or a Remove must report as moved
// exactly the pre-existing streams whose slots changed; every other
// stream keeps its slots bit for bit, and the whole live schedule is the
// one a from-scratch portfolio solve of the exported streams gives.  A
// rejection that escalated to a re-solve restores the pre-request state
// hash.
TEST(Admission, ResolveRepinsOnlyTheStreamsItMoves) {
  int admitted = 0;
  int rejected = 0;
  int kept = 0;
  int moved = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Instance inst = makeInstance(seed);
    AdmissionEngine eng(inst.topo, inst.base, config());
    if (!eng.feasible()) continue;
    Rng rng(seed * 7919);
    int step = 0;
    for (const AdmissionRequest& req : makeTrace(rng, inst, 40)) {
      ++step;
      const std::string at =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const Schedule was = eng.schedule();
      const auto before = slotsByName(was.streams, was.slots);
      const std::uint64_t hashBefore = eng.stateHash();
      const std::int64_t resolvesBefore = eng.counters().fullResolves;
      const AdmissionDecision d = eng.request(req);
      if (eng.counters().fullResolves == resolvesBefore) continue;
      if (!d.admitted) {
        EXPECT_EQ(eng.stateHash(), hashBefore) << at;
        ++rejected;
        continue;
      }
      if (d.rung != "resolve") continue;
      const Schedule now = eng.schedule();
      const PortfolioResult solve =
          runPortfolio(inst.topo, now.streams, config(), {});
      ASSERT_TRUE(solve.feasible) << at;
      const auto after = slotsByName(now.streams, now.slots);
      EXPECT_EQ(after, slotsByName(now.streams, solve.slots)) << at;
      // A Modify's two phases may move a stream and move it back.
      if (req.op == AdmissionRequest::Op::Modify) continue;
      int differ = 0;
      for (const auto& [name, slots] : before) {
        const auto it = after.find(name);
        if (it == after.end()) continue;  // retired by this request
        if (it->second == slots) {
          ++kept;
        } else {
          ++differ;
        }
      }
      EXPECT_EQ(d.movedStreams, differ) << at;
      moved += differ;
      ++admitted;
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(kept, 0);
  EXPECT_GT(moved, 0);
}

/// The base specs of a two-switch ring on which removing the ECT makes a
/// re-solve place its three shared streams' shrunken grids (found by a
/// seeded search over random plants), and a 9-kB, 1-ms stream from node 2
/// to node 5 that passes the idle rung there but that no re-solve fits.
std::vector<net::StreamSpec> ringBase() {
  const auto shared = [](const std::string& name, net::NodeId src,
                         net::NodeId dst, TimeNs period, TimeNs latency,
                         int payload, int priority) {
    net::StreamSpec s = tct(name, src, dst, period, payload, true, priority);
    s.maxLatency = latency;
    return s;
  };
  return {shared("s0", 2, 4, milliseconds(4), microseconds(780), 891, 4),
          shared("s1", 2, 4, milliseconds(8), microseconds(858), 1331, 6),
          shared("s2", 3, 5, milliseconds(8), microseconds(396), 757, 6),
          workload::makeEct("ect", 2, 5, milliseconds(8), 973)};
}

net::StreamSpec ringHog(const std::string& name) {
  return tct(name, 2, 5, milliseconds(1), 9000, false, 1);
}

net::Topology ringTopology() {
  return workload::makeScaledTopology(workload::TopologyKind::Ring, 2, 2);
}

// Regression: a re-solve that gives up leaves its partial schedule, the
// request's appended stream included, in the engine's scratch Placement;
// the rollback must clear it before truncating the stream vector, and the
// scratch must serve the requests that follow.
TEST(Admission, GivenUpResolveLeavesTheEngineServing) {
  const net::Topology topo = ringTopology();
  AdmissionEngine eng(topo, ringBase(), config());
  ASSERT_TRUE(eng.feasible());
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t before = eng.stateHash();
    const std::uint64_t schedBefore = scheduleHash(eng.schedule());
    const std::int64_t resolves = eng.counters().fullResolves;
    const AdmissionDecision d = eng.request(addRequest(ringHog("hog")));
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.rung, "resolve") << d.detail;
    EXPECT_EQ(eng.counters().fullResolves, resolves + 1);
    EXPECT_EQ(eng.stateHash(), before);
    EXPECT_EQ(scheduleHash(eng.schedule()), schedBefore);
    // More requests on the same scratch: an admitted add, a removal that
    // re-solves or not, and a re-add of a removed stream.
    const AdmissionDecision add = eng.request(addRequest(
        tct("small" + std::to_string(round), 3, 4, milliseconds(8), 300,
            false, 2)));
    EXPECT_TRUE(add.admitted) << add.rung << ": " << add.detail;
    EXPECT_TRUE(eng.request(removeRequest("s1")).admitted);
    expectValid(topo, eng.schedule(), 1, round);
    EXPECT_TRUE(eng.request(addRequest(ringBase()[1])).admitted);
    expectValid(topo, eng.schedule(), 2, round);
  }
  // A from-scratch solve admits the final live set too.
  EXPECT_TRUE(oracleFeasible(topo, eng.schedule().specs));
}

// Regression: a Modify of the ECT whose remove phase re-solves (the
// shared streams' shrunken grids do not re-place) and whose add phase
// re-solves and is rejected: both Swaps unwind, and the engine returns to
// its state hash and schedule byte-for-byte.  A second engine, fed the two
// phases as separate requests, shows that both reach the re-solve.
TEST(Admission, ModifyWhoseTwoPhasesResolveUnwindsBoth) {
  const net::Topology topo = ringTopology();
  AdmissionEngine phases(topo, ringBase(), config());
  ASSERT_TRUE(phases.feasible());
  const AdmissionDecision removed = phases.request(removeRequest("ect"));
  EXPECT_TRUE(removed.admitted);
  EXPECT_EQ(removed.rung, "resolve");
  EXPECT_GT(removed.movedStreams, 0);
  const std::int64_t resolves = phases.counters().fullResolves;
  const AdmissionDecision added = phases.request(addRequest(ringHog("ect")));
  EXPECT_FALSE(added.admitted);
  EXPECT_EQ(added.rung, "resolve");
  EXPECT_EQ(phases.counters().fullResolves, resolves + 1);

  AdmissionEngine eng(topo, ringBase(), config());
  ASSERT_TRUE(eng.feasible());
  const std::uint64_t before = eng.stateHash();
  const Schedule was = eng.schedule();
  const AdmissionDecision d = eng.request(modifyRequest(ringHog("ect")));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.rung, "resolve");
  EXPECT_EQ(eng.stateHash(), before);
  const Schedule now = eng.schedule();
  EXPECT_EQ(scheduleHash(now), scheduleHash(was));
  ASSERT_EQ(now.slots.size(), was.slots.size());
  for (std::size_t i = 0; i < now.slots.size(); ++i) {
    EXPECT_EQ(now.slots[i].stream, was.slots[i].stream) << "slot " << i;
    EXPECT_EQ(now.slots[i].start, was.slots[i].start) << "slot " << i;
  }
  // Still serving: the same two phases as separate requests reach what
  // the phased engine reached.
  EXPECT_TRUE(eng.request(removeRequest("ect")).admitted);
  EXPECT_EQ(eng.stateHash(), phases.stateHash());
  expectValid(topo, eng.schedule(), 0, 2);
}

// An Add whose period is coprime to a placed stream's on a shared link can
// never fit: two periodic frames that may not overlap avoid each other
// only if their lengths sum to at most the gcd of their periods, here one
// tu.  The clash test rejects it on rung "idle" without the rip-up pass or
// the re-solve (which took 0.66 s and 16.7 s for these two Adds, most of
// it in tabu), and the detail names both streams, the link and the gcd.
// The 100 003-us period lifts the engine's hyperperiod past the bitmap
// bound, so the Placement drops its bitmaps for the pairwise search, and
// the engine keeps admitting.
TEST(Admission, AddThatCollidesAtEveryOffsetRejectsOnIdle) {
  const net::Topology topo =
      workload::makeScaledTopology(workload::TopologyKind::Line, 1, 2);
  AdmissionEngine eng(topo, {tct("base", 1, 2, milliseconds(4), 500, false, 1)},
                      config());
  ASSERT_TRUE(eng.feasible());
  for (const TimeNs period : {microseconds(1009), microseconds(100003)}) {
    const std::uint64_t before = eng.stateHash();
    const AdmissionCounters snap = eng.counters();
    const AdmissionDecision d =
        eng.request(addRequest(tct("coprime", 1, 2, period, 500, false, 2)));
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.rung, "idle") << d.detail;
    EXPECT_EQ(eng.counters().fullResolves, snap.fullResolves);
    EXPECT_EQ(eng.counters().deltaSolves, snap.deltaSolves);
    EXPECT_NE(d.detail.find("stream 'coprime' collides with stream 'base' "
                            "at every offset on link"),
              std::string::npos)
        << d.detail;
    EXPECT_NE(d.detail.find("1.000us gcd"), std::string::npos) << d.detail;
    EXPECT_EQ(eng.stateHash(), before);
  }
  const AdmissionDecision ok = eng.request(
      addRequest(tct("harmonic", 1, 2, milliseconds(8), 500, false, 2)));
  EXPECT_TRUE(ok.admitted) << ok.rung << ": " << ok.detail;
  EXPECT_EQ(ok.rung, "delta");
  expectValid(topo, eng.schedule(), 0, 3);
}

// Regression: rung-usage counters move at most once per request — a
// Modify runs the placement pass for both of its phases but is still
// one delta-solved request.
TEST(Admission, RungCountersIncrementOncePerRequest) {
  const Instance inst = makeInstance(7);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  net::StreamSpec grown = inst.base[0];
  grown.payloadBytes += 100;
  const AdmissionCounters snap = eng.counters();
  ASSERT_TRUE(eng.request(modifyRequest(grown)).admitted);
  const AdmissionCounters& c = eng.counters();
  EXPECT_LE(c.deltaSolves, snap.deltaSolves + 1);
  EXPECT_LE(c.fullResolves, snap.fullResolves + 1);
  EXPECT_GE(c.deltaSolves + c.fullResolves,
            snap.deltaSolves + snap.fullResolves + 1);
}

TEST(Admission, ModifyReplacesSpecAtomically) {
  const Instance inst = makeInstance(11);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  net::StreamSpec grown = inst.base[0];
  grown.payloadBytes += 300;
  const AdmissionDecision d = eng.request(modifyRequest(grown));
  if (d.admitted) {
    const Schedule s = eng.schedule();
    bool found = false;
    for (const net::StreamSpec& sp : s.specs) {
      if (sp.name == grown.name) {
        EXPECT_EQ(sp.payloadBytes, grown.payloadBytes);
        found = true;
      }
    }
    EXPECT_TRUE(found);
    expectValid(inst.topo, s, 11, 1);
  } else {
    // A rejected modify must keep the original spec live and untouched.
    const Schedule s = eng.schedule();
    EXPECT_EQ(s.specs.size(), inst.base.size());
    expectValid(inst.topo, s, 11, 1);
  }
}

// The engine keeps its own topology: the caller's copy may go out of scope
// right after construction (asan catches a dangling reference), and the
// exported schedule still validates against an identical topology.
TEST(Admission, EngineOwnsItsTopology) {
  const std::uint64_t seed = 4;
  const Instance inst = makeInstance(seed);
  std::unique_ptr<AdmissionEngine> eng;
  {
    const net::Topology scoped = makeInstance(seed).topo;
    eng = std::make_unique<AdmissionEngine>(scoped, inst.base, config());
  }
  ASSERT_TRUE(eng->feasible());
  Rng rng(seed * 61);
  int admits = 0;
  for (const AdmissionRequest& req : makeTrace(rng, inst, 50)) {
    admits += eng->request(req).admitted ? 1 : 0;
  }
  EXPECT_GT(admits, 0);
  expectValid(makeInstance(seed).topo, eng->schedule(), seed, 50);
}

TEST(Admission, CountersAreConsistent) {
  const Instance inst = makeInstance(17);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  Rng rng(17 * 7);
  const std::vector<AdmissionRequest> trace = makeTrace(rng, inst, 12);
  for (const AdmissionRequest& req : trace) eng.request(req);
  const AdmissionCounters& c = eng.counters();
  EXPECT_EQ(c.requests, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(c.admits + c.rejects, c.requests);
  EXPECT_GE(c.deltaSolves + c.fullResolves, 0);
}

/// One fuzzed request, and whether it is malformed by construction.
struct FuzzCase {
  AdmissionRequest req;
  bool malformed = false;
  std::string what;
};

/// A malformed copy of `s`, broken in one of the ways the engine must
/// reject as "invalid".
FuzzCase malformedAdd(Rng& rng, const Instance& inst, net::StreamSpec s,
                      const std::vector<std::string>& live) {
  const net::Topology& t = inst.topo;
  const std::vector<net::LinkId> route = t.shortestPath(s.src, s.dst);
  std::string what;
  switch (rng.uniformInt(0, 21)) {
    case 0: s.src = t.numNodes(); what = "source out of range"; break;
    case 1: s.src = -3; what = "negative source"; break;
    case 2: s.dst = t.numNodes() + 5; what = "destination out of range"; break;
    case 3: s.dst = s.src; what = "source equals destination"; break;
    case 4:
      s.payloadBytes = -static_cast<int>(rng.uniformInt(0, 1000));
      what = "non-positive payload";
      break;
    case 5:
      s.period = -s.period * rng.uniformInt(0, 1);
      what = "non-positive period";
      break;
    case 6:
      s.maxLatency = -rng.uniformInt(0, 5);
      what = "non-positive latency";
      break;
    case 7:
      s.priority = rng.uniformInt(0, 1) == 0 ? 8 : -2;
      what = "priority out of range";
      break;
    case 8:
      s.type = net::TrafficClass::TimeTriggered;
      s.priority = s.share ? 1 : 5;
      what = "priority outside its group";
      break;
    case 9:
      s.type = net::TrafficClass::TimeTriggered;
      s.releaseOffset = rng.uniformInt(0, 1) == 0 ? s.period : -1;
      what = "release offset outside [0, period)";
      break;
    case 10: s.redundancy = 0; what = "redundancy 0"; break;
    case 11:
      s.redundancy = static_cast<int>(rng.uniformInt(2, 4));
      what = "redundancy above the disjoint paths of a single-homed device";
      break;
    case 12:
      s.path = {static_cast<net::LinkId>(t.numLinks() + 3)};
      what = "path with a bad link";
      break;
    case 13: {
      // A link that does not leave the source.
      net::LinkId l = 0;
      while (t.link(l).from == s.src) ++l;
      s.path = {l};
      what = "disconnected path";
      break;
    }
    case 14:
      s.path = route;
      s.path.pop_back();  // every route has two hops at least
      what = "path ending short of the destination";
      break;
    case 15:
      s.path = route;
      s.redundancy = 2;
      what = "explicit path with redundancy 2";
      break;
    case 16: s.period += 1; what = "off-grid period"; break;
    case 17:
      s = workload::makeEct(s.name, s.src, s.dst, /*minInterevent=*/2, 200);
      what = "ECT with T < N";
      break;
    case 18:
      s = workload::makeEct(s.name, s.src, s.dst, milliseconds(16), 200);
      s.priority = 3;
      what = "ECT with a non-EP priority";
      break;
    case 19:
      s = workload::makeEct(s.name, s.src, s.dst, milliseconds(15), 200,
                            /*maxLatency=*/milliseconds(5));
      what = "ECT deadline no longer than T/N";
      break;
    case 20:
      s.name = rng.pick(live);
      what = "duplicate name";
      break;
    default:
      // An odd period of ~4.6e12 us: its LCM with the plant's 4-16 ms
      // periods overflows int64 ns.
      s.type = net::TrafficClass::TimeTriggered;
      s.priority = -1;
      s.period = microseconds(4611686018427);
      s.maxLatency = s.period;
      what = "hyperperiod overflow";
      break;
  }
  return {addRequest(std::move(s)), true, what};
}

// Seeded fuzzing of AdmissionEngine::request on one plant: malformed
// Adds, and Removes and Modifies of unknown names, mixed into valid churn
// (fresh adds, re-adds, removals, modifies and repeats).  Every request
// returns a decision, malformed ones on rung "invalid"; every rejection
// leaves stateHash() unchanged and every state validates.  Valid periods
// come from the plant's harmonic set: a coprime period on a shared link is
// legitimately infeasible, but each such Add costs a full re-solve.
TEST(Admission, FuzzedRequestsAlwaysDecide) {
  const std::uint64_t seed = 6;
  const Instance inst = makeInstance(seed);
  AdmissionEngine eng(inst.topo, inst.base, config());
  ASSERT_TRUE(eng.feasible());
  Rng rng(seed * 4099);
  std::vector<std::string> live;
  std::vector<std::string> retired;
  FuzzCase last{removeRequest("ghost"), true, "unknown removal"};
  int malformed = 0;
  int admits = 0;
  for (int step = 1; step <= 400; ++step) {
    live.clear();
    for (const net::StreamSpec& s : eng.schedule().specs) {
      live.push_back(s.name);
    }
    FuzzCase c;
    const std::int64_t dice = rng.uniformInt(0, 19);
    if (dice < 6) {
      c = malformedAdd(rng, inst,
                       randomSpec(rng, inst, "bad" + std::to_string(step)),
                       live);
    } else if (dice == 6) {
      c = {removeRequest("ghost" + std::to_string(step)), true,
           "unknown removal"};
    } else if (dice == 7) {
      c = {modifyRequest(randomSpec(rng, inst, "ghost")), true,
           "unknown modify"};
    } else if (dice == 8 && !live.empty()) {
      // A Modify whose add phase is malformed unwinds its remove phase.
      const FuzzCase add = malformedAdd(
          rng, inst, randomSpec(rng, inst, rng.pick(live)), live);
      c = {modifyRequest(add.req.spec, rng.pick(live)), true,
           "modify: " + add.what};
      // Retiring the very spec the new one duplicates frees its name.
      if (c.req.name == c.req.spec.name && add.what == "duplicate name") {
        c.malformed = false;
      }
    } else if (dice == 9) {
      // A rejected request left the state as it was, so a malformed one
      // is malformed again.
      c = last;
      c.what = "repeat: " + c.what;
    } else if (dice < 12 && live.size() > 1) {
      const std::string name = rng.pick(live);
      c = {removeRequest(name), false, "remove"};
      retired.push_back(name);
    } else if (dice == 12 && !live.empty()) {
      c = {modifyRequest(randomSpec(rng, inst, rng.pick(live))), false,
           "modify"};
    } else if (dice == 13 && !retired.empty()) {
      c = {addRequest(randomSpec(rng, inst, retired.back())), false, "re-add"};
      retired.pop_back();
    } else {
      c = {addRequest(randomSpec(rng, inst, "fuzz" + std::to_string(step))),
           false, "add"};
    }
    last = c;
    const std::string at = "step " + std::to_string(step) + " (" + c.what +
                           ")";
    const std::uint64_t before = eng.stateHash();
    AdmissionDecision d;
    try {
      d = eng.request(c.req);
    } catch (const std::exception& e) {
      ADD_FAILURE() << at << " threw: " << e.what();
      continue;
    }
    EXPECT_TRUE(d.rung == "idle" || d.rung == "delta" || d.rung == "ripup" ||
                d.rung == "resolve" || d.rung == "invalid")
        << at << ": rung '" << d.rung << "'";
    if (c.malformed) {
      ++malformed;
      EXPECT_FALSE(d.admitted) << at;
      EXPECT_EQ(d.rung, "invalid") << at << ": " << d.detail;
    }
    if (d.admitted) {
      ++admits;
    } else {
      EXPECT_EQ(eng.stateHash(), before) << at << " on rung " << d.rung;
    }
    expectValid(inst.topo, eng.schedule(), seed, step);
  }
  EXPECT_GT(malformed, 100);
  EXPECT_GT(admits, 50);
}

// Incremental admission by hand on the paper's topologies: small cases
// whose expectations can be checked on paper (the churn traces above cover
// the same rungs at random).  N = 4, round-robin priorities.

SchedulerConfig testbedConfig() {
  SchedulerConfig c;
  c.numProbabilistic = 4;
  return c;
}

TEST(Incremental, BaseScheduleSolves) {
  const net::Topology t = net::makeTestbedTopology();
  AdmissionEngine eng(
      t,
      {tct("t1", 0, 2, milliseconds(4), 1000, true, -1),
       workload::makeEct("e1", 1, 3, milliseconds(16), 1500)},
      testbedConfig());
  ASSERT_TRUE(eng.feasible());
  expectValid(t, eng.schedule(), 0, 0);
}

TEST(Incremental, AdmitExtendsSchedule) {
  const net::Topology t = net::makeTestbedTopology();
  AdmissionEngine eng(t, {tct("t1", 0, 2, milliseconds(4), 1000, false, -1)},
                      testbedConfig());
  ASSERT_TRUE(eng.feasible());
  EXPECT_TRUE(eng.request(addRequest(tct("t2", 1, 3, milliseconds(8), 2000,
                                         false, -1)))
                  .admitted);
  EXPECT_EQ(eng.counters().admits, 1);
  const Schedule s = eng.schedule();
  EXPECT_EQ(s.specs.size(), 2u);
  EXPECT_EQ(s.streams.size(), 2u);
  expectValid(t, s, 0, 1);
}

// A delta add is zero-disruption: the established stream keeps every slot
// bit-for-bit and the decision reports no moved stream.
TEST(Incremental, FreezeKeepsExistingSlots) {
  const net::Topology t = net::makeTestbedTopology();
  AdmissionEngine eng(t, {tct("t1", 0, 2, milliseconds(4), 1000, false, -1)},
                      testbedConfig());
  ASSERT_TRUE(eng.feasible());
  const Schedule before = eng.schedule();
  const AdmissionDecision d = eng.request(
      addRequest(tct("t2", 0, 2, milliseconds(4), 1000, false, -1)));
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.rung, "delta");
  EXPECT_EQ(d.movedStreams, 0);
  const Schedule after = eng.schedule();
  for (int hop = 0; hop < before.streams[0].hops(); ++hop) {
    const auto a = before.slotsOf(0, hop);
    const auto b = after.slotsOf(0, hop);
    ASSERT_EQ(a.size(), b.size()) << "hop " << hop;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].start, b[i].start) << "hop " << hop << " slot " << i;
      EXPECT_EQ(a[i].duration, b[i].duration);
    }
  }
}

TEST(Incremental, RejectionLeavesScheduleIntact) {
  const net::Topology t = net::makeTestbedTopology();
  // A 3-frame stream over 3 hops needs ~750 us end to end: 900 us fits.
  AdmissionEngine eng(
      t, {tct("t1", 0, 2, microseconds(900), 3 * 1500, false, -1)},
      testbedConfig());
  ASSERT_TRUE(eng.feasible());
  const std::uint64_t before = scheduleHash(eng.schedule());
  // A 700 us deadline cannot cover the 3-hop pipeline: must be rejected.
  EXPECT_FALSE(eng.request(addRequest(tct("t2", 1, 2, microseconds(700),
                                          3 * 1500, false, -1)))
                   .admitted);
  EXPECT_EQ(eng.counters().rejects, 1);
  EXPECT_EQ(scheduleHash(eng.schedule()), before);
  // Still able to admit something small afterwards (harmonic period:
  // non-harmonic periods shrink the gcd below a frame time and make
  // periodic non-overlap impossible).
  EXPECT_TRUE(eng.request(addRequest(tct("t3", 1, 2, microseconds(1800), 500,
                                         false, -1)))
                  .admitted);
  expectValid(t, eng.schedule(), 0, 2);
}

TEST(Incremental, SeveralAdmissionsStayValid) {
  const net::Topology t = net::makeSimulationTopology();
  AdmissionEngine eng(
      t,
      {tct("base", 0, 11, milliseconds(10), 2000, true, -1),
       workload::makeEct("e1", 0, 11, milliseconds(10), 1500)},
      testbedConfig());
  ASSERT_TRUE(eng.feasible());
  int admitted = 0;
  for (int i = 0; i < 6; ++i) {
    const net::StreamSpec s =
        tct("online" + std::to_string(i), static_cast<net::NodeId>(i),
            static_cast<net::NodeId>(11 - i), milliseconds(10), 1000,
            i % 2 == 0, -1);
    admitted += eng.request(addRequest(s)).admitted ? 1 : 0;
  }
  EXPECT_GE(admitted, 4);  // moderate load: most must fit
  expectValid(t, eng.schedule(), 0, 6);
}

TEST(Incremental, SharedAdmissionGetsPrudentExtras) {
  const net::Topology t = net::makeTestbedTopology();
  AdmissionEngine eng(
      t,
      {tct("t1", 0, 2, milliseconds(8), 1000, true, -1),
       workload::makeEct("e1", 1, 2, milliseconds(16), 1500)},
      testbedConfig());
  ASSERT_TRUE(eng.feasible());
  // Admit a sharing stream whose path overlaps the ECT on SW1-SW2, SW2-D3.
  ASSERT_TRUE(eng.request(addRequest(tct("t2", 0, 2, milliseconds(8), 1000,
                                         true, -1)))
                  .admitted);
  const Schedule s = eng.schedule();
  const ExpandedStream& t2 = s.streams.back();
  ASSERT_EQ(t2.name, "t2");
  EXPECT_EQ(t2.framesOnLink, (std::vector<int>{1, 2, 2}));  // +1 on 2 hops
  expectValid(t, s, 0, 1);
}

}  // namespace
}  // namespace etsn::sched
