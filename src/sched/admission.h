// Schedule-as-a-service: a long-running admission-control engine that
// absorbs a sustained stream of add/remove/modify requests against a live
// schedule (ROADMAP "online admission at fleet scale").
//
// Decision ladder, cheapest rung first (see DESIGN.md "Admission control"):
//
//  idle — rejects a request no placement state can admit, in time linear
//     in the slice (see rung 1) and the frames on its path, before any
//     rip-up or re-solve.  An Add's slice first runs the idle-network
//     test (Placement::idleMiss): each stream's frames at their earliest
//     starts against window (1)-(2) and latency (4); a stream that misses
//     there misses in every placement state.  Then the clash test
//     (Placement::clash): a slice frame and a placed frame on one link
//     that may not overlap collide at every offset when their lengths sum
//     to more than the gcd of their periods, so no state holding both can
//     exist.  The detail names the stream, constraint, link and bound, or
//     both streams, the link and the gcd.
//  1. delta-place — untouched streams stay pinned bit-for-bit in the
//     Placement substrate (sched/placement.h); only the request's slice
//     (the new streams, plus shared TCT streams whose prudent-reservation
//     grid changed with an ECT add/remove) is re-placed.
//  2. rip-up — when a slice stream finds no feasible offsets, rip
//     conflicting streams off the blocking link (canonical name-ordered
//     victims, at most 64 per pass) and re-place them too.  Rungs 1 and
//     2 are one pass: a pass that rips nothing decides on rung 1.
//  3. full re-solve — the portfolio scheduler over the live streams, in
//     place: greedy (then tabu) runs on the engine's own stream vector
//     with the live ids, whose stable laxity order is a from-scratch
//     solve's over the same specs, in a scratch Placement the engine
//     keeps and clears.  The verdict authority for every other
//     rejection, at one greedy pass.  An admitting re-solve commits by
//     swapping the scratch Placement in through one op-log entry, so even
//     a transaction whose earlier phase re-solved (a Modify) unwinds
//     exactly on rejection.
//
// Determinism contract: every decision is a pure function of the
// canonical engine state (stream contents + placements + the priority
// round-robin cursor, not ids or history), so verdicts and schedule hashes
// are byte-identical across repeated runs.  Rejections leave the schedule
// byte-identical: every state mutation during a request is op-logged and
// unwound on rejection, and the canonical state hash checks the unwind.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/stream.h"
#include "net/topology.h"
#include "sched/expand.h"
#include "sched/placement.h"
#include "sched/portfolio.h"
#include "sched/schedule.h"

namespace etsn::sched {

struct AdmissionOptions {
  /// Seed for the rung-3 portfolio re-solve (and the initial solve).
  PortfolioOptions portfolio;
};

struct AdmissionRequest {
  enum class Op { Add, Remove, Modify };
  Op op = Op::Add;
  /// Add/Modify: the spec to admit.  Ignored for Remove.
  net::StreamSpec spec;
  /// Remove/Modify: the live spec to retire; empty = spec.name (so a
  /// Modify that keeps the name only sets `spec`).
  std::string name;
};

AdmissionRequest addRequest(net::StreamSpec spec);
AdmissionRequest removeRequest(std::string name);
AdmissionRequest modifyRequest(net::StreamSpec spec, std::string name = "");

struct AdmissionDecision {
  bool admitted = false;
  /// Ladder rung that decided: "idle" (no placement state can admit the
  /// request: a stream misses its window or latency bound even on an idle
  /// network, or collides at every offset with a placed frame; always a
  /// rejection), "delta", "ripup", "resolve", or "invalid" (malformed
  /// request, state untouched).
  std::string rung;
  /// Human-readable rejection reason; empty on admission.
  std::string detail;
  /// Live streams this decision ripped and re-placed, on every rung:
  /// rip-up victims, shared TCT regridded by an ECT add or remove, and
  /// the streams whose starts a re-solve changed.  0 on the pure delta
  /// rung for a TCT add and on every rejection.
  int movedStreams = 0;
  double seconds = 0;
};

/// Canonical content hash of a schedule (streams, slots, feasibility) —
/// id-free, so equal schedules hash equal regardless of history.  The
/// determinism fingerprint used by the admission tests and bench.
std::uint64_t scheduleHash(const Schedule& s);

class AdmissionEngine {
 public:
  /// Solves the initial spec set with the portfolio scheduler.  The engine
  /// keeps its own copy of `topo`, so the caller's may go out of scope.
  /// Check feasible() before issuing requests: an infeasible base (or an
  /// invalid spec set, which throws ConfigError) cannot absorb churn.
  AdmissionEngine(const net::Topology& topo,
                  std::vector<net::StreamSpec> initialSpecs,
                  const SchedulerConfig& config,
                  const AdmissionOptions& options = {});

  AdmissionEngine(const AdmissionEngine&) = delete;
  AdmissionEngine& operator=(const AdmissionEngine&) = delete;

  bool feasible() const { return feasible_; }

  /// Decide one request.  Admitted state extends/changes the schedule;
  /// rejection leaves it byte-identical.  Malformed specs (unknown nodes,
  /// duplicate live names, priority outside its group, a hyperperiod past
  /// int64 ns, ...) reject with rung "invalid" instead of throwing — a
  /// service stays up.
  AdmissionDecision request(const AdmissionRequest& req);

  /// The current schedule over the live specs, in admission order, with
  /// contiguous stream ids (canonical export; info.engine = "admission").
  Schedule schedule() const;

  /// Canonical state fingerprint: stream contents + placements + the
  /// priority round-robin cursor; id- and history-free.
  std::uint64_t stateHash() const;

  const AdmissionCounters& counters() const { return counters_; }
  int liveSpecs() const { return liveSpecs_; }
  int liveStreams() const { return liveStreams_; }

 private:
  using Starts = std::vector<std::vector<std::int64_t>>;  // [hop][frame], tu

  struct SpecEntry {
    net::StreamSpec spec;
    bool live = false;
    std::vector<StreamId> streams;
  };
  struct Op {
    enum class Kind {
      Append,     // n streams appended to streams_
      Rip,        // stream ripped from placement (starts saved)
      Place,      // stream placed (tryPlace)
      SetFrames,  // framesOnLink overwritten (old saved)
      SpecAdd,    // spec entry appended (live)
      SpecKill,   // spec entry retired (live -> false)
      Swap,       // a re-solve's Placement swapped in (old one saved)
    };
    Kind kind;
    StreamId stream = -1;
    int specIdx = -1;
    int count = 0;
    std::vector<int> frames;
    Starts starts;
    // Swap: the replaced Placement, the state hash before the swap, and
    // the streams placed in both whose starts changed.
    std::unique_ptr<Placement> placement;
    std::uint64_t stateHash = 0;
    std::vector<StreamId> moved;
  };
  struct Txn {
    std::vector<Op> ops;
    std::uint64_t stateHash = 0;
    PriorityCursor cursor;
    int liveSpecs = 0, liveStreams = 0;
    // Rung-usage flags, folded into the counters once per request.
    bool usedDelta = false;
    bool usedResolve = false;
  };

  // --- op-logged state mutation (everything request() changes goes
  // through these, so rollback() can unwind a rejection exactly) ---
  void doAppend(Txn& txn, std::vector<ExpandedStream> streams);
  void doRip(Txn& txn, StreamId id);
  bool doTryPlace(Txn& txn, StreamId id);
  /// Swaps scratch_ in as the live Placement.
  void doSwap(Txn& txn);
  void doSetFrames(Txn& txn, StreamId id, std::vector<int> frames);
  int doSpecAdd(Txn& txn, net::StreamSpec spec);
  /// Rips the spec's placed streams, then retires it (live -> false).
  void doSpecKill(Txn& txn, int specIdx);
  void rollback(Txn& txn, std::size_t mark = 0);
  Txn beginTxn() const;

  // --- ladder rungs ---
  AdmissionDecision decide(const AdmissionRequest& req, Txn& txn);
  bool processAdd(const net::StreamSpec& spec, Txn& txn, std::string* rung,
                  std::string* detail);
  bool processRemove(const std::string& name, Txn& txn, std::string* rung,
                     std::string* detail);
  /// Rungs 1 and 2 in one pass: place `queue` in name order, ripping up
  /// to a fixed budget of name-ordered victims (re-queued in name order);
  /// rolls back and returns false if a stream still finds no offsets.
  bool placeSlice(Txn& txn, std::vector<StreamId> queue, std::string* rung);
  /// Rung 3: solveLive, then doSwap if it is feasible.
  bool tryFullResolve(Txn& txn);
  /// The portfolio solve of the live streams into scratch_ (made or
  /// synced first).  Live ids ascend in admission order, so the solve
  /// places them exactly as a from-scratch solve over the live specs
  /// would, and its verdict is the offline oracle's.
  bool solveLive();

  // --- expansion / prudent reservation ---
  /// Adds `spec` and appends its streams (Alg. 1 grids against the live
  /// ECT groups) through the op log.  Throws ConfigError on malformed
  /// input.  Returns the new stream ids.
  std::vector<StreamId> appendSpec(Txn& txn, const net::StreamSpec& spec);
  std::vector<EctGroup> liveEctGroups() const;
  /// Rips and re-grids the live shared Det streams on the links of
  /// `ectStreams` whose Alg. 1 frame counts no longer match the live ECT
  /// groups; returns them name-ordered.
  std::vector<StreamId> regrid(Txn& txn,
                               const std::vector<StreamId>& ectStreams);

  // --- hashing ---
  /// contentHash_[id] continued over the stream's placed starts.
  std::uint64_t streamStateHash(StreamId id) const;
  /// Recomputes contentHash_[id] after the stream's content changed.
  void hashContent(StreamId id);
  /// XORs the stream's current state hash into stateHash_: called once
  /// before and once after a mutation, it swaps the old content for the
  /// new.
  void toggleHash(StreamId id);

  const net::Topology topo_;  // owned copy; placement_ refers to it
  SchedulerConfig config_;
  AdmissionOptions opts_;
  bool feasible_ = false;

  std::vector<SpecEntry> specs_;
  std::unordered_map<std::string, int> liveByName_;  // spec name -> index
  std::vector<ExpandedStream> streams_;
  std::vector<char> liveStream_;
  /// Per stream, the FNV state after hashing its content (everything but
  /// its starts); recomputed on append and on a grid change.
  std::vector<std::uint64_t> contentHash_;
  int liveSpecs_ = 0;
  int liveStreams_ = 0;
  /// The live Placement, and the re-solve workspace: a Placement over the
  /// same streams that runPortfolio clears before each rank.  A Swap
  /// trades the two; scratch_ is null while a transaction holds the
  /// replaced one, and may hold stale placements between solves.
  std::unique_ptr<Placement> placement_;
  std::unique_ptr<Placement> scratch_;
  PriorityCursor cursor_;

  std::uint64_t stateHash_ = 0;
  AdmissionCounters counters_;
};

}  // namespace etsn::sched
