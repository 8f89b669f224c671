// Incremental slot placement: the one substrate under every incomplete
// scheduling engine — greedy and tabu (sched/portfolio.h) and the
// admission engine (sched/admission.h).
//
// A Placement holds a partial schedule — some streams placed, some not —
// and supports placing a stream at its earliest feasible offsets, pinning
// one at known offsets, and ripping a placed stream back out, which is
// what bounded backtracking, tabu search and admission rollback need.
// The constraint semantics are the SMT formulation's: time bounds
// (1)-(2), sequencing (3), latency (4), periodic non-overlap (5) with the
// probabilistic-stream exceptions, adjacent-link ordering (7), and
// FIFO-order frame isolation (fifoRequired).
//
// Both tryPlace and the idle-network test (idleMiss) run one frame
// recurrence, placeFrames, and differ only in how a frame's start is
// chosen from its lower bound.
//
// findStart alternates two pushes to a fixed point: past every frame the
// candidate overlaps, then past the FIFO requirement.  The overlap push
// has two implementations that give identical starts:
//  * pairwise — scan the link's placed frames with gcd-periodic overlap
//    tests (always available);
//  * bitmap — per-link occupancy arrays, split by overlap category (Det,
//    non-shared Det, Prob per ECT spec), giving O(window) earliest-fit
//    search instead of O(placed²).  Used when the hyperperiod is
//    tractable (see kMaxBitmapTu); this is what makes 5000-stream
//    instances placeable in seconds.  Each link's arrays span that
//    link's own ring: the lcm of the periods of the streams crossing it
//    (Craciunas et al.: periodic frames collide only modulo the gcd of
//    their periods, so a link's occupancy repeats at the lcm of its own
//    periods).  The ring is set at construction and grows, by tiling the
//    arrays a word at a time, when a placed frame brings a period that
//    does not divide it; a search steps its repetitions (a + kP) mod R
//    for k < R / gcd(R, P), so a candidate whose period does not divide
//    the ring is searched exactly too.  A ring only shortens the arrays;
//    every start is the one the hyperperiod-wide search would find.  Det
//    frames are set, cleared and searched a 64-bit word at a time: a
//    repetition's range [pos, pos + len) is split at the ring's wrap into
//    at most two word ranges, and the push finds a window's first
//    occupied tu and the end of its run with std::countr_zero.  The last
//    word's bits past the ring are not tu of it: every search stops at
//    the ring, so they never end a run that wraps to tu 0.  Prob frames
//    keep per-tu counters, one per ECT spec.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/topology.h"
#include "sched/schedule.h"

namespace etsn::sched {

/// Do the periodic intervals (a, la, ta) and (b, lb, tb) ever intersect?
/// (Intervals repeat forever with their period; the test is exact via
/// gcd(ta, tb).)  Shared by the placement search and the validator.
bool periodicIntervalsOverlap(std::int64_t a, std::int64_t la,
                              std::int64_t ta, std::int64_t b,
                              std::int64_t lb, std::int64_t tb);

/// Smallest a' > a such that (a', la, ta) clears the colliding occurrence
/// of (b, lb, tb) that (a, ·, ta) intersects first.
std::int64_t pushPastPeriodic(std::int64_t a, std::int64_t ta, std::int64_t b,
                              std::int64_t lb, std::int64_t tb);

/// The first constraint a stream's frame recurrence breaks, and where.
/// All times in tu.
struct PlacementMiss {
  enum class Constraint {
    Window,   // (1)-(2): frame `frame` on `link` gets no start in
              // [value, bound] (on the idle network: value > bound)
    Latency,  // (4): the stream's latency `value` exceeds `bound`
  };
  Constraint constraint = Constraint::Window;
  net::LinkId link = net::kNoLink;
  int frame = 0;
  /// Window: the frame's latest start.  Latency: the end-to-end bound.
  std::int64_t bound = 0;
  /// Window: the frame's earliest start under (1)-(3) and (7), before any
  /// overlap or FIFO push.  Latency: the stream's latency.
  std::int64_t value = 0;
};

/// A placed frame that a stream's frame collides with at every offset
/// (Placement::clash).  Two periodic frames that may not overlap collide
/// at every relative offset when their lengths sum to more than the gcd
/// of their periods.  All times in tu.
struct PlacementClash {
  net::LinkId link = net::kNoLink;
  StreamId other = -1;       // the placed stream
  std::int64_t len = 0;      // the stream's longest frame on `link`
  std::int64_t otherLen = 0;
  std::int64_t gcd = 0;      // of the two periods
};

class Placement {
 public:
  /// `streams` must outlive the Placement (engines own the expansion).
  Placement(const net::Topology& topo,
            const std::vector<ExpandedStream>& streams,
            const SchedulerConfig& config);

  /// Place every frame of `id` at its earliest feasible offsets given the
  /// current partial schedule.  All-or-nothing: on failure nothing is
  /// committed and lastFailedLink() names the blocking link.
  bool tryPlace(StreamId id);

  /// The idle-network test: tryPlace's frame recurrence with every frame
  /// at its earliest start, as on an empty Placement, in O(hops x frames).
  /// Every push of the search only moves a start later, and the recurrence
  /// is translation-invariant, so a stream that misses here misses in
  /// every Placement state; on an empty Placement the test is exactly
  /// tryPlace's verdict.  Returns the miss, or nullopt if the stream fits.
  std::optional<PlacementMiss> idleMiss(StreamId id) const;

  /// A placed frame that some frame of unplaced `id` collides with at
  /// every offset, so tryPlace fails while it stays placed: on the first
  /// hop (in path order) that has one, the partner with the smallest
  /// stream name.  nullopt if none.  O(hops x placed frames on the path).
  std::optional<PlacementClash> clash(StreamId id) const;

  /// Pin a stream at the given per-hop, per-frame start offsets (in tu)
  /// without searching: the shape must match the stream's framesOnLink
  /// grid, and the offsets are trusted to be feasible (they come from a
  /// previously validated placement — delta-solve pins untouched streams
  /// bit-for-bit and rollback restores ripped victims exactly).  tryPlace
  /// commits through here too, so FIFO-isolation state is identical for a
  /// pinned and a search-placed stream.
  void placeAt(StreamId id, std::vector<std::vector<std::int64_t>> startsTu);

  /// Current start offsets of a placed stream, starts[hop][frame] in tu
  /// (snapshot source for delta-solve rollback).  Empty if not placed.
  const std::vector<std::vector<std::int64_t>>& startsOf(StreamId id) const {
    return starts_[static_cast<std::size_t>(id)];
  }

  /// Resize internal per-stream state after the caller appended streams
  /// to (or truncated rejected appends from) the vector passed at
  /// construction — online admission grows and shrinks the stream set in
  /// place.  Appended streams must use the same tu; truncated streams
  /// must be unplaced.  An appended period widens hyperTu() in place
  /// (ConfigError if it overflows int64); past kMaxBitmapTu the bitmaps
  /// are freed and the pairwise search takes over.
  void syncAppendedStreams();

  /// Streams whose per-stream state is allocated (== the stream vector's
  /// size at construction or at the last syncAppendedStreams).
  int trackedStreams() const { return static_cast<int>(starts_.size()); }

  /// Rip a placed stream back out (backtracking / tabu moves).
  void remove(StreamId id);

  /// Rip every placed stream out.  The rings and arrays stay allocated,
  /// so a cleared Placement is a cheap workspace for the next solve.
  void clear();

  bool isPlaced(StreamId id) const {
    return !starts_[static_cast<std::size_t>(id)].empty();
  }
  int numPlaced() const { return numPlaced_; }

  /// Valid after tryPlace() returned false: the link where the search ran
  /// out of room (for latency failures, the stream's last-hop link).
  net::LinkId lastFailedLink() const { return lastFailedLink_; }

  /// Placed streams on `link` whose category conflicts with `id` (rip-up
  /// candidates), ascending stream id — deterministic.
  std::vector<StreamId> conflictCandidates(StreamId id,
                                           net::LinkId link) const;

  /// Monotone counter stamped on each successful tryPlace; exposed so
  /// engines can prefer the most recently placed victim deterministically.
  std::int64_t placeEpoch(StreamId id) const {
    return epoch_[static_cast<std::size_t>(id)];
  }

  /// All placed slots in canonical (stream, hop, frame) order.
  std::vector<Slot> slots() const;

  const std::vector<ExpandedStream>& streams() const { return *streams_; }
  TimeNs tu() const { return tu_; }
  /// Hyperperiod of every stream tracked so far, in tu (widened by
  /// syncAppendedStreams, never narrowed).
  std::int64_t hyperTu() const { return hyperTu_; }
  bool usesBitmap() const { return useBitmap_; }
  /// The ring of `link`'s occupancy arrays, in tu: a divisor of hyperTu(),
  /// 0 while no stream that crosses the link was tracked at construction
  /// or placed since (bitmap path only).
  std::int64_t ringTu(net::LinkId link) const {
    return links_[static_cast<std::size_t>(link)].ring;
  }

  /// Hyperperiods (in tu) above this are placed via the pairwise path;
  /// below it, per-link occupancy arrays, each no longer than the
  /// hyperperiod, fit in a few MB even on wide topologies.
  static constexpr std::int64_t kMaxBitmapTu = std::int64_t{1} << 18;

 private:
  struct Placed {
    std::int64_t start;    // tu
    std::int64_t len;      // tu
    std::int64_t period;   // tu
    std::int64_t arrival;  // tu (hop 0: == start)
    StreamId stream;
    int priority;
    bool det;
  };
  struct LinkState {
    std::vector<Placed> placed;
    // Bitmap path: the lcm of the periods (tu) of the streams crossing
    // the link at construction and of every period placed on it since,
    // and arrays of `ring` bits / counters each (allocated at the link's
    // first placed frame).
    std::int64_t ring = 0;
    // Over the streams tracked so far that cross the link: the gcd of
    // their periods and their longest frame, both in tu (clash's filter).
    std::int64_t periodGcd = 0;
    std::int64_t maxLen = 0;
    std::vector<std::uint64_t> detAll;      // any Det frame
    std::vector<std::uint64_t> detNoShare;  // non-shared Det frames
    std::vector<std::uint64_t> probAny;     // >= 1 Prob frame (mirror)
    std::vector<std::uint16_t> probCount;   // Prob frames covering the tu
    // Per-ECT-spec Prob coverage (same-spec streams may overlap).
    std::vector<std::pair<std::int32_t, std::vector<std::uint16_t>>> probSpec;
  };

  /// The frame recurrence shared by tryPlace and idleMiss.  Hop by hop,
  /// frame by frame, the window (1)-(2), sequencing (3) and arrival (7)
  /// bounds give a frame's earliest start lb and latest start hi, and
  /// `start(link, lb, hi, len, arrival)` picks its start in [lb, hi] or
  /// returns -1; latency (4) is checked at the end.  Returns false with
  /// *miss filled at the first violation.
  template <class StartFinder>
  bool placeFrames(const ExpandedStream& s, StartFinder&& start,
                   std::vector<std::vector<std::int64_t>>* starts,
                   PlacementMiss* miss) const;
  /// When frame j of `s` reaches hop `hop` > 0, in tu: the end of its
  /// upstream partner's slot (constraint (7)'s index offset picks the
  /// partner in `upStarts`, the hop-1 starts) plus propagation, switch
  /// processing and the sync margin.
  std::int64_t arrivalAt(const ExpandedStream& s, int hop, int j,
                         const std::vector<std::int64_t>& upStarts) const;
  /// Earliest start in [lb, hi] free of overlap (5) and FIFO-consistent;
  /// -1 if none.  `arrival` is the frame's arrival, or -1 at hop 0, where
  /// the talker paces the frame into the queue at its own slot.
  std::int64_t findStart(const ExpandedStream& s, net::LinkId link,
                         std::int64_t lb, std::int64_t hi, std::int64_t len,
                         std::int64_t arrival) const;
  /// FIFO-order isolation, the only isolation rule the search enforces:
  /// the smallest start >= a that leaves the link after every same-queue
  /// Det frame of another stream that arrived no later (see the .cpp).
  /// Returns a when none binds.
  std::int64_t fifoRequired(const ExpandedStream& s, net::LinkId link,
                            std::int64_t a, std::int64_t arrival) const;
  /// Overlap push, pairwise path: the candidate [a, a+len) moved past the
  /// colliding repetition of each conflicting placed frame in turn; a if
  /// none collides.
  std::int64_t pairwisePush(const ExpandedStream& s, const LinkState& ls,
                            std::int64_t a, std::int64_t len,
                            std::int64_t periodTu) const;
  /// Overlap push, bitmap path: the candidate moved past the occupied run
  /// of its first conflicting repetition per the stream's category masks;
  /// a if free, -1 if no start fits at all.
  std::int64_t bitmapPush(const ExpandedStream& s, const LinkState& ls,
                          std::int64_t a, std::int64_t len,
                          std::int64_t periodTu) const;
  void mark(const ExpandedStream& s, LinkState& ls, std::int64_t start,
            std::int64_t len, std::int64_t periodTu, bool place);
  /// Widens ls.ring to a multiple of `periodTu`, tiling the link's
  /// allocated arrays over the new ring.
  void growRing(LinkState& ls, std::int64_t periodTu);
  std::vector<std::uint16_t>& probSpecCounts(LinkState& ls,
                                             std::int32_t specId);

  bool canOverlapWith(const ExpandedStream& s, const Placed& p) const;
  /// Folds a tracked stream into its links' periodGcd and maxLen.
  void track(const ExpandedStream& s);

  const net::Topology& topo_;
  const std::vector<ExpandedStream>* streams_;
  SchedulerConfig config_;
  TimeNs tu_ = 0;
  std::int64_t hyperTu_ = 0;
  bool useBitmap_ = false;
  int numPlaced_ = 0;
  std::int64_t epochCounter_ = 0;
  net::LinkId lastFailedLink_ = net::kNoLink;
  std::vector<LinkState> links_;
  // starts_[stream][hop][frame]; empty outer vector = not placed.
  std::vector<std::vector<std::vector<std::int64_t>>> starts_;
  std::vector<std::int64_t> epoch_;
};

}  // namespace etsn::sched
