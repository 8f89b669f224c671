#include "sched/placement.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.h"
#include "common/math.h"
#include "sched/expand.h"

namespace etsn::sched {

bool periodicIntervalsOverlap(std::int64_t a, std::int64_t la,
                              std::int64_t ta, std::int64_t b,
                              std::int64_t lb, std::int64_t tb) {
  // Overlap iff some multiple of g = gcd(ta, tb) lies strictly inside
  // (a - b - lb, a - b + la).
  const std::int64_t g = std::gcd(ta, tb);
  const std::int64_t lo = a - b - lb;  // exclusive
  const std::int64_t hi = a - b + la;  // exclusive
  std::int64_t k = (lo >= 0) ? (lo / g + 1) : -((-lo) / g);
  if (k * g <= lo) ++k;
  return k * g < hi;
}

std::int64_t pushPastPeriodic(std::int64_t a, std::int64_t ta, std::int64_t b,
                              std::int64_t lb, std::int64_t tb) {
  // Move `a` forward to the end of the earliest colliding occurrence.
  const std::int64_t g = std::gcd(ta, tb);
  const std::int64_t lo = a - b - lb;
  std::int64_t k = (lo >= 0) ? (lo / g + 1) : -((-lo) / g);
  if (k * g <= lo) ++k;
  const std::int64_t aNew = b + k * g + lb;
  ETSN_CHECK(aNew > a);
  return aNew;
}

namespace {

inline bool testBit(const std::vector<std::uint64_t>& w, std::int64_t pos) {
  return (w[static_cast<std::size_t>(pos >> 6)] >>
          (static_cast<unsigned>(pos) & 63)) & 1u;
}

inline void setBit(std::vector<std::uint64_t>& w, std::int64_t pos) {
  w[static_cast<std::size_t>(pos >> 6)] |=
      std::uint64_t{1} << (static_cast<unsigned>(pos) & 63);
}

inline void clearBit(std::vector<std::uint64_t>& w, std::int64_t pos) {
  w[static_cast<std::size_t>(pos >> 6)] &=
      ~(std::uint64_t{1} << (static_cast<unsigned>(pos) & 63));
}

inline std::size_t bitWords(std::int64_t bits) {
  return static_cast<std::size_t>((bits + 63) / 64);
}

/// Bits [lo, hi) of one word, 0 <= lo < hi <= 64.
inline std::uint64_t wordMask(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t below =
      hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
  return below & (~std::uint64_t{0} << lo);
}

/// Sets (place) or clears bits [from, to) of `w`, one mask per word.
void assignBits(std::vector<std::uint64_t>& w, std::int64_t from,
                std::int64_t to, bool place) {
  while (from < to) {
    const std::int64_t base = from & ~std::int64_t{63};
    const std::int64_t end = std::min(to, base + 64);
    const std::uint64_t m = wordMask(from - base, end - base);
    std::uint64_t& word = w[static_cast<std::size_t>(base >> 6)];
    word = place ? word | m : word & ~m;
    from = end;
  }
}

/// Bits [pos, pos + n) of `w` as the low n bits of a word, 1 <= n <= 64.
std::uint64_t getBits(const std::vector<std::uint64_t>& w, std::int64_t pos,
                      std::int64_t n) {
  const std::size_t i = static_cast<std::size_t>(pos >> 6);
  const unsigned off = static_cast<unsigned>(pos) & 63;
  std::uint64_t v = w[i] >> off;
  if (off + n > 64) v |= w[i + 1] << (64 - off);
  return n == 64 ? v : v & ((std::uint64_t{1} << n) - 1);
}

/// Copies bits [0, ring) of `w` over [ring, newRing), newRing a multiple
/// of ring: the ring's occupancy repeated, one destination word (or less)
/// at a time.  Each chunk reads bits `ring` positions back, which are
/// already in place.
void tileBits(std::vector<std::uint64_t>& w, std::int64_t ring,
              std::int64_t newRing) {
  w.resize(bitWords(newRing), 0);
  for (std::int64_t pos = ring; pos < newRing;) {
    const std::int64_t n =
        std::min({64 - (pos & 63), ring, newRing - pos});
    const std::uint64_t m = wordMask(pos & 63, (pos & 63) + n);
    std::uint64_t& word = w[static_cast<std::size_t>(pos >> 6)];
    word = (word & ~m) | (getBits(w, pos - ring, n) << (pos & 63));
    pos += n;
  }
}

/// Per-tu counters over [0, ring) repeated over [ring, newRing).
void tileCounts(std::vector<std::uint16_t>& c, std::int64_t ring,
                std::int64_t newRing) {
  c.resize(static_cast<std::size_t>(newRing));
  for (std::int64_t at = ring; at < newRing; at += ring) {
    std::copy_n(c.begin(), ring, c.begin() + at);
  }
}

/// First position in [from, to) whose bit is set in `word(i)`, the i-th
/// 64-bit word; -1 if none.  Bits outside the range are never read, so
/// the tail of the last word past a caller's `to` counts as neither set
/// nor clear.
template <class Word>
std::int64_t firstSetBit(const Word& word, std::int64_t from,
                         std::int64_t to) {
  while (from < to) {
    const std::int64_t base = from & ~std::int64_t{63};
    const std::int64_t end = std::min(to, base + 64);
    const std::uint64_t bits = word(static_cast<std::size_t>(base >> 6)) &
                               wordMask(from - base, end - base);
    if (bits != 0) return base + std::countr_zero(bits);
    from = end;
  }
  return -1;
}

}  // namespace

Placement::Placement(const net::Topology& topo,
                     const std::vector<ExpandedStream>& streams,
                     const SchedulerConfig& config)
    : topo_(topo), streams_(&streams), config_(config) {
  for (const ExpandedStream& s : streams) {
    for (const net::LinkId l : s.path) {
      const TimeNs linkTu = topo_.link(l).timeUnit;
      if (tu_ == 0) tu_ = linkTu;
      if (linkTu != tu_) {
        throw ConfigError(
            "greedy, tabu and admission placement require a uniform time "
            "unit across links");
      }
    }
  }
  if (tu_ == 0) tu_ = microseconds(1);
  links_.resize(static_cast<std::size_t>(topo_.numLinks()));
  starts_.resize(streams.size());
  epoch_.assign(streams.size(), 0);

  if (!streams.empty()) {
    std::vector<std::int64_t> periods;
    for (const ExpandedStream& s : streams) {
      ETSN_CHECK_MSG(s.period > 0 && s.period % tu_ == 0,
                     "stream period must be a positive multiple of tu");
      periods.push_back(s.period / tu_);
    }
    hyperTu_ = lcmAll(periods);
    useBitmap_ = hyperTu_ <= kMaxBitmapTu;
  }
  for (const ExpandedStream& s : streams) {
    track(s);
    if (!useBitmap_) continue;
    // Each ring divides the hyperperiod, so the lcms stay in range.
    const std::int64_t period = s.period / tu_;
    for (const net::LinkId l : s.path) {
      std::int64_t& ring = links_[static_cast<std::size_t>(l)].ring;
      ring = ring == 0 ? period : std::lcm(ring, period);
    }
  }
}

void Placement::track(const ExpandedStream& s) {
  const std::int64_t period = s.period / tu_;
  for (const net::LinkId l : s.path) {
    LinkState& ls = links_[static_cast<std::size_t>(l)];
    ls.periodGcd = std::gcd(ls.periodGcd, period);
    ls.maxLen = std::max(
        ls.maxLen, ceilDiv(maxFrameTxTime(s, topo_.link(l)), tu_));
  }
}

bool Placement::canOverlapWith(const ExpandedStream& s,
                               const Placed& p) const {
  const ExpandedStream& o = (*streams_)[static_cast<std::size_t>(p.stream)];
  if (s.kind == StreamKind::Prob && o.kind == StreamKind::Prob) {
    return s.specId == o.specId;
  }
  if (s.kind == StreamKind::Prob && o.kind == StreamKind::Det) return o.share;
  if (o.kind == StreamKind::Prob && s.kind == StreamKind::Det) return s.share;
  return false;
}

std::vector<std::uint16_t>& Placement::probSpecCounts(LinkState& ls,
                                                      std::int32_t specId) {
  for (auto& [id, counts] : ls.probSpec) {
    if (id == specId) return counts;
  }
  ls.probSpec.emplace_back(
      specId, std::vector<std::uint16_t>(static_cast<std::size_t>(ls.ring)));
  return ls.probSpec.back().second;
}

void Placement::growRing(LinkState& ls, std::int64_t periodTu) {
  if (ls.ring > 0 && ls.ring % periodTu == 0) return;
  const std::int64_t ring =
      ls.ring == 0 ? periodTu : std::lcm(ls.ring, periodTu);
  if (!ls.detAll.empty()) {
    tileBits(ls.detAll, ls.ring, ring);
    tileBits(ls.detNoShare, ls.ring, ring);
  }
  if (!ls.probCount.empty()) {
    tileBits(ls.probAny, ls.ring, ring);
    tileCounts(ls.probCount, ls.ring, ring);
    for (auto& [id, counts] : ls.probSpec) tileCounts(counts, ls.ring, ring);
  }
  ls.ring = ring;
}

void Placement::mark(const ExpandedStream& s, LinkState& ls,
                     std::int64_t start, std::int64_t len,
                     std::int64_t periodTu, bool place) {
  if (!useBitmap_) return;
  if (place) growRing(ls, periodTu);
  const std::int64_t ring = ls.ring;
  if (ls.detAll.empty()) {
    ls.detAll.assign(bitWords(ring), 0);
    ls.detNoShare.assign(bitWords(ring), 0);
  }
  const std::int64_t reps = ring / periodTu;
  if (s.kind == StreamKind::Det) {
    // Each repetition covers [pos, pos + len) on the ring: at most two
    // word ranges, split at the wrap.
    const std::int64_t span = std::min(len, ring);
    const auto assign = [&](std::int64_t from, std::int64_t to) {
      assignBits(ls.detAll, from, to, place);
      if (!s.share) assignBits(ls.detNoShare, from, to, place);
    };
    std::int64_t pos = start % ring;
    for (std::int64_t r = 0; r < reps; ++r) {
      assign(pos, std::min(pos + span, ring));
      if (pos + span > ring) assign(0, pos + span - ring);
      if ((pos += periodTu) >= ring) pos -= ring;
    }
    return;
  }
  if (ls.probCount.empty()) {
    ls.probCount.assign(static_cast<std::size_t>(ring), 0);
    ls.probAny.assign(bitWords(ring), 0);
  }
  std::vector<std::uint16_t>& spec = probSpecCounts(ls, s.specId);
  for (std::int64_t r = 0; r < reps; ++r) {
    std::int64_t pos = (start + r * periodTu) % ring;
    for (std::int64_t i = 0; i < len; ++i) {
      auto& all = ls.probCount[static_cast<std::size_t>(pos)];
      auto& own = spec[static_cast<std::size_t>(pos)];
      if (place) {
        if (++all == 1) setBit(ls.probAny, pos);
        ++own;
      } else {
        ETSN_CHECK(all > 0 && own > 0);
        if (--all == 0) clearBit(ls.probAny, pos);
        --own;
      }
      if (++pos == ring) pos = 0;
    }
  }
}

std::int64_t Placement::bitmapPush(const ExpandedStream& s,
                                   const LinkState& ls,
                                   std::int64_t a, std::int64_t len,
                                   std::int64_t periodTu) const {
  if (ls.detAll.empty() && ls.probCount.empty()) return a;
  // The repetitions (a + kP) mod R for k < R / gcd(R, P) meet every
  // residue a repetition of the candidate can take on the ring, whether
  // or not P divides R; each is one step of P mod R on from the last.
  const std::int64_t ring = ls.ring;
  const std::int64_t reps = ring / std::gcd(ring, periodTu);
  const std::int64_t step = periodTu % ring;
  const auto next = [&](std::int64_t base) {
    base += step;
    return base >= ring ? base - ring : base;
  };
  // The push for the first repetition whose window [base, base + len)
  // meets an occupied tu: slide the window start past the occupied run
  // holding the window's first occupied tu `pos`, whose end `e` is the
  // first free tu after it on the ring (-1 if there is none).
  const auto pushPast = [&](std::int64_t base, std::int64_t e) {
    if (e < 0) return std::int64_t{-1};  // link fully occupied
    const std::int64_t dist = (e - base + ring) % ring;
    // dist == 0: the only free run wrapped back to the window start, i.e.
    // it is shorter than `len` — no start position fits at all.
    return dist == 0 ? std::int64_t{-1} : a + dist;
  };

  if (s.kind == StreamKind::Det) {
    // Word at a time: a Det frame avoids every Det frame, and a
    // non-shared one also every probabilistic slot.
    const bool avoidProb = !s.share && !ls.probAny.empty();
    const auto occupied = [&](std::size_t i) {
      return ls.detAll[i] | (avoidProb ? ls.probAny[i] : 0);
    };
    const auto vacant = [&](std::size_t i) { return ~occupied(i); };
    const std::int64_t span = std::min(len, ring);
    std::int64_t base = a % ring;
    for (std::int64_t r = 0; r < reps; ++r, base = next(base)) {
      std::int64_t pos =
          firstSetBit(occupied, base, std::min(base + span, ring));
      if (pos < 0 && base + span > ring) {
        pos = firstSetBit(occupied, 0, base + span - ring);
      }
      if (pos < 0) continue;
      // Both searches stop at the ring: the last word's bits past it are
      // not tu of the ring, and must not end a run that wraps to tu 0.
      std::int64_t e = firstSetBit(vacant, pos, ring);
      if (e < 0) e = firstSetBit(vacant, 0, pos);
      return pushPast(base, e);
    }
    return a;
  }

  // Prob: per tu, against the per-ECT-spec counters.
  const std::vector<std::uint16_t>* ownSpec = nullptr;
  for (const auto& [id, counts] : ls.probSpec) {
    if (id == s.specId) ownSpec = &counts;
  }
  auto occupied = [&](std::int64_t pos) {
    if (testBit(ls.detNoShare, pos)) return true;
    if (ls.probCount.empty()) return false;
    const std::uint16_t all = ls.probCount[static_cast<std::size_t>(pos)];
    const std::uint16_t own =
        ownSpec ? (*ownSpec)[static_cast<std::size_t>(pos)] : 0;
    return all > own;  // a *different* ECT spec covers this tu
  };
  std::int64_t base = a % ring;
  for (std::int64_t r = 0; r < reps; ++r, base = next(base)) {
    std::int64_t pos = base;
    for (std::int64_t i = 0; i < len; ++i) {
      if (occupied(pos)) {
        std::int64_t e = pos;
        std::int64_t scanned = 0;
        while (occupied(e)) {
          if (++e == ring) e = 0;
          if (++scanned > ring) return -1;  // link fully occupied
        }
        return pushPast(base, e);
      }
      if (++pos == ring) pos = 0;
    }
  }
  return a;
}

std::int64_t Placement::pairwisePush(const ExpandedStream& s,
                                     const LinkState& ls, std::int64_t a,
                                     std::int64_t len,
                                     std::int64_t periodTu) const {
  for (const Placed& p : ls.placed) {
    if (p.stream == s.id || canOverlapWith(s, p)) continue;
    if (periodicIntervalsOverlap(a, len, periodTu, p.start, p.len, p.period)) {
      a = pushPastPeriodic(a, periodTu, p.start, p.len, p.period);
    }
  }
  return a;
}

std::int64_t Placement::fifoRequired(const ExpandedStream& s,
                                     net::LinkId link, std::int64_t a,
                                     std::int64_t arrival) const {
  if (config_.isolation == SchedulerConfig::Isolation::None ||
      s.kind != StreamKind::Det) {
    return a;
  }
  const std::int64_t period = s.period / tu_;
  const std::int64_t myArrival = arrival < 0 ? a : arrival;
  std::int64_t out = a;
  for (const Placed& p : links_[static_cast<std::size_t>(link)].placed) {
    if (!p.det || p.priority != s.priority || p.stream == s.id) continue;
    // Among the repetition offsets d (multiples of g) at which the placed
    // frame arrives no later than ours (p.arrival + d <= myArrival), the
    // largest binds: our slot starts after that occurrence ends.  This is
    // the one direction a single forward pass can resolve.  The converse —
    // we arrive first but only fit after — needs upstream slots to move,
    // so it is accepted as a same-queue swap; only the SMT engine forbids
    // it, and Presence and Flow isolation both run as this rule here.
    const std::int64_t g = std::gcd(period, p.period);
    const std::int64_t diff = myArrival - p.arrival;
    const std::int64_t dmax =
        diff >= 0 ? (diff / g) * g : -ceilDiv(-diff, g) * g;
    out = std::max(out, p.start + dmax + p.len);
  }
  return out;
}

std::int64_t Placement::findStart(const ExpandedStream& s, net::LinkId link,
                                  std::int64_t lb, std::int64_t hi,
                                  std::int64_t len,
                                  std::int64_t arrival) const {
  const LinkState& ls = links_[static_cast<std::size_t>(link)];
  const std::int64_t period = s.period / tu_;
  // Both pushes only skip starts that are infeasible, so the fixed point
  // is the earliest feasible start whichever overlap path runs.
  std::int64_t a = lb;
  while (a <= hi) {
    const std::int64_t pushed = useBitmap_
                                    ? bitmapPush(s, ls, a, len, period)
                                    : pairwisePush(s, ls, a, len, period);
    if (pushed < 0) return -1;
    if (pushed == a) {
      const std::int64_t req = fifoRequired(s, link, a, arrival);
      if (req == a) return a;
      a = req;
    } else {
      a = pushed;
    }
  }
  return -1;
}

std::int64_t Placement::arrivalAt(
    const ExpandedStream& s, int hop, int j,
    const std::vector<std::int64_t>& upStarts) const {
  const int nUp = s.framesOnLink[static_cast<std::size_t>(hop - 1)];
  const int o =
      std::max(nUp - s.framesOnLink[static_cast<std::size_t>(hop)], 0);
  const int upIdx = std::min(j + o, nUp - 1);
  const net::Link& up = topo_.link(s.path[static_cast<std::size_t>(hop - 1)]);
  return upStarts[static_cast<std::size_t>(upIdx)] +
         ceilDiv(frameTxTimeOf(s, upIdx, up), tu_) +
         ceilDiv(up.propagationDelay + config_.switchProcessingDelay +
                     config_.syncErrorMargin,
                 tu_);
}

template <class StartFinder>
bool Placement::placeFrames(const ExpandedStream& s, StartFinder&& start,
                            std::vector<std::vector<std::int64_t>>* starts,
                            PlacementMiss* miss) const {
  const std::int64_t period = s.period / tu_;
  const std::int64_t ot = ceilDiv(s.occurrence, tu_);
  auto& placed = *starts;
  placed.assign(static_cast<std::size_t>(s.hops()), {});

  for (int hop = 0; hop < s.hops(); ++hop) {
    const net::LinkId link = s.path[static_cast<std::size_t>(hop)];
    const net::Link& l = topo_.link(link);
    auto& mine = placed[static_cast<std::size_t>(hop)];
    const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
    for (int j = 0; j < frames; ++j) {
      const std::int64_t len = ceilDiv(frameTxTimeOf(s, j, l), tu_);
      const std::int64_t arrival =
          hop == 0 ? -1
                   : arrivalAt(s, hop, j,
                               placed[static_cast<std::size_t>(hop - 1)]);
      std::int64_t lb = hop == 0 ? ot : arrival;
      if (j > 0) {
        lb = std::max(lb, mine.back() +
                              ceilDiv(frameTxTimeOf(s, j - 1, l), tu_));
      }
      // Slots may slide up to the occurrence past the period boundary.
      const std::int64_t hi = period + ot - len;
      const std::int64_t at = start(link, lb, hi, len, arrival);
      if (at < 0) {
        *miss = {PlacementMiss::Constraint::Window, link, j, hi, lb};
        return false;
      }
      mine.push_back(at);
    }
  }

  // (4): end-to-end latency including the final frame's wire and
  // propagation time.
  const int lastHop = s.hops() - 1;
  const net::LinkId lastLinkId = s.path[static_cast<std::size_t>(lastHop)];
  const net::Link& lastLink = topo_.link(lastLinkId);
  const int lastFrames = s.framesOnLink[static_cast<std::size_t>(lastHop)];
  const std::int64_t last =
      placed[static_cast<std::size_t>(lastHop)].back() +
      ceilDiv(frameTxTimeOf(s, lastFrames - 1, lastLink), tu_) +
      ceilDiv(lastLink.propagationDelay, tu_);
  const std::int64_t e2e = s.maxLatency / tu_;
  const std::int64_t origin = s.kind == StreamKind::Det ? placed[0][0] : ot;
  if (last - origin > e2e) {
    *miss = {PlacementMiss::Constraint::Latency, lastLinkId, lastFrames - 1,
             e2e, last - origin};
    return false;
  }
  return true;
}

bool Placement::tryPlace(StreamId id) {
  const ExpandedStream& s = (*streams_)[static_cast<std::size_t>(id)];
  ETSN_CHECK(!isPlaced(id) && s.hops() > 0);
  std::vector<std::vector<std::int64_t>> starts;
  PlacementMiss miss;
  const auto search = [&](net::LinkId link, std::int64_t lb, std::int64_t hi,
                          std::int64_t len, std::int64_t arrival) {
    return findStart(s, link, lb, hi, len, arrival);
  };
  if (!placeFrames(s, search, &starts, &miss)) {
    lastFailedLink_ = miss.link;
    return false;
  }
  placeAt(id, std::move(starts));
  return true;
}

std::optional<PlacementMiss> Placement::idleMiss(StreamId id) const {
  const ExpandedStream& s = (*streams_)[static_cast<std::size_t>(id)];
  ETSN_CHECK(s.hops() > 0);
  std::vector<std::vector<std::int64_t>> starts;
  PlacementMiss miss;
  const auto earliest = [](net::LinkId, std::int64_t lb, std::int64_t hi,
                           std::int64_t, std::int64_t) {
    return lb <= hi ? lb : std::int64_t{-1};
  };
  if (placeFrames(s, earliest, &starts, &miss)) return std::nullopt;
  return miss;
}

void Placement::placeAt(StreamId id,
                        std::vector<std::vector<std::int64_t>> startsTu) {
  const ExpandedStream& s = (*streams_)[static_cast<std::size_t>(id)];
  ETSN_CHECK(!isPlaced(id) && s.hops() > 0);
  ETSN_CHECK_MSG(startsTu.size() == static_cast<std::size_t>(s.hops()),
                 "placeAt: hop count does not match the stream's path");
  const std::int64_t period = s.period / tu_;
  for (int hop = 0; hop < s.hops(); ++hop) {
    const net::LinkId link = s.path[static_cast<std::size_t>(hop)];
    const net::Link& l = topo_.link(link);
    LinkState& ls = links_[static_cast<std::size_t>(link)];
    const auto& mine = startsTu[static_cast<std::size_t>(hop)];
    const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
    ETSN_CHECK_MSG(mine.size() == static_cast<std::size_t>(frames),
                   "placeAt: frame count does not match framesOnLink");
    for (int j = 0; j < frames; ++j) {
      const std::int64_t start = mine[static_cast<std::size_t>(j)];
      const std::int64_t len = ceilDiv(frameTxTimeOf(s, j, l), tu_);
      const std::int64_t arrival =
          hop == 0 ? start
                   : arrivalAt(s, hop, j,
                               startsTu[static_cast<std::size_t>(hop - 1)]);
      ls.placed.push_back({start, len, period, arrival, s.id, s.priority,
                           s.kind == StreamKind::Det});
      mark(s, ls, start, len, period, /*place=*/true);
    }
  }
  starts_[static_cast<std::size_t>(id)] = std::move(startsTu);
  epoch_[static_cast<std::size_t>(id)] = ++epochCounter_;
  ++numPlaced_;
}

void Placement::syncAppendedStreams() {
  const std::size_t n = streams_->size();
  if (n < starts_.size()) {
    // Rolled-back appends: the truncated tail must already be ripped out.
    for (std::size_t i = n; i < starts_.size(); ++i) {
      ETSN_CHECK_MSG(starts_[i].empty(),
                     "cannot truncate a stream that is still placed");
    }
    starts_.resize(n);
    epoch_.resize(n);
    return;
  }
  std::int64_t hyper = hyperTu_;
  for (std::size_t i = starts_.size(); i < n; ++i) {
    const ExpandedStream& s = (*streams_)[i];
    for (const net::LinkId l : s.path) {
      ETSN_CHECK_MSG(topo_.link(l).timeUnit == tu_,
                     "appended stream uses a different time unit");
    }
    ETSN_CHECK_MSG(s.period > 0 && s.period % tu_ == 0,
                   "stream period must be a positive multiple of tu");
    hyper = hyper == 0 ? s.period / tu_ : lcm64(hyper, s.period / tu_);
  }
  for (std::size_t i = starts_.size(); i < n; ++i) track((*streams_)[i]);
  starts_.resize(n);
  epoch_.resize(n, 0);
  // No array spans the hyperperiod, so it widens in place.  A Placement
  // built over no streams starts on the bitmaps once it has a period;
  // one whose hyperperiod outgrows them drops them for the pairwise
  // search, which needs only the placed lists.
  if (hyperTu_ == 0) useBitmap_ = hyper <= kMaxBitmapTu;
  hyperTu_ = hyper;
  if (useBitmap_ && hyperTu_ > kMaxBitmapTu) {
    useBitmap_ = false;
    for (LinkState& ls : links_) {
      ls.detAll = {};
      ls.detNoShare = {};
      ls.probAny = {};
      ls.probCount = {};
      ls.probSpec = {};
    }
  }
}

void Placement::remove(StreamId id) {
  const ExpandedStream& s = (*streams_)[static_cast<std::size_t>(id)];
  ETSN_CHECK(isPlaced(id));
  const std::int64_t period = s.period / tu_;
  for (int hop = 0; hop < s.hops(); ++hop) {
    const net::LinkId link = s.path[static_cast<std::size_t>(hop)];
    const net::Link& l = topo_.link(link);
    LinkState& ls = links_[static_cast<std::size_t>(link)];
    const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
    for (int j = 0; j < frames; ++j) {
      const std::int64_t start = starts_[static_cast<std::size_t>(id)]
                                        [static_cast<std::size_t>(hop)]
                                        [static_cast<std::size_t>(j)];
      const std::int64_t len = ceilDiv(frameTxTimeOf(s, j, l), tu_);
      mark(s, ls, start, len, period, /*place=*/false);
    }
    std::erase_if(ls.placed,
                  [id](const Placed& p) { return p.stream == id; });
  }
  starts_[static_cast<std::size_t>(id)].clear();
  --numPlaced_;
}

void Placement::clear() {
  if (numPlaced_ == 0) return;
  for (LinkState& ls : links_) {
    for (const Placed& p : ls.placed) {
      mark((*streams_)[static_cast<std::size_t>(p.stream)], ls, p.start,
           p.len, p.period, /*place=*/false);
    }
    ls.placed.clear();
  }
  for (auto& st : starts_) st.clear();
  numPlaced_ = 0;
}

std::optional<PlacementClash> Placement::clash(StreamId id) const {
  const ExpandedStream& s = (*streams_)[static_cast<std::size_t>(id)];
  const std::int64_t period = s.period / tu_;
  for (int hop = 0; hop < s.hops(); ++hop) {
    const net::LinkId link = s.path[static_cast<std::size_t>(hop)];
    const net::Link& l = topo_.link(link);
    std::int64_t len = 0;
    for (int j = 0; j < s.framesOnLink[static_cast<std::size_t>(hop)]; ++j) {
      len = std::max(len, ceilDiv(frameTxTimeOf(s, j, l), tu_));
    }
    const LinkState& ls = links_[static_cast<std::size_t>(link)];
    // Every placed frame is at most ls.maxLen long, and its period is a
    // multiple of ls.periodGcd, so its gcd with ours is no smaller than
    // gcd(period, ls.periodGcd): on harmonic plants no frame is scanned.
    if (len + ls.maxLen <= std::gcd(period, ls.periodGcd)) continue;
    std::optional<PlacementClash> out;
    for (const Placed& p : ls.placed) {
      // The periodic overlap test's open interval (a - b - lb, a - b + la)
      // is longer than the gcd g, so it holds a multiple of g whatever a
      // is.
      const std::int64_t g = std::gcd(period, p.period);
      if (len + p.len <= g || p.stream == id || canOverlapWith(s, p)) {
        continue;
      }
      if (!out ||
          (*streams_)[static_cast<std::size_t>(p.stream)].name <
              (*streams_)[static_cast<std::size_t>(out->other)].name) {
        out = PlacementClash{link, p.stream, len, p.len, g};
      }
    }
    if (out) return out;
  }
  return std::nullopt;
}

std::vector<StreamId> Placement::conflictCandidates(StreamId id,
                                                    net::LinkId link) const {
  const ExpandedStream& s = (*streams_)[static_cast<std::size_t>(id)];
  std::vector<StreamId> out;
  for (const Placed& p : links_[static_cast<std::size_t>(link)].placed) {
    if (p.stream == id || canOverlapWith(s, p)) continue;
    out.push_back(p.stream);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Slot> Placement::slots() const {
  std::vector<Slot> out;
  for (const ExpandedStream& s : *streams_) {
    const auto& mine = starts_[static_cast<std::size_t>(s.id)];
    if (mine.empty()) continue;
    for (int hop = 0; hop < s.hops(); ++hop) {
      const net::Link& l = topo_.link(s.path[static_cast<std::size_t>(hop)]);
      const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
      for (int j = 0; j < frames; ++j) {
        Slot slot;
        slot.stream = s.id;
        slot.hop = hop;
        slot.frameIndex = j;
        slot.start = mine[static_cast<std::size_t>(hop)]
                         [static_cast<std::size_t>(j)] * tu_;
        slot.duration = ceilDiv(frameTxTimeOf(s, j, l), tu_) * tu_;
        out.push_back(slot);
      }
    }
  }
  return out;
}

}  // namespace etsn::sched
