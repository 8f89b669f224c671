#include "net/gcl.h"

#include <algorithm>
#include <cstdint>

namespace etsn::net {

Gcl::Gcl(TimeNs cycle, std::vector<GclEntry> entries)
    : cycle_(cycle), entries_(std::move(entries)) {
  ETSN_CHECK(cycle_ > 0);
  TimeNs sum = 0;
  for (const GclEntry& e : entries_) {
    ETSN_CHECK_MSG(e.duration > 0, "GCL entries must have positive duration");
    sum += e.duration;
  }
  ETSN_CHECK_MSG(sum == cycle_, "GCL entry durations must sum to the cycle");
  compile();
}

void Gcl::compile() {
  const std::size_t n = entries_.size();

  startOf_.resize(n + 1);
  TimeNs at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    startOf_[i] = at;
    at += entries_[i].duration;
  }
  startOf_[n] = cycle_;

  // Coarse grid sized so cells outnumber entries ~4:1 (capped at 4096),
  // keeping entryIndexAt's linear advance to a step or two.
  gridShift_ = 0;
  const std::size_t targetCells =
      std::min<std::size_t>(4096, std::max<std::size_t>(4 * n, 1));
  while ((cycle_ >> gridShift_) > static_cast<TimeNs>(targetCells)) {
    ++gridShift_;
  }
  const std::size_t cells =
      static_cast<std::size_t>((cycle_ - 1) >> gridShift_) + 1;
  grid_.resize(cells);
  {
    std::size_t entry = 0;
    for (std::size_t c = 0; c < cells; ++c) {
      const TimeNs cellStart = static_cast<TimeNs>(c) << gridShift_;
      while (startOf_[entry + 1] <= cellStart) ++entry;
      grid_[c] = static_cast<std::int32_t>(entry);
    }
  }

  // flip_ by one backward recurrence per queue over two unrolled cycles: the
  // flip of unrolled entry u is u + 1 if the gate differs between u and
  // u + 1, else the flip of u + 1.  Any change lies within one cycle of
  // u < n, so a search that runs off the end of the second cycle means the
  // gate never changes.
  ETSN_CHECK_MSG(n <= static_cast<std::size_t>(INT32_MAX), "GCL too long");
  flip_.assign(kNumQueues * n, -1);
  for (int q = 0; q < kNumQueues; ++q) {
    std::int32_t* row = flip_.data() + static_cast<std::size_t>(q) * n;
    auto gate = [&](std::size_t u) {
      return (entries_[u < n ? u : u - n].gateMask >> q) & 1;
    };
    std::int32_t next = -1;  // flip of unrolled entry u + 1, as an index
    for (std::size_t u = 2 * n - 1; u-- > 0;) {
      if (gate(u) != gate(u + 1)) {
        next = static_cast<std::int32_t>(u + 1 < n ? u + 1 : u + 1 - n);
      }
      if (u < n) row[u] = next;
    }
  }
}

std::size_t Gcl::entryIndexAt(TimeNs t, TimeNs* entryStart) const {
  ETSN_CHECK(installed());
  TimeNs off = t % cycle_;
  if (off < 0) off += cycle_;
  std::size_t i = static_cast<std::size_t>(
      grid_[static_cast<std::size_t>(off >> gridShift_)]);
  while (startOf_[i + 1] <= off) ++i;
  if (entryStart != nullptr) *entryStart = t - (off - startOf_[i]);
  return i;
}

TimeNs Gcl::openTimeRemaining(int queue, TimeNs t) const {
  ETSN_CHECK(queue >= 0 && queue < kNumQueues);
  if (!installed()) return kNsPerSec;  // effectively unbounded
  TimeNs entryStart = 0;
  const std::size_t i = entryIndexAt(t, &entryStart);
  if (((entries_[i].gateMask >> queue) & 1) == 0) return 0;
  // An open run ends at least one entry short of a cycle past its start,
  // so only an always-open gate reaches the one-cycle cap.
  const std::int32_t closes = flip(queue, i);
  return closes < 0 ? cycle_ : startAfter(i, closes, entryStart) - t;
}

TimeNs Gcl::nextOpen(int queue, TimeNs t) const {
  ETSN_CHECK(queue >= 0 && queue < kNumQueues);
  if (!installed()) return t;
  TimeNs entryStart = 0;
  const std::size_t i = entryIndexAt(t, &entryStart);
  if ((entries_[i].gateMask >> queue) & 1) return t;
  const std::int32_t opens = flip(queue, i);
  return opens < 0 ? -1 : startAfter(i, opens, entryStart);
}

GclBuilder::GclBuilder(TimeNs cycle) : cycle_(cycle) {
  ETSN_CHECK_MSG(cycle > 0, "GCL cycle must be positive");
}

void GclBuilder::open(int queue, TimeNs start, TimeNs end) {
  ETSN_CHECK(queue >= 0 && queue < kNumQueues);
  ETSN_CHECK_MSG(start < end, "empty GCL window");
  ETSN_CHECK_MSG(end - start <= cycle_, "window longer than cycle");
  // Normalize into [0, cycle) and split wrap-around windows.
  TimeNs s = start % cycle_;
  if (s < 0) s += cycle_;
  const TimeNs len = end - start;
  if (s + len <= cycle_) {
    windows_.push_back({queue, s, s + len});
  } else {
    windows_.push_back({queue, s, cycle_});
    windows_.push_back({queue, 0, s + len - cycle_});
  }
}

Gcl GclBuilder::build() const {
  std::uint8_t alwaysMask = 0;
  for (const int q : always_) {
    ETSN_CHECK(q >= 0 && q < kNumQueues);
    alwaysMask |= static_cast<std::uint8_t>(1u << q);
  }
  std::uint8_t unallocMask = 0;
  for (const int q : unallocated_) {
    ETSN_CHECK(q >= 0 && q < kNumQueues);
    unallocMask |= static_cast<std::uint8_t>(1u << q);
  }

  // Sweep the sorted window edges, keeping per-queue open counts: between
  // two consecutive edge times, a queue is open iff one of its windows
  // covers the segment, and the time is unallocated iff no window does.
  struct Edge {
    TimeNs at;
    std::int32_t queue;
    std::int32_t delta;  // +1 at a window's start, -1 at its end
  };
  std::vector<Edge> edges;
  edges.reserve(2 * windows_.size());
  for (const Window& w : windows_) {
    edges.push_back({w.start, w.queue, +1});
    edges.push_back({w.end, w.queue, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.at < b.at; });

  std::vector<GclEntry> entries;
  std::int32_t openCount[kNumQueues] = {};
  std::int32_t allocated = 0;
  std::uint8_t windowMask = 0;
  std::size_t k = 0;
  for (TimeNs at = 0; at < cycle_;) {
    for (; k < edges.size() && edges[k].at == at; ++k) {
      const Edge& e = edges[k];
      openCount[e.queue] += e.delta;
      allocated += e.delta;
      const auto bit = static_cast<std::uint8_t>(1u << e.queue);
      windowMask = openCount[e.queue] > 0
                       ? static_cast<std::uint8_t>(windowMask | bit)
                       : static_cast<std::uint8_t>(windowMask & ~bit);
    }
    const TimeNs next = k < edges.size() ? edges[k].at : cycle_;
    const std::uint8_t mask = static_cast<std::uint8_t>(
        alwaysMask | windowMask | (allocated == 0 ? unallocMask : 0));
    // Merge with the previous entry when the mask is unchanged.
    if (!entries.empty() && entries.back().gateMask == mask) {
      entries.back().duration += next - at;
    } else {
      entries.push_back({next - at, mask});
    }
    at = next;
  }
  // Merge the wrap-around boundary (last entry and first entry equal mask)
  // is deliberately not folded: entries must sum to exactly one cycle.
  return Gcl(cycle_, std::move(entries));
}

}  // namespace etsn::net
