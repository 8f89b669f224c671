// Differential tests for GCL compilation.  GclBuilder::build is checked
// entry for entry against the original builder, which tests every window
// against every segment between consecutive boundaries; every Gcl query is
// checked against answers looked up in each queue's open runs.  The inputs
// are random GCLs of hundreds to thousands of windows over all eight
// queues, with queues that never open, are always open, open exactly once,
// fill the unallocated time or are covered by one whole-cycle window, and
// with wrap-around and negative-offset windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/gcl.h"

namespace etsn::net {
namespace {

/// A window as passed to GclBuilder::open.
struct Window {
  int queue;
  TimeNs start, end;
};

struct GclInput {
  TimeNs cycle = 0;
  std::vector<Window> windows;
  std::vector<int> unallocated;
  std::vector<int> always;

  Gcl build() const {
    GclBuilder b(cycle);
    for (const Window& w : windows) b.open(w.queue, w.start, w.end);
    for (const int q : unallocated) b.openInUnallocated(q);
    for (const int q : always) b.alwaysOpen(q);
    return b.build();
  }
};

/// The original builder, O(cuts * windows): the oracle for entries().
std::vector<GclEntry> referenceEntries(const GclInput& in) {
  std::vector<Window> split;  // normalized into [0, cycle) like open()
  for (const Window& w : in.windows) {
    TimeNs s = w.start % in.cycle;
    if (s < 0) s += in.cycle;
    const TimeNs len = w.end - w.start;
    if (s + len <= in.cycle) {
      split.push_back({w.queue, s, s + len});
    } else {
      split.push_back({w.queue, s, in.cycle});
      split.push_back({w.queue, 0, s + len - in.cycle});
    }
  }
  std::vector<TimeNs> cuts{0, in.cycle};
  for (const Window& w : split) {
    cuts.push_back(w.start);
    cuts.push_back(w.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::uint8_t alwaysMask = 0, unallocMask = 0;
  for (const int q : in.always) {
    alwaysMask |= static_cast<std::uint8_t>(1u << q);
  }
  for (const int q : in.unallocated) {
    unallocMask |= static_cast<std::uint8_t>(1u << q);
  }
  std::vector<GclEntry> entries;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const TimeNs s = cuts[i], e = cuts[i + 1];
    std::uint8_t mask = alwaysMask;
    bool allocated = false;
    for (const Window& w : split) {
      if (w.start <= s && e <= w.end) {
        mask |= static_cast<std::uint8_t>(1u << w.queue);
        allocated = true;
      }
    }
    if (!allocated) mask |= unallocMask;
    if (!entries.empty() && entries.back().gateMask == mask) {
      entries.back().duration += e - s;
    } else {
      entries.push_back({e - s, mask});
    }
  }
  return entries;
}

/// Query answers from a GCL's entries, by lookup in each queue's maximal
/// open runs within one cycle (a run ending at the cycle boundary continues
/// into a run starting at 0).
class IntervalReference {
 public:
  IntervalReference(TimeNs cycle, const std::vector<GclEntry>& entries)
      : cycle_(cycle) {
    TimeNs at = 0;
    for (const GclEntry& e : entries) {
      for (int q = 0; q < kNumQueues; ++q) {
        if (((e.gateMask >> q) & 1) == 0) continue;
        auto& runs = runs_[q];
        if (!runs.empty() && runs.back().second == at) {
          runs.back().second = at + e.duration;
        } else {
          runs.push_back({at, at + e.duration});
        }
      }
      at += e.duration;
      ends_.push_back(at);
    }
  }

  bool gateOpen(int q, TimeNs t) const {
    return runAt(q, offset(t)) != nullptr;
  }

  TimeNs nextChange(TimeNs t) const {
    const TimeNs off = offset(t);
    return t - off + *std::upper_bound(ends_.begin(), ends_.end(), off);
  }

  TimeNs openTimeRemaining(int q, TimeNs t) const {
    const TimeNs off = offset(t);
    const Run* run = runAt(q, off);
    if (run == nullptr) return 0;
    TimeNs remaining = run->second - off;
    const Run& first = runs_[q].front();
    if (run->second == cycle_ && first.first == 0) remaining += first.second;
    return std::min(remaining, cycle_);
  }

  TimeNs nextOpen(int q, TimeNs t) const {
    const TimeNs off = offset(t);
    if (runAt(q, off) != nullptr) return t;
    const auto& runs = runs_[q];
    if (runs.empty()) return -1;
    for (const Run& r : runs) {
      if (r.first > off) return t - off + r.first;
    }
    return t - off + cycle_ + runs.front().first;
  }

 private:
  using Run = std::pair<TimeNs, TimeNs>;  // [start, end) within the cycle

  TimeNs offset(TimeNs t) const {
    const TimeNs off = t % cycle_;
    return off < 0 ? off + cycle_ : off;
  }

  const Run* runAt(int q, TimeNs off) const {
    const auto& runs = runs_[q];
    auto it = std::upper_bound(
        runs.begin(), runs.end(), off,
        [](TimeNs o, const Run& r) { return o < r.first; });
    if (it == runs.begin()) return nullptr;
    --it;
    return off < it->second ? &*it : nullptr;
  }

  TimeNs cycle_;
  std::vector<TimeNs> ends_;  // ends_[i]: end offset of entry i
  std::vector<Run> runs_[kNumQueues];
};

/// Random GCL input.  Each round gives the eight queues a shuffled set of
/// roles, so every round has a queue that never opens, one always open,
/// one open exactly once, one in the unallocated time and three with many
/// windows; with `wholeCycle` the eighth is covered by one whole-cycle
/// window (leaving no unallocated time), otherwise it opens once across
/// the cycle boundary.  `windows` is the dense queues' mean window count;
/// 0 drops every window (a single-entry cycle).
GclInput randomInput(std::mt19937_64& rng, int windows, bool wholeCycle) {
  enum Role { Never, Always, Once, WrapOnce, Unallocated, WholeCycle, Many };
  std::vector<Role> roles{Never,       Always, Once, wholeCycle ? WholeCycle
                                                                : WrapOnce,
                          Unallocated, Many,   Many, Many};
  std::shuffle(roles.begin(), roles.end(), rng);
  GclInput in;
  // A cycle that is not a power of two exercises the grid's rounding.
  in.cycle = 1'000'000 + static_cast<TimeNs>(rng() % 1'000'000);
  const auto cycleU = static_cast<std::uint64_t>(in.cycle);
  // Three quarters of the starts sit on a grid of 20 000 points, so windows
  // often touch, nest or share an edge; the rest land on any nanosecond.
  auto at = [&] {
    const std::uint64_t grid = cycleU / 20000;
    return static_cast<TimeNs>(rng() % 4 == 0 ? rng() % cycleU
                                              : rng() % 20000 * grid);
  };
  auto open = [&](int q, TimeNs start, TimeNs len) {
    // Shift some windows by whole cycles: open() normalizes the offset.
    const TimeNs shift = static_cast<TimeNs>(rng() % 3) - 1;
    in.windows.push_back(
        {q, start + shift * in.cycle, start + len + shift * in.cycle});
  };
  for (int q = 0; q < kNumQueues; ++q) {
    if (windows == 0 && roles[static_cast<std::size_t>(q)] != Always &&
        roles[static_cast<std::size_t>(q)] != Unallocated) {
      continue;
    }
    switch (roles[static_cast<std::size_t>(q)]) {
      case Never:
        break;
      case Always:
        in.always.push_back(q);
        break;
      case Unallocated:
        in.unallocated.push_back(q);
        break;
      case Once:
        open(q, at(), 1 + static_cast<TimeNs>(rng() % (cycleU / 2)));
        break;
      case WrapOnce: {
        const TimeNs len = 2 + static_cast<TimeNs>(rng() % (cycleU / 2));
        open(q, in.cycle - len / 2, len);
        break;
      }
      case WholeCycle:
        open(q, at(), in.cycle);
        break;
      case Many: {
        const auto count = static_cast<std::uint64_t>(windows / 2) +
                           rng() % static_cast<std::uint64_t>(windows);
        for (std::uint64_t k = 0; k < count; ++k) {
          // Short windows covering about a quarter of the cycle, plus two
          // up to an eighth of it; every tenth straddles the cycle boundary.
          const std::uint64_t maxLen =
              k < 2 ? cycleU / 8 : cycleU / (2 * count);
          const TimeNs len = 1 + static_cast<TimeNs>(rng() % maxLen);
          open(q, k % 10 == 0 ? in.cycle - len / 2 : at(), len);
        }
        break;
      }
    }
  }
  return in;
}

/// Probe times: every entry's start, start + 1, midpoint and end - 1, in
/// cycles -2 .. 1 (two cycles of negative time).
std::vector<TimeNs> probeTimes(TimeNs cycle,
                               const std::vector<GclEntry>& entries) {
  std::vector<TimeNs> offsets;
  TimeNs at = 0;
  for (const GclEntry& e : entries) {
    offsets.push_back(at);
    offsets.push_back(at + e.duration - 1);
    offsets.push_back(at + e.duration / 2);
    if (e.duration > 1) offsets.push_back(at + 1);
    at += e.duration;
  }
  std::vector<TimeNs> times;
  for (TimeNs c = -2; c <= 1; ++c) {
    for (const TimeNs off : offsets) times.push_back(c * cycle + off);
  }
  return times;
}

/// Compares every query of `gcl` with the reference at every probe time;
/// reports the first few mismatches and returns their count.
std::int64_t countMismatches(const Gcl& gcl, const IntervalReference& ref,
                             const std::vector<TimeNs>& times) {
  std::int64_t mismatches = 0;
  auto expect = [&](const char* what, int q, TimeNs t, TimeNs got,
                    TimeNs want) {
    if (got == want) return;
    if (++mismatches <= 5) {
      ADD_FAILURE() << what << "(q=" << q << ", t=" << t << ") = " << got
                    << ", reference " << want;
    }
  };
  for (const TimeNs t : times) {
    expect("nextChange", -1, t, gcl.nextChange(t), ref.nextChange(t));
    for (int q = 0; q < kNumQueues; ++q) {
      expect("gateOpen", q, t, gcl.gateOpen(q, t), ref.gateOpen(q, t));
      expect("openTimeRemaining", q, t, gcl.openTimeRemaining(q, t),
             ref.openTimeRemaining(q, t));
      expect("nextOpen", q, t, gcl.nextOpen(q, t), ref.nextOpen(q, t));
    }
  }
  return mismatches;
}

bool sameEntries(const std::vector<GclEntry>& a,
                 const std::vector<GclEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const GclEntry& x, const GclEntry& y) {
                      return x.duration == y.duration &&
                             x.gateMask == y.gateMask;
                    });
}

TEST(GclDifferential, BuilderAndQueriesMatchReferenceOnRandomGcls) {
  std::mt19937_64 rng(20240607);
  std::size_t largest = 0;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Round 0 has no windows; later ones grow to thousands of windows.
    const GclInput in = randomInput(rng, 100 * round, round % 3 == 2);
    const Gcl gcl = in.build();
    const std::vector<GclEntry> want = referenceEntries(in);
    ASSERT_TRUE(sameEntries(gcl.entries(), want))
        << gcl.entries().size() << " entries, reference " << want.size();
    largest = std::max(largest, in.windows.size());
    const IntervalReference ref(in.cycle, want);
    EXPECT_EQ(countMismatches(gcl, ref, probeTimes(in.cycle, want)), 0);
  }
  EXPECT_GE(largest, 1000u);  // the inputs reach thousands of windows
}

// Gcl built straight from entries, as parseQcc does: consecutive entries
// may repeat a mask, and the first and last entries may share one.
TEST(GclDifferential, DirectlyBuiltGclsMatchReference) {
  std::mt19937_64 rng(77);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int n = 1 + static_cast<int>(rng() % 400);
    // Few distinct masks, so queues keep long open and closed runs.
    const std::uint8_t masks[] = {0x00, 0xFF, 0x81, 0x7E, 0x01, 0x80};
    std::vector<GclEntry> entries;
    TimeNs cycle = 0;
    for (int i = 0; i < n; ++i) {
      const TimeNs d = 1 + static_cast<TimeNs>(rng() % 5000);
      entries.push_back({d, masks[rng() % 6]});
      cycle += d;
    }
    const Gcl gcl(cycle, entries);
    const IntervalReference ref(cycle, entries);
    EXPECT_EQ(countMismatches(gcl, ref, probeTimes(cycle, entries)), 0);
  }
}

}  // namespace
}  // namespace etsn::net
