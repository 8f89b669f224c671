// 802.1Qbv Gate Control Lists.
//
// A GCL cycles through entries, each opening a subset of the eight egress
// queues for a duration (Fig. 3 of the paper).  GclBuilder assembles a GCL
// from per-queue open windows; queues with no windows at all can be
// declared "always open" (used for best-effort/AVB queues that live in the
// unallocated time-slots).
//
// Construction precompiles the cycle into flat lookup tables so every
// query the simulator's port hot path makes — gate state, next change,
// remaining open time, next opening — is O(1): a coarse grid maps a cycle
// offset to its entry in one step, and a per-(queue, entry) table names the
// entry where that queue's gate next changes state, whose start answers
// both "how long does this gate stay open" and "when does it open next".
// Building and compiling a GCL of n entries from w windows costs
// O(w log w + kNumQueues * n).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace etsn::net {

inline constexpr int kNumQueues = 8;

struct GclEntry {
  TimeNs duration = 0;
  std::uint8_t gateMask = 0;  // bit q set = queue q's gate open
};

class Gcl {
 public:
  /// An empty cycle means "no GCL installed": all gates permanently open.
  Gcl() = default;
  Gcl(TimeNs cycle, std::vector<GclEntry> entries);

  TimeNs cycle() const { return cycle_; }
  const std::vector<GclEntry>& entries() const { return entries_; }
  bool installed() const { return cycle_ > 0; }

  /// Is queue q's gate open at absolute time t?
  bool gateOpen(int queue, TimeNs t) const {
    ETSN_CHECK(queue >= 0 && queue < kNumQueues);
    if (!installed()) return true;
    return (maskAt(t) >> queue) & 1;
  }

  /// Absolute time of the next state change at or after t (for the
  /// simulator's port machinery); returns t's containing entry's end.
  TimeNs nextChange(TimeNs t) const {
    ETSN_CHECK(installed());
    TimeNs entryStart = 0;
    const std::size_t i = entryIndexAt(t, &entryStart);
    return entryStart + entries_[i].duration;
  }

  /// Gate mask in effect at absolute time t.
  std::uint8_t maskAt(TimeNs t) const {
    if (!installed()) return 0xFF;
    return entries_[entryIndexAt(t, nullptr)].gateMask;
  }

  /// From absolute time t, how long queue q's gate stays open (0 if shut).
  /// Capped at one full cycle for always-open queues.
  TimeNs openTimeRemaining(int queue, TimeNs t) const;

  /// Earliest time >= t at which queue q's gate is open; -1 if the gate
  /// never opens within a full cycle.
  TimeNs nextOpen(int queue, TimeNs t) const;

 private:
  std::size_t entryIndexAt(TimeNs t, TimeNs* entryStart) const;
  void compile();

  TimeNs cycle_ = 0;
  std::vector<GclEntry> entries_;

  // Precompiled tables (see compile()).  startOf_ has one extra slot
  // holding cycle_ so entry i spans [startOf_[i], startOf_[i+1]).
  std::vector<TimeNs> startOf_;
  // Coarse offset grid: grid_[off >> gridShift_] is the index of the entry
  // containing the grid cell's start; entryIndexAt advances from there
  // (at most a couple of steps, since cells are at most one entry wide on
  // average).
  std::vector<std::int32_t> grid_;
  int gridShift_ = 0;
  // flip_[q * n + i]: the first entry after i (wrapping across the cycle
  // boundary, so an index below i lies in the next cycle) in which queue
  // q's gate state differs from entry i's; -1 if it never changes.
  std::vector<std::int32_t> flip_;

  std::int32_t flip(int queue, std::size_t i) const {
    return flip_[static_cast<std::size_t>(queue) * entries_.size() + i];
  }
  // Absolute start of entry j's first occurrence after entry i, given the
  // absolute start of i.
  TimeNs startAfter(std::size_t i, std::int32_t j, TimeNs entryStart) const {
    const auto jj = static_cast<std::size_t>(j);
    return entryStart - startOf_[i] + startOf_[jj] + (jj < i ? cycle_ : 0);
  }
};

/// Builds a Gcl from per-queue open intervals within a cycle.
class GclBuilder {
 public:
  explicit GclBuilder(TimeNs cycle);

  /// Open queue `q` during [start, end) (offsets within the cycle; may wrap
  /// around the cycle boundary).
  void open(int queue, TimeNs start, TimeNs end);

  /// Declare a queue open whenever no other queue's window claims the time
  /// ("unallocated" slots — the AVB/best-effort regime of §VI-A2).
  void openInUnallocated(int queue) { unallocated_.push_back(queue); }

  /// Declare a queue open for the entire cycle.
  void alwaysOpen(int queue) { always_.push_back(queue); }

  Gcl build() const;

 private:
  struct Window {
    int queue;
    TimeNs start, end;
  };
  TimeNs cycle_;
  std::vector<Window> windows_;
  std::vector<int> unallocated_;
  std::vector<int> always_;
};

}  // namespace etsn::net
