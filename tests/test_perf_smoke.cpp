// Performance smoke tests (ctest label "perf"): assert the hot paths stay
// above throughput floors set far below any healthy machine's numbers.
// The floors catch structural regressions — per-event heap allocation
// creeping back into the kernel, the GCL lookup reverting to an entry
// walk — while staying out of reach of scheduler jitter or a loaded CI
// box (a RelWithDebInfo build on one slow core clears them several times
// over).  Measure in one short burst; never tune these upward to "track"
// performance, that is what bench_micro is for.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "net/gcl.h"
#include "sim/kernel.h"

namespace etsn::sim {
namespace {

double secondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Typed-event dispatch with a deep pending set (256 staggered periodic
// tickers): the campaign workload's kernel profile.  Floor: 2M events/s —
// the slowest observed healthy machine runs this an order of magnitude
// faster.
TEST(PerfSmoke, KernelTypedEventThroughputFloor) {
  constexpr std::int64_t kEvents = 400'000;
  struct Fleet {
    Simulator* sim;
    std::int64_t count = 0;
    int tag = 0;
  };
  Simulator sim;
  Fleet fleet{&sim};
  fleet.tag = sim.registerHandler(
      [](void* ctx, std::int32_t a, std::int64_t) {
        auto* f = static_cast<Fleet*>(ctx);
        if (++f->count < kEvents) {
          f->sim->postAfter(microseconds(1 + (a % 64)), EventClass::Control,
                            f->tag, a);
        }
      },
      &fleet);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 256; ++i) {
    sim.post(nanoseconds(i), EventClass::Control, fleet.tag, i);
  }
  sim.run(seconds(3600));
  const double elapsed = secondsSince(start);
  ASSERT_GE(fleet.count, kEvents);
  const double perSec = static_cast<double>(fleet.count) / elapsed;
  EXPECT_GE(perSec, 2e6) << "kernel typed-event throughput collapsed: "
                         << perSec / 1e6 << "M events/s";
}

// Flat-table gate lookups.  Floor: 20M lookups/s against the compiled
// table's measured ~200M/s.
TEST(PerfSmoke, GclLookupThroughputFloor) {
  net::GclBuilder b(milliseconds(16));
  for (int i = 0; i < 64; ++i) {
    b.open(i % 8, microseconds(i * 250), microseconds(i * 250 + 120));
  }
  const net::Gcl gcl = b.build();
  constexpr std::int64_t kLookups = 2'000'000;
  std::int64_t open = 0;
  TimeNs t = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < kLookups; ++i) {
    open += gcl.gateOpen(static_cast<int>(i & 7), t) ? 1 : 0;
    t += microseconds(37);
  }
  const double elapsed = secondsSince(start);
  // `open` depends on every lookup, keeping the loop un-elidable.
  ASSERT_GT(open, 0);
  const double perSec = static_cast<double>(kLookups) / elapsed;
  EXPECT_GE(perSec, 2e7) << "GCL lookup throughput collapsed: "
                         << perSec / 1e6 << "M lookups/s";
}

// GCL construction on a flagship-sized link: 20 000 entries from one busy
// queue, the unallocated queue toggling with it, and the other queues
// opening once, never or always.  Building it is a sort and a few linear
// passes (a few ms); the cuts-by-windows builder and the per-entry walk to
// the next opening took ~7 queues * 2n^2 steps, seconds at this size.
// Ceiling: 1 s.
TEST(PerfSmoke, GclBuildStaysLinear) {
  const TimeNs cycle = milliseconds(80);
  net::GclBuilder b(cycle);
  for (int i = 0; i < 10'000; ++i) {
    b.open(6, microseconds(8 * i), microseconds(8 * i + 2));
  }
  b.openInUnallocated(0);
  b.open(1, microseconds(4001), microseconds(4003));
  b.open(3, cycle - microseconds(3), cycle + microseconds(1));  // wraps
  b.alwaysOpen(5);
  const auto start = std::chrono::steady_clock::now();
  const net::Gcl gcl = b.build();
  const double elapsed = secondsSince(start);
  ASSERT_GE(gcl.entries().size(), 20'000u);
  EXPECT_EQ(gcl.nextOpen(2, 0), -1);
  EXPECT_LE(elapsed, 1.0) << "GCL construction no longer linear: "
                          << elapsed << " s for " << gcl.entries().size()
                          << " entries";
}

}  // namespace
}  // namespace etsn::sim
