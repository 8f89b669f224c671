// Host-speed reference for a shared host.
//
// On a shared VM the same binary runs 20-70% slower while neighbours load
// the host's cores, caches and memory, in stretches lasting minutes, so a
// run can spend all of its seconds slowed.  The benchmark therefore times a
// fixed kernel right before and right after each unit of program work (one
// instance's deploy, one simulation, one churn trace) and reports the
// unit's time scaled by how fast the kernel ran around it:
// scaled = raw / factor, factor = kernel time / its nominal time.  The
// kernel is the benchmark's own code, so a change to the program moves the
// scaled time as it moves the raw one, while a slowed host moves both.
//
// The kernel is the geometric mean of four parts, each timed on its own;
// of the kernels probed (NOTES.md, "Host noise") these slowed most like
// the program does:
//   * eight independent xorshift streams (integer throughput),
//   * a four-accumulator sum over 16 KiB, repeated (L1 load throughput),
//   * a sort of 32 Ki random words (branch mispredictions),
//   * 100 000 probes of a 400 000-entry std::unordered_map (dependent
//     misses in L3 and the TLB).
// All four are built once at start-up, before the program allocates, and
// allocate nothing afterwards.  One sample takes ~15 ms.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <unordered_map>
#include <vector>

#include "spans.h"

namespace etsn::perfbench {

class HostReference {
 public:
  HostReference() {
    const long before = residentKiB();
    std::mt19937_64 g(2024);
    sortSource_.resize(kSortWords);
    for (std::uint32_t& w : sortSource_) w = static_cast<std::uint32_t>(g());
    sortBuffer_.resize(kSortWords);
    sumBuffer_.assign(kSumWords, 1);
    for (std::uint64_t k = 0; k < kTableEntries; ++k) table_[k] = 3 * k;
    residentBytes_ = 1024.0 * static_cast<double>(residentKiB() - before);
  }

  /// Runs the kernel once: its time relative to the nominal one (> 1 on a
  /// slowed host).
  double sample() {
    auto t = Clock::now();
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (int i = 0; i < kXorshiftSteps; ++i) {
      a ^= a << 13;
      b ^= b >> 7;
      c ^= c << 17;
      d ^= d >> 9;
      e += a;
      f += b;
      g ^= c;
      h += d;
      a ^= a >> 7;
      b ^= b << 11;
      c ^= c >> 5;
      d ^= d << 3;
    }
    const double streams = secondsSince(t);

    t = Clock::now();
    std::uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (int r = 0; r < kSumPasses; ++r) {
      const std::uint32_t* p = sumBuffer_.data();
      for (std::size_t i = 0; i < kSumWords; i += 4) {
        s0 += p[i] * 3;
        s1 ^= p[i + 1] + s0;
        s2 += p[i + 2] ^ s1;
        s3 += p[i + 3];
      }
      asm volatile("" ::: "memory");  // one real pass per repetition
    }
    const double sums = secondsSince(t);

    t = Clock::now();
    std::copy(sortSource_.begin(), sortSource_.end(), sortBuffer_.begin());
    std::sort(sortBuffer_.begin(), sortBuffer_.end());
    const double sorting = secondsSince(t);

    t = Clock::now();
    std::uint64_t key = 12345, acc = 0;
    for (int i = 0; i < kProbes; ++i) {
      key = key * 6364136223846793005ull + 1;
      const auto it = table_.find((key >> 20) % kTableEntries);
      acc += it == table_.end() ? 0 : it->second;
    }
    const double probes = secondsSince(t);

    sink_ = a + b + c + d + e + f + g + h + s0 + s1 + s2 + s3 + acc +
            sortBuffer_[kSortWords / 2];
    return std::pow(streams / kStreamsNominal * sums / kSumsNominal *
                        sorting / kSortNominal * probes / kProbesNominal,
                    0.25);
  }

  /// Resident memory the kernel's buffers added at start-up.
  double residentBytes() const { return residentBytes_; }

 private:
  static constexpr int kXorshiftSteps = 1500000;
  static constexpr std::size_t kSumWords = 4096;
  static constexpr int kSumPasses = 3000;
  static constexpr std::size_t kSortWords = 1 << 15;
  static constexpr std::uint64_t kTableEntries = 400000;
  static constexpr int kProbes = 100000;
  // Median times of the four parts over a five-minute probe on the 4-vCPU
  // Xeon VM the bounds were set on; they only fix the scale of the
  // reported times.
  static constexpr double kStreamsNominal = 3.9e-3;
  static constexpr double kSumsNominal = 3.0e-3;
  static constexpr double kSortNominal = 2.33e-3;
  static constexpr double kProbesNominal = 5.87e-3;

  static long residentKiB() {
    std::ifstream statm("/proc/self/statm");
    long size = 0, resident = 0;
    statm >> size >> resident;
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
  }

  std::vector<std::uint32_t> sortSource_, sortBuffer_, sumBuffer_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  double residentBytes_ = 0;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace etsn::perfbench
