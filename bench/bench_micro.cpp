// Microbenchmarks (google-benchmark): the substrates' hot paths — SAT/IDL
// solving, GCL lookups, Ethernet arithmetic, and simulator event
// throughput.
#include <benchmark/benchmark.h>

#include <random>
#include <utility>
#include <vector>

#include "net/ethernet.h"
#include "net/gcl.h"
#include "net/topology.h"
#include "sim/kernel.h"
#include "sim/port.h"
#include "smt/solver.h"
#include "stats/latency.h"

namespace {

using namespace etsn;

void BM_SmtDisjunctiveScheduling(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    smt::Solver s;
    std::vector<smt::IntVar> t;
    for (int i = 0; i < tasks; ++i) {
      t.push_back(s.intVar());
      s.require(s.ge(t.back(), 0));
      s.require(s.le(t.back(), 10 * tasks));
    }
    for (int i = 0; i < tasks; ++i) {
      for (int j = i + 1; j < tasks; ++j) {
        s.addOr(s.leq(t[static_cast<std::size_t>(i)],
                      t[static_cast<std::size_t>(j)], -10),
                s.leq(t[static_cast<std::size_t>(j)],
                      t[static_cast<std::size_t>(i)], -10));
      }
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SmtDisjunctiveScheduling)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_IdlAssertChain(benchmark::State& state) {
  for (auto _ : state) {
    smt::Solver s;
    smt::IntVar prev = s.intVar();
    s.require(s.ge(prev, 0));
    for (int i = 0; i < 200; ++i) {
      const smt::IntVar next = s.intVar();
      s.require(s.leq(prev, next, -5));
      prev = next;
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_IdlAssertChain);

void BM_GclLookup(benchmark::State& state) {
  net::GclBuilder b(milliseconds(16));
  for (int i = 0; i < 64; ++i) {
    b.open(i % 8, microseconds(i * 250), microseconds(i * 250 + 120));
  }
  const net::Gcl gcl = b.build();
  TimeNs t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcl.gateOpen(5, t));
    t += microseconds(37);
  }
}
BENCHMARK(BM_GclLookup);

// GCL construction (GclBuilder::build plus the compiled tables) at
// flagship size: a mesh-5000 link carries up to ~5 600 entries in its 80 ms
// hyperperiod.  2 800 slots of 12 us over queues 1-6, the EP queue opening
// with the sharing ones (4-6), best effort in the unallocated time.  Items
// are windows opened, so items/s is the compile rate in windows/s.
void BM_GclBuild(benchmark::State& state) {
  const TimeNs cycle = milliseconds(80);
  std::mt19937 rng(7);
  std::vector<std::pair<int, TimeNs>> slots;
  std::int64_t windows = 0;
  for (int i = 0; i < 2800; ++i) {
    const int queue = 1 + static_cast<int>(rng() % 6);
    slots.push_back({queue, static_cast<TimeNs>(rng() % 80'000'000u)});
    windows += queue >= 4 ? 2 : 1;
  }
  for (auto _ : state) {
    net::GclBuilder b(cycle);
    for (const auto& [queue, start] : slots) {
      b.open(queue, start, start + microseconds(12));
      if (queue >= 4) b.open(7, start, start + microseconds(12));
    }
    b.openInUnallocated(0);
    const net::Gcl gcl = b.build();
    benchmark::DoNotOptimize(gcl.entries().data());
  }
  state.SetItemsProcessed(state.iterations() * windows);
}
BENCHMARK(BM_GclBuild)->Unit(benchmark::kMicrosecond);

void BM_EthernetMath(benchmark::State& state) {
  int payload = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::frameTxTime(payload, 100'000'000));
    payload = payload % 1500 + 1;
  }
}
BENCHMARK(BM_EthernetMath);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 100000) {
        sim.after(microseconds(1), sim::EventClass::Control, tick);
      }
    };
    sim.at(0, sim::EventClass::Control, tick);
    sim.run(seconds(1));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// The same self-rescheduling ticker through the typed-record fast path:
// no std::function, no closure slot — the event record carries the tag.
void BM_SimulatorTypedEventThroughput(benchmark::State& state) {
  struct Ticker {
    sim::Simulator* sim = nullptr;
    std::int64_t count = 0;
    int tag = 0;
  };
  for (auto _ : state) {
    sim::Simulator sim;
    Ticker ticker{&sim, 0, 0};
    ticker.tag = sim.registerHandler(
        [](void* ctx, std::int32_t, std::int64_t) {
          auto* t = static_cast<Ticker*>(ctx);
          if (++t->count < 100000) {
            t->sim->postAfter(microseconds(1), sim::EventClass::Control,
                              t->tag);
          }
        },
        &ticker);
    sim.post(0, sim::EventClass::Control, ticker.tag);
    sim.run(seconds(1));
    benchmark::DoNotOptimize(ticker.count);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorTypedEventThroughput);

// Deep pending set: 512 periodic tickers with staggered periods keep a few
// hundred events in flight at all times — the workload where a binary heap
// pays log(n) per op and the calendar queue stays O(1).  Mirrors the
// pressure a campaign task puts on the kernel (one event per frame hop).
void BM_SimulatorDeepQueue(benchmark::State& state) {
  constexpr int kTickers = 512;
  struct Fleet {
    sim::Simulator* sim = nullptr;
    std::int64_t count = 0;
    int tag = 0;
  };
  std::int64_t totalEvents = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    Fleet fleet{&sim, 0, 0};
    fleet.tag = sim.registerHandler(
        [](void* ctx, std::int32_t a, std::int64_t) {
          auto* f = static_cast<Fleet*>(ctx);
          ++f->count;
          // Staggered periods in [1us, 64us] keep the buckets uneven.
          f->sim->postAfter(microseconds(1 + (a % 64)),
                            sim::EventClass::Control, f->tag, a);
        },
        &fleet);
    for (int i = 0; i < kTickers; ++i) {
      sim.post(nanoseconds(i), sim::EventClass::Control, fleet.tag, i);
    }
    sim.run(milliseconds(20));
    totalEvents += fleet.count;
    benchmark::DoNotOptimize(fleet.count);
  }
  state.SetItemsProcessed(totalEvents);
}
BENCHMARK(BM_SimulatorDeepQueue);

void BM_PortSaturatedLink(benchmark::State& state) {
  net::Topology topo;
  topo.addDevice("A");
  topo.addDevice("B");
  topo.connect(0, 1);
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Clock clock;
    std::int64_t delivered = 0;
    sim::EgressPort port(sim, topo.link(0), nullptr, &clock,
                         [&](const sim::Frame&, TimeNs) { ++delivered; });
    for (int i = 0; i < 1000; ++i) {
      sim::Frame f;
      f.priority = i % 8;
      f.payloadBytes = 1500;
      port.enqueue(std::move(f));
    }
    sim.run(seconds(1));
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PortSaturatedLink);

void BM_LatencyStats(benchmark::State& state) {
  std::vector<TimeNs> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(microseconds(400 + (i * 7919) % 200));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::summarize(samples));
  }
}
BENCHMARK(BM_LatencyStats);

}  // namespace

BENCHMARK_MAIN();
