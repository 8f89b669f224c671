// The bench harness must reject malformed command lines loudly (a silent
// strtoull truncation once turned `--seed 10x` into seed 10) — these tests
// drive Args::tryParse, the exit-free core of Args::parse.  The shared
// determinism helpers (fnv1a, runAtThreadCounts) are tested here too.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

namespace etsn::bench {
namespace {

/// argv builder: prepends the program name and hands mutable storage to
/// tryParse the way main() would.
bool tryParse(std::vector<std::string> tokens, Args* out, std::string* err) {
  tokens.insert(tokens.begin(), "bench");
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& t : tokens) argv.push_back(t.data());
  return Args::tryParse(static_cast<int>(argv.size()), argv.data(), out, err);
}

TEST(BenchHarness, DefaultsAreQuick) {
  Args a;
  std::string err;
  ASSERT_TRUE(tryParse({}, &a, &err)) << err;
  EXPECT_FALSE(a.full);
  EXPECT_FALSE(a.help);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.duration, seconds(10));
  EXPECT_EQ(a.threads, 0);
  EXPECT_TRUE(a.jsonPath.empty());
}

TEST(BenchHarness, ParsesEveryFlag) {
  Args a;
  std::string err;
  ASSERT_TRUE(tryParse({"--full", "--seed", "42", "--duration", "3",
                        "--threads", "4", "--json", "out.json"},
                       &a, &err))
      << err;
  EXPECT_TRUE(a.full);
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.duration, seconds(3));
  EXPECT_EQ(a.threads, 4);
  EXPECT_EQ(a.jsonPath, "out.json");
}

TEST(BenchHarness, LastOfQuickFullWins) {
  Args a;
  std::string err;
  ASSERT_TRUE(tryParse({"--full", "--quick"}, &a, &err)) << err;
  EXPECT_FALSE(a.full);
}

TEST(BenchHarness, HelpFlagIsRecognised) {
  Args a;
  std::string err;
  ASSERT_TRUE(tryParse({"--help"}, &a, &err)) << err;
  EXPECT_TRUE(a.help);
  EXPECT_NE(std::string(Args::usage()).find("--full"), std::string::npos);
}

TEST(BenchHarness, UnknownFlagFails) {
  Args a;
  std::string err;
  EXPECT_FALSE(tryParse({"--sede", "42"}, &a, &err));
  EXPECT_NE(err.find("unknown flag '--sede'"), std::string::npos);
}

TEST(BenchHarness, MissingValueFails) {
  Args a;
  std::string err;
  EXPECT_FALSE(tryParse({"--seed"}, &a, &err));
  EXPECT_NE(err.find("--seed requires a value"), std::string::npos);
  EXPECT_FALSE(tryParse({"--json"}, &a, &err));
  EXPECT_NE(err.find("--json requires a value"), std::string::npos);
}

TEST(BenchHarness, MalformedNumbersFail) {
  Args a;
  std::string err;
  EXPECT_FALSE(tryParse({"--seed", "10x"}, &a, &err));
  EXPECT_NE(err.find("not a valid number: '10x'"), std::string::npos);
  EXPECT_FALSE(tryParse({"--seed", "-3"}, &a, &err));
  EXPECT_FALSE(tryParse({"--seed", ""}, &a, &err));
  EXPECT_FALSE(tryParse({"--duration", "abc"}, &a, &err));
  EXPECT_FALSE(tryParse({"--duration", "0"}, &a, &err));   // must be > 0
  EXPECT_FALSE(tryParse({"--duration", "-1"}, &a, &err));
}

TEST(BenchHarness, ThreadCountMustBePositive) {
  Args a;
  std::string err;
  // An explicit count must be >= 1; "--threads 0" used to silently mean
  // hardware concurrency, and negatives only produced the generic
  // "not a valid number" message.  Both now fail with a usage error that
  // says what to do instead.
  EXPECT_FALSE(tryParse({"--threads", "0"}, &a, &err));
  EXPECT_NE(err.find("must be >= 1"), std::string::npos) << err;
  EXPECT_NE(err.find("omit the flag"), std::string::npos) << err;
  EXPECT_FALSE(tryParse({"--threads", "-4"}, &a, &err));
  EXPECT_NE(err.find("must be >= 1"), std::string::npos) << err;
  EXPECT_FALSE(tryParse({"--threads", "2x"}, &a, &err));
  EXPECT_NE(err.find("not a valid number"), std::string::npos) << err;
  // The boundary value and the flag-absent default both still work.
  ASSERT_TRUE(tryParse({"--threads", "1"}, &a, &err)) << err;
  EXPECT_EQ(a.threads, 1);
  ASSERT_TRUE(tryParse({}, &a, &err)) << err;
  EXPECT_EQ(a.threads, 0);  // internal sentinel: use hardware concurrency
}

TEST(BenchHarness, StrictParsersRejectJunkAndOverflow) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parseUint64("18446744073709551615", &u));  // UINT64_MAX
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parseUint64("18446744073709551616", &u));  // overflow
  EXPECT_FALSE(parseUint64("1 2", &u));
  EXPECT_FALSE(parseUint64(nullptr, &u));

  std::int64_t i = 0;
  EXPECT_TRUE(parseInt64("-5", &i));
  EXPECT_EQ(i, -5);
  EXPECT_FALSE(parseInt64("9223372036854775808", &i));  // overflow
  EXPECT_FALSE(parseInt64("5.0", &i));
}

TEST(BenchHarness, Fnv1aMatchesTheReferenceVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(BenchHarness, ThreadCountGateHashesOneTwoAndEightThreadRuns) {
  Campaign c;
  c.name = "gate";
  for (int i = 0; i < 3; ++i) {
    c.add("cell" + std::to_string(i), [](std::uint64_t taskSeed) {
      Experiment ex;
      ex.topo = net::makeTestbedTopology();
      net::StreamSpec tct;
      tct.name = "tct";
      tct.src = 0;
      tct.dst = 2;
      tct.period = milliseconds(4);
      tct.maxLatency = milliseconds(4);
      tct.payloadBytes = 500;
      ex.specs = {tct, workload::makeEct("ect", 1, 3, milliseconds(16), 200)};
      ex.options.engine = sched::Engine::Greedy;
      ex.simConfig.duration = milliseconds(100);
      ex.simConfig.seed = taskSeed;
      return ex;
    });
  }
  Args args;
  args.jsonPath = testing::TempDir() + "thread_count_gate.json";
  std::filesystem::remove(args.jsonPath);
  const ThreadCountGate gate = runAtThreadCounts(c, args);
  EXPECT_TRUE(gate.identical());
  EXPECT_EQ(gate.report.threads, 1);
  ASSERT_EQ(gate.report.tasks.size(), 3u);
  EXPECT_EQ(gate.report.feasibleCount(), 3);
  EXPECT_EQ(gate.hashes[0], fnv1a(toJson(gate.report, /*includeSamples=*/true,
                                         /*includeTiming=*/false)));
  // The benches write their own rows file, never the raw campaign dump.
  EXPECT_FALSE(std::filesystem::exists(args.jsonPath));

  ThreadCountGate split;
  split.hashes = {1, 1, 2};
  EXPECT_FALSE(split.identical());
}

}  // namespace
}  // namespace etsn::bench
