// Fig. 11 — CDFs of the ECT stream's latency on the testbed topology under
// 25% / 50% / 75% network load, for E-TSN, PERIOD and AVB, plus the
// headline numbers of §VI-B (423 us average / 515 us worst / 39 us jitter
// for E-TSN at 75% load over 3 hops).
//
// The load×method grid runs as one campaign (--threads N to fan out); all
// cells share the --seed workload so the methods compete on equal terms.
#include "harness.h"

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);

  printHeader("Fig. 11: ECT latency CDFs on the testbed (2 switches, "
              "4 devices, 100 Mbps)");

  const std::vector<double> loads =
      args.full ? std::vector<double>{0.25, 0.5, 0.75}
                : std::vector<double>{0.25, 0.75};
  const sched::Method methods[] = {sched::Method::ETSN, sched::Method::PERIOD,
                                   sched::Method::AVB};

  Campaign c;
  c.name = "fig11_testbed_cdf";
  for (const double load : loads) {
    for (const auto method : methods) {
      char label[64];
      std::snprintf(label, sizeof label, "load%.0f/%s", load * 100,
                    sched::methodName(method));
      c.add(label, [args, method, load](std::uint64_t) {
        return testbedExperiment(args, method, load);
      });
    }
  }
  const CampaignResult cr = runBenchCampaign(std::move(c), args);

  std::size_t task = 0;
  for (const double load : loads) {
    std::printf("\n--- network load %.0f%% ---\n", load * 100);
    for (const auto method : methods) {
      const ExperimentResult& r = cr.tasks[task++].result;
      printEctRow(sched::methodName(method), r);
      if (!r.feasible) continue;
      const auto points = stats::cdf(r.byName("ect").latencies, 10);
      std::printf("    CDF (P, us): ");
      for (const auto& p : points) {
        std::printf("(%.1f, %.0f) ", p.fraction,
                    static_cast<double>(p.value) / 1000.0);
      }
      std::printf("\n");
    }
  }

  std::printf("\nPaper reference at 75%% load: E-TSN avg 423us, worst 515us,"
              " jitter 39us;\nPERIOD/AVB at least an order of magnitude"
              " higher.\n");
  return 0;
}
