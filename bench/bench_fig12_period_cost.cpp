// Fig. 12 — resource cost of the PERIOD baseline: PERIOD, PERIOD_double,
// PERIOD_quad, PERIOD_octa reserve 1/2/4/8 times as many dedicated ECT
// time-slots as E-TSN uses probabilistic streams, yet even the octa
// variant cannot match E-TSN's worst case, while its dedicated slots eat
// a large share of the bandwidth (§VI-B, second experiment).
#include "harness.h"

namespace {

// Fraction of one link's bandwidth consumed by the dedicated ECT slots.
double ectSlotBandwidth(const etsn::ExperimentResult&, int slotFactor,
                        etsn::TimeNs interevent) {
  const etsn::TimeNs slot = etsn::net::frameTxTime(1500, 100'000'000);
  return static_cast<double>(slot * slotFactor) /
         static_cast<double>(interevent);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace etsn;
  using namespace etsn::bench;
  Args args = Args::parse(argc, argv);

  printHeader("Fig. 12: PERIOD with 1x/2x/4x/8x of E-TSN's slots vs E-TSN "
              "(testbed, 50% load)");

  const double load = 0.5;
  {
    const ExperimentResult r =
        runExperiment(testbedExperiment(args, sched::Method::ETSN, load));
    printEctRow("E-TSN", r);
  }
  const int n = args.numProbabilistic;
  struct Variant {
    const char* name;
    int mult;
  } variants[] = {
      {"PERIOD", 1}, {"PERIOD_double", 2}, {"PERIOD_quad", 4},
      {"PERIOD_octa", 8}};
  for (const auto& v : variants) {
    const int factor = n * v.mult;
    const ExperimentResult r = runExperiment(
        testbedExperiment(args, sched::Method::PERIOD, load, factor));
    printEctRow(v.name, r);
    std::printf("    dedicated ECT slots use %.1f%% of each path link\n",
                100.0 * ectSlotBandwidth(r, factor, milliseconds(16)));
    if (r.feasible) {
      const auto points = stats::cdf(r.byName("ect").latencies, 10);
      std::printf("    CDF (P, us): ");
      for (const auto& p : points) {
        std::printf("(%.1f, %.0f) ", p.fraction,
                    static_cast<double>(p.value) / 1000.0);
      }
      std::printf("\n");
    }
  }
  std::printf("\nPaper reference: even PERIOD_octa's worst case is ~3x "
              "E-TSN's, at >90%% bandwidth cost.\n");
  return 0;
}
