// Network assembly: wires a Topology and a compiled NetworkProgram into a
// runnable simulation — egress ports on every directed link, store-and-
// forward switching along static routes, time-triggered talkers, stochastic
// event sources, per-node clocks with simplified 802.1AS sync, and the
// statistics recorder.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "sched/program.h"
#include "sim/clock.h"
#include "sim/faults.h"
#include "sim/frer.h"
#include "sim/gptp.h"
#include "sim/kernel.h"
#include "sim/police.h"
#include "sim/port.h"
#include "sim/recorder.h"

namespace etsn::sim {

/// One wire-level event for external analysis (the evaluation-toolkit
/// role: per-frame records at full simulator resolution).
struct TraceEvent {
  Frame frame;
  net::LinkId link = net::kNoLink;
  TimeNs txEnd = 0;  // last bit left the egress port
};

struct SimConfig {
  TimeNs duration = seconds(10);
  std::uint64_t seed = 1;
  /// Optional per-transmission trace sink (empty = no tracing).
  std::function<void(const TraceEvent&)> trace;
  /// Per-node clock drift drawn uniformly from [-max, +max] ppb
  /// (0 = perfect clocks, the default).
  double clockDriftPpbMax = 0;
  /// 802.1AS sync interval (used only when drift is enabled).
  TimeNs syncInterval = milliseconds(125);
  /// Residual offset error after each sync, uniform in [-r, +r].
  TimeNs syncResidualMax = nanoseconds(50);
  /// Faithful 802.1AS gPTP (see sim/gptp.h): BMCA election, peer-delay
  /// measurement and a sync tree replace the sawtooth model above — per
  /// node offset error becomes emergent instead of scripted.  Off by
  /// default; enabling it supersedes syncResidualMax (the legacy periodic
  /// reset is not scheduled).
  GptpConfig gptp;
  /// Event inter-arrival = minInterevent + uniform(0, window);
  /// 0 = use the stream's minimum interevent time as the window, giving a
  /// uniformly distributed occurrence phase (§VI-B).
  TimeNs ectJitterWindow = 0;
  /// Do not generate any events (the "without ECT" runs of §VI-C2); the
  /// schedule, GCLs and reservations stay exactly the same.
  bool suppressEctTraffic = false;
  /// Fault injection (see sim/faults.h).  An empty or all-zero plan keeps
  /// the run byte-identical to a fault-free one.
  FaultPlan faults;
  /// 802.1Qci ingress policing (see sim/police.h).  Disabled by default;
  /// when enabled, frames are judged on arrival at their first switch.
  PolicingConfig police;
  /// 802.1CB sequence-recovery parameters (see sim/frer.h).  Active only
  /// for specs scheduled with redundancy > 1 — unprotected runs never
  /// build the relay, keeping them bit-identical to pre-FRER builds.
  FrerConfig frer;
  /// Per-queue egress capacity in frames; 0 (the default) keeps today's
  /// unbounded queues bit-for-bit.
  int queueCapacity = 0;
  /// Notifications at link-outage boundaries (Control events), e.g. for a
  /// CNC to trigger graceful-degradation rescheduling.  The callback
  /// receives the outage's primary link id (one direction of the cable).
  std::function<void(net::LinkId, TimeNs)> onLinkDown;
  std::function<void(net::LinkId, TimeNs)> onLinkUp;
};

class Network {
 public:
  Network(const net::Topology& topo, const sched::NetworkProgram& program,
          const SimConfig& config);

  /// Run the simulation for config.duration.
  void run();

  const Recorder& recorder() const { return *recorder_; }
  const Simulator& simulator() const { return sim_; }
  const EgressPort& port(net::LinkId l) const {
    return *ports_[static_cast<std::size_t>(l)];
  }
  /// Null on fault-free runs.
  const FaultInjector* faultInjector() const { return faults_.get(); }
  /// Null unless SimConfig::police.enabled.
  const IngressPolicer* policer() const { return policer_.get(); }
  /// Null unless some stream is FRER-protected (redundancy > 1).
  const FrerRelay* frerRelay() const { return relay_.get(); }
  /// Null unless SimConfig::gptp.enabled.
  const Gptp* gptp() const { return gptp_.get(); }

 private:
  void startTalker(std::size_t index);
  void scheduleTalkerInstance(std::size_t index, std::int64_t instance);
  void fireTalker(std::size_t index, std::int64_t instance);
  void startEctSource(std::size_t index);
  void scheduleNextEvent(std::size_t index, TimeNs after);
  void fireEctSource(std::size_t index, TimeNs at);
  void startFaults();
  void scheduleBabble(std::size_t index, TimeNs at);
  void fireBabble(std::size_t index, TimeNs at);
  void emitMessage(std::int32_t specId, const std::vector<int>& payloads,
                   int priority);
  void onFrameReceived(FrameHandle h, net::LinkId link);
  void onTxComplete(net::LinkId link, const Frame& f, TimeNs txEnd);
  void startPtp();
  void ptpSync(int node);

  const net::Topology& topo_;
  const sched::NetworkProgram& program_;
  SimConfig config_;
  Simulator sim_;
  Rng rng_;
  std::unique_ptr<FaultInjector> faults_;  // null on fault-free runs
  std::unique_ptr<IngressPolicer> policer_;  // null unless policing enabled
  std::unique_ptr<FrerRelay> relay_;  // null unless some spec is protected
  std::unique_ptr<Gptp> gptp_;  // null unless SimConfig::gptp.enabled
  std::vector<Clock> clocks_;  // per node
  std::vector<std::unique_ptr<EgressPort>> ports_;  // per directed link
  std::unique_ptr<Recorder> recorder_;
  std::vector<std::int64_t> nextInstanceId_;  // per spec
  std::vector<std::int64_t> nextSeq_;         // per spec (R-TAG counter)
  std::vector<Rng> ectRngs_;                  // per ECT source
  /// Route per (spec, FRER member); size 1 for unprotected specs.
  std::vector<std::vector<const std::vector<net::LinkId>*>> memberRoutes_;

  // Typed-event jump-table tags (registered once at construction; event
  // records carry (tag, link-or-index, frame-handle-or-time) instead of
  // heap-allocated closures).
  int rxTag_ = 0;          // a = link, b = frame handle
  int enqueueTag_ = 0;     // a = egress link, b = frame handle
  int talkerTag_ = 0;      // a = talker index, b = instance
  int ectTag_ = 0;         // a = source index, b = fire time
  int babbleTag_ = 0;      // a = babbler index, b = fire time
  int ptpTag_ = 0;         // a = node
};

}  // namespace etsn::sim
