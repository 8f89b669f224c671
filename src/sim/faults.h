// Deterministic fault injection (the survivability layer).
//
// A FaultPlan composes per-run fault models: stochastic frame loss per
// link (independent and Gilbert-Elliott burst loss), scheduled link
// outages, "babbling" event sources that violate their declared minimum
// interevent time, and 802.1AS sync outages that let clock drift
// accumulate.  The FaultInjector evaluates the plan with its own seeded
// per-link RNG streams, derived independently of the simulator's main
// generator — so an empty (or all-zero) plan leaves a run byte-identical
// to a fault-free one, and the same seed + plan reproduces every drop
// bit-for-bit regardless of campaign thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "sim/frame.h"

namespace etsn::sim {

/// Per-link stochastic loss.  `dropProbability` is an independent
/// per-frame draw; the Gilbert-Elliott layer adds two-state burst loss
/// (state advances once per frame on the link).  A component with all
/// probabilities zero is inactive and draws nothing.
struct LossModel {
  /// Target link; net::kNoLink applies to every link.  A link-specific
  /// entry overrides a global one (the last matching entry wins).
  net::LinkId link = net::kNoLink;
  double dropProbability = 0;  // iid per-frame loss
  // Gilbert-Elliott: per-frame state transition probabilities and the
  // per-state loss probabilities.  Inactive unless pGoodToBad > 0 and at
  // least one state actually loses frames.
  double pGoodToBad = 0;
  double pBadToGood = 1;
  double lossGood = 0;
  double lossBad = 0;

  bool iidActive() const { return dropProbability > 0; }
  bool burstActive() const {
    return pGoodToBad > 0 && (lossGood > 0 || lossBad > 0);
  }
  bool active() const { return iidActive() || burstActive(); }
};

/// Scheduled outage of a physical cable: both directions of `link` are
/// dead during [downAt, upAt).  Frames whose transmission completes
/// inside the window are cut.  The egress ports of both directions stop
/// selecting frames; what happens to their queues depends on the end:
///  * finite (upAt > downAt): queued and arriving frames wait, and
///    transmission resumes at upAt;
///  * permanent (upAt <= downAt): the frames queued at downAt and every
///    frame that arrives later are dropped as DropCause::LinkDown.
struct LinkOutage {
  net::LinkId link = net::kNoLink;
  TimeNs downAt = 0;
  TimeNs upAt = 0;  // upAt <= downAt = down for the rest of the run

  bool active() const { return link != net::kNoLink; }
  bool permanent() const { return upAt <= downAt; }
  bool covers(TimeNs t) const {
    return active() && t >= downAt && (permanent() || t < upAt);
  }
};

/// A babbling-idiot event source: during [start, stop) the source at
/// NetworkProgram::ectSources[ectIndex] emits additional events every
/// `interval`, violating the declared minimum interevent time T — the
/// stress test for the prudent-reservation guarantee (§III-D).
struct BabblingSource {
  std::int32_t ectIndex = 0;
  TimeNs start = 0;
  TimeNs stop = 0;
  TimeNs interval = 0;

  bool active() const { return interval > 0 && stop > start; }
};

/// 802.1AS sync outage: corrections are suppressed on the targeted nodes
/// during [start, stop), so clock drift accumulates uncorrected until the
/// next surviving sync.  `nodes` names the targets (e.g. just the
/// grandmaster, or one subtree); an empty set hits every node.
struct SyncOutage {
  std::vector<net::NodeId> nodes;  // empty = every node
  TimeNs start = 0;
  TimeNs stop = 0;

  bool active() const { return stop > start; }
  bool covers(net::NodeId n, TimeNs t) const {
    if (!active() || t < start || t >= stop) return false;
    if (nodes.empty()) return true;
    for (const net::NodeId m : nodes) {
      if (m == n) return true;
    }
    return false;
  }
};

/// gPTP stack death on one node from `at` onward (fail-stop): the node
/// stops sending and processing announce/sync/pdelay messages and its
/// servo freezes, while its data-plane ports keep forwarding.  Killing
/// the elected grandmaster is *the* failover drill — downstream nodes
/// coast on holdover until BMCA re-elects.  Inert unless SimConfig::gptp
/// is enabled (the legacy sawtooth sync has no per-node stack to kill).
struct GptpKill {
  net::NodeId node = net::kNoNode;
  TimeNs at = 0;

  bool active() const { return node != net::kNoNode; }
  bool covers(net::NodeId n, TimeNs t) const {
    return active() && node == n && t >= at;
  }
};

struct FaultPlan {
  std::vector<LossModel> losses;
  std::vector<LinkOutage> outages;
  std::vector<BabblingSource> babblers;
  std::vector<SyncOutage> syncOutages;
  std::vector<GptpKill> gptpKills;

  /// True when no component can ever fire (the Network skips building an
  /// injector entirely, keeping fault-free runs bit-identical).
  bool empty() const;

  /// Throw ConfigError on a malformed plan instead of misbehaving
  /// mid-run: probabilities outside [0, 1], unknown link / node ids,
  /// negative times, a babbler with a rate but an empty [start, stop)
  /// window, a babbler naming a source index outside [0, numEctSources),
  /// or two outage episodes overlapping on the same physical cable
  /// (either direction — the injector would silently union them).  A
  /// LinkOutage with upAt <= downAt is *valid* (the documented "down for
  /// the rest of the run" idiom), as are inactive default-constructed
  /// components.
  void validate(const net::Topology& topo, std::size_t numEctSources) const;
};

/// Evaluates a FaultPlan against one simulation run.  All random draws
/// come from per-link generators seeded by splitmix64 derivation from the
/// run seed, and draws happen only for links with an active loss model —
/// in the single-threaded event kernel this makes every verdict a pure
/// function of (seed, plan, frame sequence).
class FaultInjector {
 public:
  FaultInjector(const net::Topology& topo, const FaultPlan& plan,
                std::uint64_t seed);

  /// Loss verdict for a frame whose last bit leaves `link` at `now`.
  /// Advances the link's Gilbert-Elliott state; std::nullopt = survives.
  std::optional<DropCause> lossAt(net::LinkId link, TimeNs now);

  /// True while `link` (either direction of its cable) is cut at `t`.
  bool linkDown(net::LinkId link, TimeNs t) const;

  /// True when `link` is cut at `t` by an outage that never ends.
  bool linkDownForGood(net::LinkId link, TimeNs t) const;

  /// True when 802.1AS correction on `node` is suppressed at `t`.
  bool syncSuppressed(net::NodeId node, TimeNs t) const;

  /// True once `node`'s gPTP stack has been killed (fail-stop) at `t`.
  bool gptpKilled(net::NodeId node, TimeNs t) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct LinkState {
    LossModel model;   // resolved per-link model (inactive by default)
    bool bad = false;  // Gilbert-Elliott state
  };

  FaultPlan plan_;
  std::vector<LinkState> links_;
  std::vector<Rng> linkRngs_;                        // parallel to links_
  std::vector<std::vector<LinkOutage>> outagesOf_;   // per directed link
};

}  // namespace etsn::sim
