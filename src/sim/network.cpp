#include "sim/network.h"

#include <algorithm>

#include "common/check.h"

namespace etsn::sim {

namespace {
int maxSpecId(const sched::NetworkProgram& p) {
  int m = -1;
  for (const auto& t : p.talkers) m = std::max(m, static_cast<int>(t.specId));
  for (const auto& e : p.ectSources) {
    m = std::max(m, static_cast<int>(e.specId));
  }
  return m;
}
}  // namespace

Network::Network(const net::Topology& topo,
                 const sched::NetworkProgram& program, const SimConfig& config)
    : topo_(topo), program_(program), config_(config), rng_(config.seed) {
  // Reject malformed plans here, with a clear message, rather than
  // misbehaving mid-run; construction is where runExperiment/runCampaign
  // funnel every plan through.
  config_.faults.validate(topo_, program_.ectSources.size());
  // Fault layer: only built when the plan can actually fire, so fault-free
  // runs take exactly the code paths (and RNG draws) they always did.
  if (!config_.faults.empty()) {
    faults_ = std::make_unique<FaultInjector>(topo_, config_.faults,
                                              config_.seed);
  }

  // The network's typed event handlers: thin static trampolines into the
  // member dispatchers (the kernel's jump table stores fn + ctx pairs).
  rxTag_ = sim_.registerHandler(
      [](void* ctx, std::int32_t a, std::int64_t b) {
        static_cast<Network*>(ctx)->onFrameReceived(
            static_cast<FrameHandle>(b), a);
      },
      this);
  enqueueTag_ = sim_.registerHandler(
      [](void* ctx, std::int32_t a, std::int64_t b) {
        auto* self = static_cast<Network*>(ctx);
        self->ports_[static_cast<std::size_t>(a)]->enqueueHandle(
            static_cast<FrameHandle>(b));
      },
      this);
  talkerTag_ = sim_.registerHandler(
      [](void* ctx, std::int32_t a, std::int64_t b) {
        static_cast<Network*>(ctx)->fireTalker(static_cast<std::size_t>(a), b);
      },
      this);
  ectTag_ = sim_.registerHandler(
      [](void* ctx, std::int32_t a, std::int64_t b) {
        static_cast<Network*>(ctx)->fireEctSource(static_cast<std::size_t>(a),
                                                  b);
      },
      this);
  babbleTag_ = sim_.registerHandler(
      [](void* ctx, std::int32_t a, std::int64_t b) {
        static_cast<Network*>(ctx)->fireBabble(static_cast<std::size_t>(a), b);
      },
      this);
  ptpTag_ = sim_.registerHandler(
      [](void* ctx, std::int32_t a, std::int64_t) {
        static_cast<Network*>(ctx)->ptpSync(a);
      },
      this);

  // Clocks: perfect by default, or drifting with periodic sync.
  clocks_.reserve(static_cast<std::size_t>(topo_.numNodes()));
  for (int n = 0; n < topo_.numNodes(); ++n) {
    if (config_.clockDriftPpbMax > 0) {
      clocks_.emplace_back(rng_.uniformReal(-config_.clockDriftPpbMax,
                                            config_.clockDriftPpbMax));
    } else {
      clocks_.emplace_back();
    }
  }

  // Faithful gPTP stack (BMCA + peer delay + sync tree) over the clock
  // bank; when enabled it supersedes the legacy sawtooth sync (startPtp
  // is not scheduled).  Built before the ports so its jump-table tags sit
  // in a fixed position regardless of topology size.
  if (config_.gptp.enabled) {
    gptp_ = std::make_unique<Gptp>(sim_, topo_, clocks_, config_.gptp,
                                   faults_.get(), config_.duration);
  }

  // One egress port per directed link, gated by the program's GCL.
  ETSN_CHECK(static_cast<int>(program_.linkGcl.size()) <= topo_.numLinks());
  ports_.resize(static_cast<std::size_t>(topo_.numLinks()));
  for (int l = 0; l < topo_.numLinks(); ++l) {
    const net::Link& link = topo_.link(l);
    const net::Gcl* gcl =
        static_cast<std::size_t>(l) < program_.linkGcl.size()
            ? &program_.linkGcl[static_cast<std::size_t>(l)]
            : nullptr;
    auto& port = ports_[static_cast<std::size_t>(l)];
    port = std::make_unique<EgressPort>(
        sim_, link, gcl, &clocks_[static_cast<std::size_t>(link.from)],
        [this, l](const Frame& f, TimeNs txEnd) { onTxComplete(l, f, txEnd); },
        faults_.get(), [this](const Frame& f, DropCause cause) {
          recorder_->onFrameDropped(f, cause);
        });
    for (const sched::CbsConfig& cbs : program_.cbs) {
      port->configureCbs(cbs.queue, cbs.idleSlopeFraction);
    }
  }

  const int numSpecs = maxSpecId(program_) + 1;
  recorder_ = std::make_unique<Recorder>(numSpecs);

  // Bounded egress queues: tail drops are attributed to the owning stream.
  if (config_.queueCapacity > 0) {
    for (auto& port : ports_) port->setQueueCapacity(config_.queueCapacity);
  }

  // Ingress policer: wrap the alarm hooks so Recorder bookkeeping happens
  // before any user callback.
  if (config_.police.enabled) {
    PolicingConfig pc = config_.police;
    auto userOnBlock = std::move(pc.onBlock);
    pc.onBlock = [this, userOnBlock = std::move(userOnBlock)](
                     std::int32_t specId, TimeNs at) {
      recorder_->onPolicerBlockStart(specId);
      if (userOnBlock) userOnBlock(specId, at);
    };
    policer_ = std::make_unique<IngressPolicer>(std::move(pc));
  }

  nextInstanceId_.assign(static_cast<std::size_t>(numSpecs), 0);
  nextSeq_.assign(static_cast<std::size_t>(numSpecs), 0);
  memberRoutes_.assign(static_cast<std::size_t>(numSpecs), {});
  for (const auto& t : program_.talkers) {
    recorder_->setDeadline(t.specId, t.maxLatency);
    auto& routes = memberRoutes_[static_cast<std::size_t>(t.specId)];
    for (const sched::TalkerMember& m : t.members) routes.push_back(&m.route);
  }
  for (const auto& e : program_.ectSources) {
    recorder_->setDeadline(e.specId, e.maxLatency);
    auto& routes = memberRoutes_[static_cast<std::size_t>(e.specId)];
    for (const auto& r : e.memberRoutes) routes.push_back(&r);
  }

  // 802.1CB merge relay: built only when some spec actually carries more
  // than one member, so unprotected runs stay bit-identical to pre-FRER
  // builds (no relay state, no extra branches taken).
  std::vector<int> replication(static_cast<std::size_t>(numSpecs), 1);
  bool anyProtected = false;
  for (std::size_t i = 0; i < replication.size(); ++i) {
    if (memberRoutes_[i].size() > 1) {
      replication[i] = static_cast<int>(memberRoutes_[i].size());
      recorder_->setReplication(static_cast<std::int32_t>(i), replication[i]);
      anyProtected = true;
    }
  }
  if (anyProtected) {
    FrerConfig fc = config_.frer;
    auto userAlarm = std::move(fc.onLatentError);
    fc.onLatentError = [this, userAlarm = std::move(userAlarm)](
                           std::int32_t specId, TimeNs at) {
      recorder_->onFrerLatentAlarm(specId);
      if (userAlarm) userAlarm(specId, at);
    };
    relay_ = std::make_unique<FrerRelay>(std::move(fc), std::move(replication));
  }
}

void Network::onTxComplete(net::LinkId link, const Frame& f, TimeNs txEnd) {
  if (config_.trace) config_.trace({f, link, txEnd});
  if (faults_ != nullptr) {
    // Cut at link: an outage that started mid-transmission kills the
    // frame; otherwise the loss models draw a verdict.
    if (faults_->linkDown(link, txEnd)) {
      recorder_->onFrameDropped(f, DropCause::LinkDown);
      return;
    }
    if (const auto cause = faults_->lossAt(link, txEnd)) {
      recorder_->onFrameDropped(f, *cause);
      return;
    }
  }
  // Last bit on the wire at txEnd; full reception after the propagation
  // delay (store-and-forward).  The port recycles its arena slot when this
  // callback returns, so the reception leg gets its own copy.
  const TimeNs rx = txEnd + topo_.link(link).propagationDelay;
  sim_.post(rx, EventClass::Enqueue, rxTag_, link, sim_.frames().alloc(f));
}

void Network::emitMessage(std::int32_t specId, const std::vector<int>& payloads,
                          int priority) {
  const auto& routes = memberRoutes_[static_cast<std::size_t>(specId)];
  ETSN_CHECK(!routes.empty() && !routes[0]->empty());
  const std::int64_t instance =
      nextInstanceId_[static_cast<std::size_t>(specId)]++;
  recorder_->onMessageCreated(specId, instance,
                              static_cast<int>(payloads.size()));
  const TimeNs created = sim_.now();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    // One R-TAG sequence number per fragment, shared by all member copies
    // (the replication point of 802.1CB).
    const std::int64_t seq = nextSeq_[static_cast<std::size_t>(specId)]++;
    for (std::size_t m = 0; m < routes.size(); ++m) {
      Frame f;
      f.specId = specId;
      f.instanceId = instance;
      f.fragIndex = static_cast<int>(i);
      f.fragCount = static_cast<int>(payloads.size());
      f.payloadBytes = payloads[i];
      f.priority = priority;
      f.created = created;
      f.hop = 0;
      f.member = static_cast<std::int32_t>(m);
      f.seq = seq;
      ports_[static_cast<std::size_t>((*routes[m])[0])]->enqueueHandle(
          sim_.frames().alloc(f));
    }
  }
}

void Network::onFrameReceived(FrameHandle h, net::LinkId link) {
  Frame& f = sim_.frames()[h];
  const auto& routes = memberRoutes_[static_cast<std::size_t>(f.specId)];
  ETSN_CHECK_MSG(!routes.empty(), "frame for unknown spec");
  const std::vector<net::LinkId>& route =
      *routes[static_cast<std::size_t>(f.member)];
  ETSN_CHECK(route[static_cast<std::size_t>(f.hop)] == link);

  // PSFP ingress check at the network edge only: past the first switch the
  // traffic is shaped by the switches' own gates, so edge conformance is
  // sufficient (and hardware places Qci at the ingress port too).
  if (policer_ != nullptr && f.hop == 0) {
    // Arrival-window gates are judged in the ingress switch's own clock:
    // with gPTP running, that clock tracks the elected grandmaster, so
    // the judged time degrades exactly as far as the sync tree does (the
    // false-block mechanism the failover drills measure).  Meter state
    // and fail-silent bookkeeping stay on monotone simulation time — a
    // servo step may set a clock slightly backwards, which the token
    // arithmetic must never see.  Without gPTP the legacy global-time
    // judgment is byte-identical.
    const TimeNs gateNow =
        gptp_ != nullptr
            ? clocks_[static_cast<std::size_t>(topo_.link(link).to)].localTime(
                  sim_.now())
            : sim_.now();
    const IngressPolicer::Decision d = policer_->admit(f, sim_.now(), gateNow);
    if (d.violation) recorder_->onPolicerViolation(f.specId);
    if (!d.pass) {
      recorder_->onFrameDropped(f, DropCause::Policer);
      sim_.frames().free(h);
      return;
    }
  }

  if (static_cast<std::size_t>(f.hop) + 1 == route.size()) {
    // Merge point: the sequence-recovery function passes the first copy
    // of each R-TAG seq and eliminates the rest.  Elimination order is
    // deterministic — the kernel pops same-time events in (class, seq)
    // order, so "first arrival" is well-defined even for ties.
    if (relay_ != nullptr && routes.size() > 1) {
      if (relay_->accept(f, sim_.now())) {
        recorder_->onFrameDelivered(f, sim_.now());
      } else {
        recorder_->onDuplicateEliminated(f);
      }
    } else {
      recorder_->onFrameDelivered(f, sim_.now());
    }
    sim_.frames().free(h);
    return;
  }
  // Forward: store-and-forward processing, then enqueue on the next hop.
  // The frame mutates in place in the arena; only the handle travels.
  f.hop += 1;
  const net::LinkId next = route[static_cast<std::size_t>(f.hop)];
  sim_.postAfter(program_.switchProcessingDelay, EventClass::Enqueue,
                 enqueueTag_, next, h);
}

void Network::scheduleTalkerInstance(std::size_t index, std::int64_t instance) {
  const sched::TalkerConfig& t = program_.talkers[index];
  // The talker fires on its own clock (aligned with its port's gates) and
  // paces each frame to its first-link slot (802.1Qbv end station).
  const Clock& clock =
      clocks_[static_cast<std::size_t>(
          topo_.link(t.members[0].route[0]).from)];
  const TimeNs globalFire = std::max(
      clock.globalTimeFor(t.offset + instance * t.period), sim_.now());
  if (globalFire > config_.duration) return;
  sim_.post(globalFire, EventClass::Enqueue, talkerTag_,
            static_cast<std::int32_t>(index), instance);
}

void Network::fireTalker(std::size_t index, std::int64_t instance) {
  const sched::TalkerConfig& t = program_.talkers[index];
  const std::int64_t msgInstance =
      nextInstanceId_[static_cast<std::size_t>(t.specId)]++;
  recorder_->onMessageCreated(t.specId, msgInstance,
                              static_cast<int>(t.framePayloads.size()));
  const TimeNs created = sim_.now();
  // The talker wakes at the earliest member's release; each member copy is
  // then paced to its own first-link slots (the replication point of
  // 802.1CB sits in the end station, before the pacing queues).
  for (std::size_t j = 0; j < t.framePayloads.size(); ++j) {
    const std::int64_t seq = nextSeq_[static_cast<std::size_t>(t.specId)]++;
    for (std::size_t m = 0; m < t.members.size(); ++m) {
      const std::vector<net::LinkId>& route = t.members[m].route;
      const TimeNs frameOffset = t.members[m].frameOffsets[j];
      const Clock& clk =
          clocks_[static_cast<std::size_t>(topo_.link(route[0]).from)];
      Frame f;
      f.specId = t.specId;
      f.instanceId = msgInstance;
      f.fragIndex = static_cast<int>(j);
      f.fragCount = static_cast<int>(t.framePayloads.size());
      f.payloadBytes = t.framePayloads[j];
      f.priority = t.priority;
      f.created = created;
      f.hop = 0;
      f.member = static_cast<std::int32_t>(m);
      f.seq = seq;
      const TimeNs fireAt = std::max(
          clk.globalTimeFor(frameOffset + instance * t.period), sim_.now());
      const FrameHandle h = sim_.frames().alloc(f);
      if (fireAt <= sim_.now()) {
        ports_[static_cast<std::size_t>(route[0])]->enqueueHandle(h);
      } else {
        sim_.post(fireAt, EventClass::Enqueue, enqueueTag_, route[0], h);
      }
    }
  }
  scheduleTalkerInstance(index, instance + 1);
}

void Network::startTalker(std::size_t index) {
  scheduleTalkerInstance(index, 0);
}

void Network::scheduleNextEvent(std::size_t index, TimeNs after) {
  const sched::EctSourceConfig& e = program_.ectSources[index];
  Rng& rng = ectRngs_[index];
  const TimeNs window = config_.ectJitterWindow > 0 ? config_.ectJitterWindow
                                                    : e.minInterevent;
  const TimeNs gap = e.minInterevent +
                     static_cast<TimeNs>(rng.uniformReal(
                         0, static_cast<double>(window)));
  const TimeNs fire = after + gap;
  if (fire > config_.duration) return;
  sim_.post(fire, EventClass::Enqueue, ectTag_,
            static_cast<std::int32_t>(index), fire);
}

void Network::fireEctSource(std::size_t index, TimeNs at) {
  const sched::EctSourceConfig& src = program_.ectSources[index];
  emitMessage(src.specId, src.framePayloads, src.priority);
  scheduleNextEvent(index, at);
}

void Network::startEctSource(std::size_t index) {
  const sched::EctSourceConfig& e = program_.ectSources[index];
  Rng& rng = ectRngs_[index];
  // First event: uniformly random phase within one interevent time.
  const TimeNs first = static_cast<TimeNs>(
      rng.uniformReal(0, static_cast<double>(e.minInterevent)));
  sim_.post(first, EventClass::Enqueue, ectTag_,
            static_cast<std::int32_t>(index), first);
}

void Network::startPtp() {
  if (gptp_ != nullptr) return;  // the real stack owns synchronization
  if (config_.clockDriftPpbMax <= 0) return;
  // Periodic 802.1AS-style correction on every node.
  for (int n = 0; n < topo_.numNodes(); ++n) {
    sim_.post(0, EventClass::Control, ptpTag_, n);
  }
}

void Network::ptpSync(int node) {
  if (faults_ == nullptr || !faults_->syncSuppressed(node, sim_.now())) {
    const TimeNs residual = static_cast<TimeNs>(
        rng_.uniformReal(-static_cast<double>(config_.syncResidualMax),
                         static_cast<double>(config_.syncResidualMax)));
    clocks_[static_cast<std::size_t>(node)].synchronize(sim_.now(), residual);
  }  // else: the correction is lost and drift keeps accumulating
  if (sim_.now() + config_.syncInterval <= config_.duration) {
    sim_.postAfter(config_.syncInterval, EventClass::Control, ptpTag_, node);
  }
}

void Network::scheduleBabble(std::size_t index, TimeNs at) {
  const BabblingSource& b = config_.faults.babblers[index];
  if (at >= b.stop || at > config_.duration) return;
  sim_.post(at, EventClass::Enqueue, babbleTag_,
            static_cast<std::int32_t>(index), at);
}

void Network::fireBabble(std::size_t index, TimeNs at) {
  const BabblingSource& b = config_.faults.babblers[index];
  const sched::EctSourceConfig& src =
      program_.ectSources[static_cast<std::size_t>(b.ectIndex)];
  emitMessage(src.specId, src.framePayloads, src.priority);
  scheduleBabble(index, at + b.interval);
}

void Network::startFaults() {
  if (faults_ == nullptr) return;
  // Re-run transmission selection on both directions of a cable.
  auto kickCable = [this](net::LinkId l) {
    ports_[static_cast<std::size_t>(l)]->kick();
    const net::LinkId rev = topo_.link(l).reverse;
    if (rev != net::kNoLink) ports_[static_cast<std::size_t>(rev)]->kick();
  };
  for (const LinkOutage& o : config_.faults.outages) {
    if (!o.active()) continue;
    if (o.downAt <= config_.duration &&
        (o.permanent() || config_.onLinkDown)) {
      sim_.at(o.downAt, EventClass::Control, [this, o, kickCable]() {
        // A cable that never returns drops what its ports hold.
        if (o.permanent()) kickCable(o.link);
        if (config_.onLinkDown) config_.onLinkDown(o.link, sim_.now());
      });
    }
    if (!o.permanent() && o.upAt <= config_.duration) {
      sim_.at(o.upAt, EventClass::Control, [this, o, kickCable]() {
        // Carrier back: resume transmission selection on both directions.
        kickCable(o.link);
        if (config_.onLinkUp) config_.onLinkUp(o.link, sim_.now());
      });
    }
  }
  for (std::size_t i = 0; i < config_.faults.babblers.size(); ++i) {
    const BabblingSource& b = config_.faults.babblers[i];
    if (!b.active()) continue;
    ETSN_CHECK_MSG(b.ectIndex >= 0 &&
                       static_cast<std::size_t>(b.ectIndex) <
                           program_.ectSources.size(),
                   "babbling source references unknown ECT source "
                       << b.ectIndex);
    scheduleBabble(i, b.start);
  }
}

void Network::run() {
  for (std::size_t i = 0; i < program_.talkers.size(); ++i) startTalker(i);
  ectRngs_.clear();
  for (std::size_t i = 0; i < program_.ectSources.size(); ++i) {
    ectRngs_.push_back(rng_.fork());
  }
  if (!config_.suppressEctTraffic) {
    for (std::size_t i = 0; i < program_.ectSources.size(); ++i) {
      startEctSource(i);
    }
  }
  startPtp();
  if (gptp_ != nullptr) gptp_->start();
  startFaults();
  sim_.run(config_.duration);
  if (gptp_ != nullptr) gptp_->finalize();
  recorder_->finalize();
}

}  // namespace etsn::sim
