#include "sim/port.h"

#include <algorithm>

#include "net/ethernet.h"

namespace etsn::sim {

EgressPort::EgressPort(Simulator& sim, const net::Link& link,
                       const net::Gcl* gcl, const Clock* clock,
                       TxCompleteFn onTxComplete, const FaultInjector* faults,
                       DropFn onDrop)
    : sim_(sim),
      link_(link),
      gcl_(gcl),
      clock_(clock),
      faults_(faults),
      onTxComplete_(std::move(onTxComplete)),
      onDrop_(std::move(onDrop)) {
  serviceTag_ = sim_.registerHandler(&EgressPort::onServiceEvent, this);
  txDoneTag_ = sim_.registerHandler(&EgressPort::onTxDoneEvent, this);
  wakeTag_ = sim_.registerHandler(&EgressPort::onWakeEvent, this);
}

void EgressPort::configureCbs(int queue, double idleSlopeFraction) {
  ETSN_CHECK(queue >= 0 && queue < net::kNumQueues);
  ETSN_CHECK(idleSlopeFraction > 0 && idleSlopeFraction <= 1.0);
  cbsQueue_ = queue;
  cbs_.emplace(static_cast<std::int64_t>(idleSlopeFraction *
                                         static_cast<double>(link_.bandwidthBps)),
               link_.bandwidthBps);
}

TimeNs EgressPort::txTimeFor(const Frame& f) const {
  return net::frameTxTime(f.payloadBytes, link_.bandwidthBps);
}

void EgressPort::setQueueCapacity(int capacity) {
  ETSN_CHECK(capacity >= 0);
  queueCapacity_ = capacity;
}

void EgressPort::drop(FrameHandle h, DropCause cause) {
  if (onDrop_) onDrop_(sim_.frames()[h], cause);
  sim_.frames().free(h);
}

void EgressPort::enqueue(Frame f) {
  ETSN_CHECK(f.priority >= 0 && f.priority < net::kNumQueues);
  enqueueHandle(sim_.frames().alloc(f));
}

void EgressPort::enqueueHandle(FrameHandle h) {
  const Frame& f = sim_.frames()[h];
  ETSN_CHECK(f.priority >= 0 && f.priority < net::kNumQueues);
  auto& q = queues_[static_cast<std::size_t>(f.priority)];
  if (queueCapacity_ > 0 &&
      q.size() >= static_cast<std::size_t>(queueCapacity_)) {
    ++stats_.framesDroppedOverflow;
    drop(h, DropCause::QueueOverflow);
    return;
  }
  q.push(h);
  stats_.maxQueueDepth =
      std::max(stats_.maxQueueDepth, static_cast<std::int64_t>(q.size()));
  const TimeNs now = sim_.now();
  syncCbs(now);
  // Defer transmission selection to a PortService event at the same
  // instant so all same-tick arrivals are visible to one selection (as on
  // hardware, where queues fill before the gate's clock edge).  One event
  // covers all same-instant arrivals, and a busy port needs none at all —
  // the tx-complete event re-runs selection.
  if (!servicePending_ && busyUntil_ <= now) {
    servicePending_ = true;
    sim_.post(now, EventClass::PortService, serviceTag_);
  }
}

void EgressPort::onServiceEvent(void* ctx, std::int32_t, std::int64_t) {
  auto* self = static_cast<EgressPort*>(ctx);
  self->servicePending_ = false;
  self->service();
}

void EgressPort::onTxDoneEvent(void* ctx, std::int32_t, std::int64_t handle) {
  auto* self = static_cast<EgressPort*>(ctx);
  const auto h = static_cast<FrameHandle>(handle);
  self->onTxComplete_(self->sim_.frames()[h], self->sim_.now());
  self->sim_.frames().free(h);
  self->service();
}

void EgressPort::onWakeEvent(void* ctx, std::int32_t, std::int64_t at) {
  auto* self = static_cast<EgressPort*>(ctx);
  if (self->nextWakeAt_ == at) self->nextWakeAt_ = -1;
  self->syncCbs(self->sim_.now());
  self->service();
}

void EgressPort::syncCbs(TimeNs now) {
  if (!cbs_) return;
  const TimeNs localNow = clock_->localTime(now);
  const bool gateOpen =
      gcl_ == nullptr || gcl_->gateOpen(cbsQueue_, localNow);
  const bool hasFrames =
      !queues_[static_cast<std::size_t>(cbsQueue_)].empty();
  const bool sending = sendingQueue_ == cbsQueue_ && busyUntil_ > now;
  cbs_->setState(now, gateOpen, hasFrames, sending);
}

bool EgressPort::queueEligible(int q, std::uint8_t openMask, TimeNs localNow,
                               TimeNs globalNow) {
  const auto& queue = queues_[static_cast<std::size_t>(q)];
  if (queue.empty()) return false;
  const TimeNs txT = txTimeFor(sim_.frames()[queue.front()]);
  if (gcl_ != nullptr && gcl_->installed()) {
    if (((openMask >> q) & 1) == 0) return false;
    // Length-aware Qbv: transmission must finish before the gate closes.
    if (gcl_->openTimeRemaining(q, localNow) < txT) return false;
  }
  if (cbs_ && q == cbsQueue_ && cbs_->creditBits(globalNow) < 0) return false;
  return true;
}

void EgressPort::kick() {
  syncCbs(sim_.now());
  service();
}

void EgressPort::service() {
  const TimeNs now = sim_.now();
  if (busyUntil_ > now) return;  // reselected when the transmission ends
  if (sendingQueue_ >= 0) {
    // A transmission just completed.
    sendingQueue_ = -1;
    syncCbs(now);
  }
  if (faults_ != nullptr && faults_->linkDown(link_.id, now)) {
    // Carrier lost.  Under a finite outage the frames wait in their queues
    // and the network layer kicks the port when it ends; a link that never
    // returns drops them (and, through the same-instant service event,
    // every later arrival).
    if (faults_->linkDownForGood(link_.id, now)) {
      for (FrameQueue& q : queues_) {
        while (!q.empty()) drop(q.pop(), DropCause::LinkDown);
      }
    }
    return;
  }
  const TimeNs localNow = clock_->localTime(now);
  const std::uint8_t openMask =
      (gcl_ != nullptr && gcl_->installed()) ? gcl_->maskAt(localNow) : 0xFF;

  // Strict priority among eligible queues.
  for (int q = net::kNumQueues - 1; q >= 0; --q) {
    if (!queueEligible(q, openMask, localNow, now)) continue;
    const FrameHandle h = queues_[static_cast<std::size_t>(q)].pop();
    const Frame& f = sim_.frames()[h];
    const TimeNs txT = txTimeFor(f);
    busyUntil_ = now + txT;
    sendingQueue_ = q;
    syncCbs(now);  // captures "sending" for the CBS queue
    ++stats_.framesSent;
    stats_.bytesSent += net::wireBytes(f.payloadBytes);
    stats_.busyTime += txT;
    sim_.post(busyUntil_, EventClass::PortService, txDoneTag_, 0, h);
    return;
  }

  // Nothing eligible: arrange a wake-up at the next time eligibility can
  // change (gate opening or CBS credit recovery).
  TimeNs wake = -1;
  auto consider = [&](TimeNs t) {
    // Clamp against clock-inversion rounding so the port can never stall.
    t = std::max(t, now + 1);
    if (wake < 0 || t < wake) wake = t;
  };
  for (int q = 0; q < net::kNumQueues; ++q) {
    if (queues_[static_cast<std::size_t>(q)].empty()) continue;
    if (gcl_ != nullptr && gcl_->installed()) {
      if (((openMask >> q) & 1) == 0) {
        const TimeNs localOpen = gcl_->nextOpen(q, localNow);
        if (localOpen >= 0) consider(clock_->globalTimeFor(localOpen));
        continue;
      }
      // Gate open but (length / credit) blocked: re-evaluate at the next
      // gate boundary.
      consider(clock_->globalTimeFor(gcl_->nextChange(localNow)));
    }
    if (cbs_ && q == cbsQueue_) {
      const TimeNs zero = cbs_->creditZeroTime(now);
      if (zero > now) consider(zero);
    }
  }
  if (wake > 0) scheduleWake(wake);
}

void EgressPort::scheduleWake(TimeNs t) {
  if (nextWakeAt_ > 0 && nextWakeAt_ <= t && nextWakeAt_ > sim_.now()) {
    return;  // an earlier or equal wake is already pending
  }
  nextWakeAt_ = t;
  sim_.post(t, EventClass::PortService, wakeTag_, 0, t);
}

}  // namespace etsn::sim
