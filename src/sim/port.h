// Egress port of a TSN node: eight FIFO queues, 802.1Qbv gates with
// length-aware transmission selection, strict priority among open gates,
// and an optional credit-based shaper per queue (Fig. 3 of the paper).
//
// Gate times are evaluated in the owning node's *local* clock; with the
// default perfect clocks this equals simulation time, and with drifting
// clocks the gates slide until the next 802.1AS correction.
//
// Hot-path layout: queues hold 32-bit frame handles in ring buffers (the
// frame bodies live in the simulator's arena), and the port talks to the
// kernel through typed events registered once at construction — service,
// tx-complete and gate-wake records carry a handle or a timestamp, never a
// closure.  Same-instant service events are deduplicated: N enqueues at
// one instant trigger one transmission selection, exactly the selection
// the old one-event-per-enqueue design performed after N-1 no-ops.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "net/gcl.h"
#include "net/topology.h"
#include "sim/cbs.h"
#include "sim/clock.h"
#include "sim/faults.h"
#include "sim/frame.h"
#include "sim/kernel.h"

namespace etsn::sim {

struct PortStats {
  std::int64_t framesSent = 0;
  std::int64_t bytesSent = 0;
  TimeNs busyTime = 0;
  std::int64_t maxQueueDepth = 0;
  std::int64_t framesDroppedOverflow = 0;  // tail drops (bounded queues)
};

/// FIFO ring buffer of frame handles (power-of-two capacity, grows by
/// doubling).  Replaces std::deque<Frame>: pushes move 4 bytes and never
/// allocate in steady state.
class FrameQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  FrameHandle front() const { return buf_[head_]; }

  void push(FrameHandle h) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = h;
    ++size_;
  }

  FrameHandle pop() {
    const FrameHandle h = buf_[head_];
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return h;
  }

 private:
  void grow() {
    std::vector<FrameHandle> bigger(buf_.size() * 2, kNoFrameHandle);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<FrameHandle> buf_ = std::vector<FrameHandle>(8, kNoFrameHandle);
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class EgressPort {
 public:
  /// `onTxComplete(frame, txEndTime)` fires when the last bit leaves the
  /// port; the network layer adds propagation delay and delivers.  The
  /// frame reference is valid only for the duration of the call (the
  /// port recycles the arena slot afterwards) — copy what you keep.
  using TxCompleteFn = std::function<void(const Frame&, TimeNs)>;

  /// `onDrop(frame, cause)` (may be empty) reports each frame the port
  /// drops, for attribution.
  using DropFn = std::function<void(const Frame&, DropCause)>;

  /// `faults` may be null (no fault layer).  When set, the port pauses
  /// transmission selection while its link is cut.  Under a finite outage
  /// the frames wait in their queues, and kick() at the outage end resumes
  /// them; once the link is down for good, every queued or arriving frame
  /// is dropped as DropCause::LinkDown (see LinkOutage).
  EgressPort(Simulator& sim, const net::Link& link, const net::Gcl* gcl,
             const Clock* clock, TxCompleteFn onTxComplete,
             const FaultInjector* faults = nullptr, DropFn onDrop = {});

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  void configureCbs(int queue, double idleSlopeFraction);

  /// Bound every queue of this port to `capacity` frames (0 = unbounded,
  /// the default); an enqueue into a full queue tail-drops the frame.
  void setQueueCapacity(int capacity);

  /// Enqueue a copy of `f` at the current simulation time (allocates the
  /// arena slot on the caller's behalf).
  void enqueue(Frame f);

  /// Enqueue a frame already living in the simulator's arena; the port
  /// takes ownership of the handle (freed after transmission or on drop).
  void enqueueHandle(FrameHandle h);

  /// Re-run transmission selection now (link-up notification).
  void kick();

  TimeNs txTimeFor(const Frame& f) const;

  const PortStats& stats() const { return stats_; }
  const net::Link& link() const { return link_; }

 private:
  static void onServiceEvent(void* ctx, std::int32_t, std::int64_t);
  static void onTxDoneEvent(void* ctx, std::int32_t, std::int64_t handle);
  static void onWakeEvent(void* ctx, std::int32_t, std::int64_t at);

  void service();
  void drop(FrameHandle h, DropCause cause);
  void scheduleWake(TimeNs t);
  void syncCbs(TimeNs now);
  bool queueEligible(int q, std::uint8_t openMask, TimeNs localNow,
                     TimeNs globalNow);

  Simulator& sim_;
  const net::Link& link_;
  const net::Gcl* gcl_;     // may be uninstalled (all gates open)
  const Clock* clock_;      // owning node's clock
  const FaultInjector* faults_;  // may be null (fault-free run)
  TxCompleteFn onTxComplete_;
  DropFn onDrop_;           // may be empty
  int queueCapacity_ = 0;   // frames per queue; 0 = unbounded
  std::array<FrameQueue, net::kNumQueues> queues_;
  std::optional<CbsState> cbs_;
  int cbsQueue_ = -1;
  TimeNs busyUntil_ = -1;
  int sendingQueue_ = -1;
  TimeNs nextWakeAt_ = -1;
  bool servicePending_ = false;  // a same-instant service event is queued
  int serviceTag_ = 0;
  int txDoneTag_ = 0;
  int wakeTag_ = 0;
  PortStats stats_;
};

}  // namespace etsn::sim
