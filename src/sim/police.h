// Runtime enforcement of the compiled PSFP filter table (net/psfp.h).
//
// The policer sits on the switch ingress path (hop 0 only — conformance at
// the network edge implies conformance downstream, since everything past
// the first switch is shaped by the switches' own gates).  Each arriving
// frame is judged against its stream's filter:
//  * Gate streams must arrive inside a compiled window of their period;
//  * Meter streams spend one token from a bucket refilled with exact
//    integer arithmetic (remainder carry), so a run of any length at ns
//    granularity accrues precisely rate * elapsed tokens, no drift.
//
// Non-conformant frames are dropped.  With `blockOnViolation` the stream
// additionally goes fail-silent: every frame is dropped until the source
// has stayed quiet for `quietPeriod` (a frame arriving while blocked
// restarts the clock).  Recovery is lazy — judged at the next arrival
// after the quiet period, which raises the recovery alarm and resets the
// meter to a full bucket.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.h"
#include "net/psfp.h"
#include "sim/frame.h"

namespace etsn::sim {

struct PolicingConfig {
  /// The one switch that arms ingress policing.  Through the façade
  /// (etsn::runExperiment) it also compiles `filters` from the solved
  /// schedule, replacing whatever the caller put there; a sim::Network
  /// built directly enforces `filters` as given.
  bool enabled = false;
  net::PsfpConfig filters;

  /// Fail-silent containment: after a violation, drop *everything* from
  /// the stream until it stays quiet for `quietPeriod`.
  bool blockOnViolation = false;
  TimeNs quietPeriod = milliseconds(10);

  /// Alarm hooks (may be empty).  `onBlock` fires when a stream enters a
  /// block episode, `onRecover` when it is readmitted.
  std::function<void(std::int32_t specId, TimeNs at)> onBlock;
  std::function<void(std::int32_t specId, TimeNs at)> onRecover;
};

class IngressPolicer {
 public:
  /// What happened to one judged frame; the network layer translates this
  /// into Recorder bookkeeping.
  struct Decision {
    bool pass = true;
    bool violation = false;     // the frame itself was non-conformant
    bool blockStarted = false;  // this frame opened a new block episode
    bool recovered = false;     // the stream was readmitted just now
  };

  explicit IngressPolicer(PolicingConfig config);

  /// Judge a frame arriving at its first switch at simulation time `now`.
  /// `now` must be monotonically non-decreasing across calls per stream.
  /// FRER member copies (f.member) are judged against their own member
  /// gate and their own meter/blocking state.
  Decision admit(const Frame& f, TimeNs now) { return admit(f, now, now); }

  /// Same, but arrival-window gates are judged at `gateNow` — the ingress
  /// switch's own (gPTP-disciplined) clock reading, which may jitter by
  /// the sync error and even step backwards after a servo correction.
  /// Meter refill and quiet-period state keep using the monotone `now`.
  Decision admit(const Frame& f, TimeNs now, TimeNs gateNow);

  /// Whether any member of the stream is currently fail-silent (quiet
  /// period pending).
  bool isBlocked(std::int32_t specId, TimeNs now) const;

  const PolicingConfig& config() const { return config_; }

 private:
  struct StreamState {
    // Meter runtime (gate streams leave this untouched).
    std::int64_t tokens = 0;
    std::int64_t remainder = 0;  // sub-token refill carry, in rate units
    TimeNs lastRefill = 0;
    // Fail-silent blocking.
    bool blocked = false;
    TimeNs quietSince = 0;  // last arrival while blocked
  };

  void refillMeter(const net::MeterFilter& m, StreamState& s, TimeNs now);

  PolicingConfig config_;
  /// One runtime state per (spec, FRER member), flattened member-major;
  /// stateOffset_[spec] indexes the spec's member 0.
  std::vector<StreamState> states_;
  std::vector<std::size_t> stateOffset_;
};

}  // namespace etsn::sim
