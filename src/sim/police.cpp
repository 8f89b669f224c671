#include "sim/police.h"

#include <algorithm>

#include "common/check.h"

namespace etsn::sim {

IngressPolicer::IngressPolicer(PolicingConfig config)
    : config_(std::move(config)) {
  ETSN_CHECK_MSG(!config_.blockOnViolation || config_.quietPeriod > 0,
                 "fail-silent blocking needs a positive quiet period");
  stateOffset_.reserve(config_.filters.filters.size());
  for (const net::StreamFilter& f : config_.filters.filters) {
    ETSN_CHECK_MSG(f.members >= 1, "filter with no members for spec "
                                       << f.specId);
    stateOffset_.push_back(states_.size());
    for (int m = 0; m < f.members; ++m) {
      StreamState s;
      if (f.kind == net::StreamFilter::Kind::Meter) {
        ETSN_CHECK_MSG(f.meter.interval > 0 && f.meter.tokensPerInterval > 0 &&
                           f.meter.bucketCapacity > 0,
                       "degenerate meter for spec " << f.specId);
        s.tokens = f.meter.bucketCapacity;  // start full
      }
      states_.push_back(s);
    }
  }
}

void IngressPolicer::refillMeter(const net::MeterFilter& m, StreamState& s,
                                 TimeNs now) {
  const TimeNs elapsed = now - s.lastRefill;
  ETSN_CHECK_MSG(elapsed >= 0, "policer saw time run backwards");
  s.lastRefill = now;
  s.remainder += elapsed * m.tokensPerInterval;
  s.tokens += s.remainder / m.interval;
  s.remainder %= m.interval;
  if (s.tokens >= m.bucketCapacity) {
    s.tokens = m.bucketCapacity;
    s.remainder = 0;  // a full bucket does not bank credit
  }
}

IngressPolicer::Decision IngressPolicer::admit(const Frame& f, TimeNs now,
                                               TimeNs gateNow) {
  Decision d;
  const net::StreamFilter* filter = config_.filters.filterFor(f.specId);
  if (filter == nullptr || filter->kind == net::StreamFilter::Kind::None) {
    return d;  // unpoliced stream
  }
  ETSN_CHECK_MSG(f.member >= 0 && f.member < filter->members,
                 "frame member " << f.member << " outside spec "
                                 << f.specId << "'s filter");
  StreamState& s = states_[stateOffset_[static_cast<std::size_t>(f.specId)] +
                           static_cast<std::size_t>(f.member)];

  if (s.blocked) {
    if (now - s.quietSince < config_.quietPeriod) {
      // Still (or again) noisy: drop and restart the quiet clock.
      s.quietSince = now;
      d.pass = false;
      return d;
    }
    // Quiet period elapsed: readmit the stream with a clean slate and
    // judge this frame normally.
    s.blocked = false;
    d.recovered = true;
    if (filter->kind == net::StreamFilter::Kind::Meter) {
      s.tokens = filter->meter.bucketCapacity;
      s.remainder = 0;
      s.lastRefill = now;
    }
    if (config_.onRecover) config_.onRecover(f.specId, now);
  }

  bool conformant = true;
  if (filter->kind == net::StreamFilter::Kind::Gate) {
    conformant = filter->gates[static_cast<std::size_t>(f.member)].conforms(
        gateNow);
  } else {
    refillMeter(filter->meter, s, now);
    if (s.tokens > 0) {
      --s.tokens;
    } else {
      conformant = false;
    }
  }
  if (conformant) return d;

  d.pass = false;
  d.violation = true;
  if (config_.blockOnViolation) {
    s.blocked = true;
    s.quietSince = now;
    d.blockStarted = true;
    if (config_.onBlock) config_.onBlock(f.specId, now);
  }
  return d;
}

bool IngressPolicer::isBlocked(std::int32_t specId, TimeNs now) const {
  if (specId < 0 ||
      static_cast<std::size_t>(specId) >= stateOffset_.size()) {
    return false;
  }
  const net::StreamFilter& f =
      config_.filters.filters[static_cast<std::size_t>(specId)];
  const std::size_t base = stateOffset_[static_cast<std::size_t>(specId)];
  for (int m = 0; m < f.members; ++m) {
    const StreamState& s = states_[base + static_cast<std::size_t>(m)];
    if (s.blocked && now - s.quietSince < config_.quietPeriod) return true;
  }
  return false;
}

}  // namespace etsn::sim
