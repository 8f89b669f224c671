#include "sched/smt_builder.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/log.h"
#include "sched/expand.h"

namespace etsn::sched {

ScheduleSmt::ScheduleSmt(const net::Topology& topo,
                         std::vector<ExpandedStream> streams,
                         const SchedulerConfig& config)
    : topo_(topo),
      streams_(std::move(streams)),
      config_(config),
      solver_(std::make_unique<smt::Solver>()) {
  // Difference logic needs one time base: require a uniform tu across all
  // links any stream uses (see DESIGN.md "Uniform scheduling time unit").
  for (const ExpandedStream& s : streams_) {
    for (const net::LinkId l : s.path) {
      const TimeNs linkTu = topo_.link(l).timeUnit;
      if (tu_ == 0) tu_ = linkTu;
      if (linkTu != tu_) {
        throw ConfigError(
            "SMT scheduling requires a uniform time unit across links");
      }
    }
  }
  if (tu_ == 0) tu_ = microseconds(1);

  vars_.resize(streams_.size());
  hopBase_.resize(streams_.size());
  for (const ExpandedStream& s : streams_) {
    allocateVars(s);
  }
}

void ScheduleSmt::allocateVars(const ExpandedStream& s) {
  ETSN_CHECK_MSG(s.period % tu_ == 0,
                 "stream period must be a multiple of the time unit");
  auto& sv = vars_[static_cast<std::size_t>(s.id)];
  auto& hb = hopBase_[static_cast<std::size_t>(s.id)];
  for (int hop = 0; hop < s.hops(); ++hop) {
    hb.push_back(static_cast<int>(sv.size()));
    const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
    for (int j = 0; j < frames; ++j) {
      sv.push_back(solver_->intVar(s.name + "/h" + std::to_string(hop) +
                                   "/f" + std::to_string(j)));
    }
  }
}

smt::IntVar ScheduleSmt::phi(StreamId s, int hop, int frame) const {
  const auto& sv = vars_[static_cast<std::size_t>(s)];
  const int base = hopBase_[static_cast<std::size_t>(s)]
                           [static_cast<std::size_t>(hop)];
  return sv[static_cast<std::size_t>(base + frame)];
}

std::int64_t ScheduleSmt::frameLenTu(const ExpandedStream& s, int hop,
                                     int frame) const {
  const net::Link& link = topo_.link(s.path[static_cast<std::size_t>(hop)]);
  return ceilDiv(frameTxTimeOf(s, frame, link), tu_);
}

std::int64_t ScheduleSmt::periodTu(const ExpandedStream& s) const {
  return s.period / tu_;
}

std::int64_t ScheduleSmt::occurrenceTu(const ExpandedStream& s) const {
  return ceilDiv(s.occurrence, tu_);
}

std::int64_t ScheduleSmt::loBound(const ExpandedStream& s) const {
  // Every frame of the stream starts at or after the occurrence/release
  // offset: (2) states it for the first frame and (3)/(7) chain it to the
  // rest.  Declaring it explicitly tightens the repetition-offset windows
  // in (5) and the isolation family.
  return occurrenceTu(s);
}

std::int64_t ScheduleSmt::hiBound(const ExpandedStream& s, int hop,
                                  int frame) const {
  // (1): transmission fits in the period.  Streams may slide by their
  // occurrence/release offset into the next cycle (the GCL wraps), which
  // keeps late possibilities (ot close to T) and late-released TCT
  // feasible over multiple hops.
  return periodTu(s) + occurrenceTu(s) - frameLenTu(s, hop, frame);
}

void ScheduleSmt::emit(smt::Lit fact) {
  if (guard_ == smt::kLitUndef) {
    solver_->require(fact);
  } else {
    solver_->addClause({~guard_, fact});
  }
}

void ScheduleSmt::emitOr(smt::Lit a, smt::Lit b) {
  if (guard_ == smt::kLitUndef) {
    solver_->addOr(a, b);
  } else {
    solver_->addClause({~guard_, a, b});
  }
}

void ScheduleSmt::buildConstraints() {
  for (const ExpandedStream& s : streams_) {
    emitStreamLocal(s);
  }
  for (std::size_t ia = 0; ia < streams_.size(); ++ia) {
    for (std::size_t ib = ia + 1; ib < streams_.size(); ++ib) {
      emitPair(streams_[ia], streams_[ib]);
    }
  }
}

void ScheduleSmt::pinStreamTo(StreamId s, const std::vector<Slot>& slots) {
  if (s < 0 || static_cast<std::size_t>(s) >= streams_.size()) {
    throw ConfigError("pinStreamTo: unknown stream id");
  }
  const ExpandedStream& es = streams_[static_cast<std::size_t>(s)];
  // Validate coverage against the stream's *current* grid before touching
  // the solver.  Slots extracted from an older schedule can disagree with
  // it — the path was rerouted (a link no longer exists) or the
  // prudent-reservation frame counts changed — and a raw phi() lookup on
  // such a slot would index out of bounds.
  std::vector<std::size_t> hopBase(static_cast<std::size_t>(es.hops()));
  std::size_t expected = 0;
  for (int hop = 0; hop < es.hops(); ++hop) {
    hopBase[static_cast<std::size_t>(hop)] = expected;
    expected += static_cast<std::size_t>(
        es.framesOnLink[static_cast<std::size_t>(hop)]);
  }
  std::vector<char> seen(expected, 0);
  std::size_t pinned = 0;
  for (const Slot& slot : slots) {
    if (slot.stream != s) continue;
    if (slot.hop < 0 || slot.hop >= es.hops() || slot.frameIndex < 0 ||
        slot.frameIndex >=
            es.framesOnLink[static_cast<std::size_t>(slot.hop)]) {
      throw ConfigError("pinStreamTo: slot (hop " + std::to_string(slot.hop) +
                        ", frame " + std::to_string(slot.frameIndex) +
                        ") is outside stream '" + es.name +
                        "'s current grid — the stream's path or reservation "
                        "changed since the slots were extracted");
    }
    if (slot.start % tu_ != 0) {
      throw ConfigError("pinStreamTo: slot start of stream '" + es.name +
                        "' is not on the time-unit grid");
    }
    char& mark = seen[hopBase[static_cast<std::size_t>(slot.hop)] +
                      static_cast<std::size_t>(slot.frameIndex)];
    if (mark) {
      throw ConfigError("pinStreamTo: duplicate slot for stream '" + es.name +
                        "' (hop " + std::to_string(slot.hop) + ", frame " +
                        std::to_string(slot.frameIndex) + ")");
    }
    mark = 1;
    ++pinned;
  }
  if (pinned != expected) {
    throw ConfigError("pinStreamTo: slots do not cover stream '" + es.name +
                      "' (" + std::to_string(pinned) + " of " +
                      std::to_string(expected) + " frames pinned)");
  }
  for (const Slot& slot : slots) {
    if (slot.stream != s) continue;
    const smt::IntVar v = phi(s, slot.hop, slot.frameIndex);
    const std::int64_t val = slot.start / tu_;
    emit(solver_->le(v, val));
    emit(solver_->ge(v, val));
  }
}

void ScheduleSmt::emitStreamLocal(const ExpandedStream& s) {
  // (1) + (2): every slot within [occurrence, period + slide].
  for (int hop = 0; hop < s.hops(); ++hop) {
    const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
    for (int j = 0; j < frames; ++j) {
      const smt::IntVar v = phi(s.id, hop, j);
      emit(solver_->ge(v, loBound(s)));
      emit(solver_->le(v, hiBound(s, hop, j)));
    }
  }

  // (3): frames of one stream leave a link in order, without overlap.
  for (int hop = 0; hop < s.hops(); ++hop) {
    const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
    for (int j = 0; j + 1 < frames; ++j) {
      emit(solver_->leq(phi(s.id, hop, j), phi(s.id, hop, j + 1),
                        -frameLenTu(s, hop, j)));
    }
  }

  // (4): end-to-end latency over the last reserved slot so the prudent
  // extras (worst case) are covered; the metric is "receiving of the last
  // frame minus sending of the first" (§VI-A3), so the bound is tightened
  // by the final frame's wire and propagation time.
  {
    const int lastHop = s.hops() - 1;
    const int lastFrame =
        s.framesOnLink[static_cast<std::size_t>(lastHop)] - 1;
    const smt::IntVar last = phi(s.id, lastHop, lastFrame);
    const net::Link& lastLink =
        topo_.link(s.path[static_cast<std::size_t>(lastHop)]);
    const std::int64_t completion =
        frameLenTu(s, lastHop, lastFrame) +
        ceilDiv(lastLink.propagationDelay, tu_);
    const std::int64_t e2e = s.maxLatency / tu_ - completion;
    if (e2e < 0) {
      throw ConfigError("stream '" + s.name +
                        "': deadline shorter than one frame transmission");
    }
    if (s.kind == StreamKind::Det) {
      emit(solver_->leq(last, phi(s.id, 0, 0), e2e));
    } else {
      emit(solver_->le(last, occurrenceTu(s) + e2e));
    }
  }

  // (7): a downstream slot opens only after the *latest* upstream slot
  // that may carry the same frame has fully arrived.
  for (int hop = 1; hop < s.hops(); ++hop) {
    const net::Link& up =
        topo_.link(s.path[static_cast<std::size_t>(hop - 1)]);
    const std::int64_t hopDelay =
        ceilDiv(up.propagationDelay + config_.switchProcessingDelay +
                    config_.syncErrorMargin,
                tu_);
    const int nUp = s.framesOnLink[static_cast<std::size_t>(hop - 1)];
    const int nDown = s.framesOnLink[static_cast<std::size_t>(hop)];
    const int o = std::max(nUp - nDown, 0);
    for (int j = 0; j < nDown; ++j) {
      const int upIdx = std::min(j + o, nUp - 1);
      emit(solver_->leq(phi(s.id, hop - 1, upIdx), phi(s.id, hop, j),
                        -(frameLenTu(s, hop - 1, upIdx) + hopDelay)));
    }
  }
}

bool ScheduleSmt::canOverlap(const ExpandedStream& a,
                             const ExpandedStream& b) {
  // (5)'s exceptions: possibilities of the same ECT stream may overlap;
  // a probabilistic stream may overlap a TCT stream that shares its slots
  // (the shared stream was expanded by Alg. 1 to absorb the displacement).
  if (a.kind == StreamKind::Prob && b.kind == StreamKind::Prob) {
    return a.specId == b.specId;
  }
  if (a.kind == StreamKind::Prob && b.kind == StreamKind::Det) return b.share;
  if (b.kind == StreamKind::Prob && a.kind == StreamKind::Det) return a.share;
  return false;
}

void ScheduleSmt::emitPair(const ExpandedStream& a, const ExpandedStream& b) {
  emitOverlapPair(a, b);
  if (config_.isolation != SchedulerConfig::Isolation::None) {
    emitIsolationPair(a, b);
  }
}

void ScheduleSmt::emitOverlapPair(const ExpandedStream& a,
                                  const ExpandedStream& b) {
  // (5): pairwise non-overlap on shared links across the hyperperiod.
  // Instead of enumerating (x, y) repetition pairs we enumerate the
  // distinct relative offsets delta = y*Tj - x*Ti, which are exactly the
  // multiples of gcd(Ti, Tj) within the window where the variable bounds
  // allow a collision (an equivalent but smaller encoding).
  if (canOverlap(a, b)) return;
  const std::int64_t g = std::gcd(periodTu(a), periodTu(b));
  for (int ha = 0; ha < a.hops(); ++ha) {
    for (int hb = 0; hb < b.hops(); ++hb) {
      if (a.path[static_cast<std::size_t>(ha)] !=
          b.path[static_cast<std::size_t>(hb)])
        continue;
      const int na = a.framesOnLink[static_cast<std::size_t>(ha)];
      const int nb = b.framesOnLink[static_cast<std::size_t>(hb)];
      for (int fa = 0; fa < na; ++fa) {
        const std::int64_t La = frameLenTu(a, ha, fa);
        for (int fb = 0; fb < nb; ++fb) {
          const std::int64_t Lb = frameLenTu(b, hb, fb);
          // Collisions are possible only when
          //   loA - hiB - Lb < delta < hiA + La - loB.
          const std::int64_t loD = loBound(a) - hiBound(b, hb, fb) - Lb;
          const std::int64_t hiD = hiBound(a, ha, fa) + La - loBound(b);
          const smt::IntVar pa = phi(a.id, ha, fa);
          const smt::IntVar pb = phi(b.id, hb, fb);
          for (std::int64_t d = (loD / g) * g - g; d <= hiD; d += g) {
            if (d <= loD || d >= hiD) continue;
            // Either a's frame is after b's shifted frame, or before:
            //   pa >= pb + d + Lb   OR   pb + d >= pa + La
            emitOr(solver_->leq(pb, pa, -d - Lb),
                   solver_->leq(pa, pb, d - La));
          }
        }
      }
    }
  }
}

void ScheduleSmt::emitIsolationPair(const ExpandedStream& a,
                                    const ExpandedStream& b) {
  // Isolation of same-queue Det streams on a link (see SchedulerConfig).
  //
  // Presence mode: presence windows [arrival, departure+L) of frames from
  // different streams must not overlap (with a small margin), so the FIFO
  // holds one stream at a time:
  //   (arrB + d >= depA + La + m)  OR  (arrA >= depB + d + Lb + m)
  //
  // FifoOrder mode: departures must follow arrivals; for every repetition
  // offset d,
  //   (arrA <= arrB + d  ->  depA + La <= depB + d)  and
  //   (arrB + d <= arrA  ->  depB + d + Lb <= depA)
  // encoded as two clauses over a shared ordering atom.
  //
  // Arrival of frame j on hop h>0: the presence window must open at the
  // *earliest* possible content arrival — upstream slot j (no ECT
  // displacement), not the worst-case j+o index (7) uses.  When an event
  // does displace frames, the content arrives later, which only shrinks
  // the presence window.  On hop 0 the talker paces each frame to its own
  // slot, so its window is the slot itself.
  if (a.kind != StreamKind::Det || b.kind != StreamKind::Det ||
      a.priority != b.priority) {
    return;
  }
  auto arrivalExpr = [&](const ExpandedStream& s, int hop, int j,
                         smt::IntVar* var, std::int64_t* offset) {
    if (hop == 0) {
      *var = phi(s.id, 0, j);
      *offset = 0;
      return;
    }
    const net::Link& up =
        topo_.link(s.path[static_cast<std::size_t>(hop - 1)]);
    const std::int64_t hopDelay =
        ceilDiv(up.propagationDelay + config_.switchProcessingDelay +
                    config_.syncErrorMargin,
                tu_);
    const int nUp = s.framesOnLink[static_cast<std::size_t>(hop - 1)];
    const int upIdx = std::min(j, nUp - 1);
    *var = phi(s.id, hop - 1, upIdx);
    *offset = frameLenTu(s, hop - 1, upIdx) + hopDelay;
  };

  const std::int64_t g = std::gcd(periodTu(a), periodTu(b));
  for (int ha = 0; ha < a.hops(); ++ha) {
    for (int hb = 0; hb < b.hops(); ++hb) {
      if (a.path[static_cast<std::size_t>(ha)] !=
          b.path[static_cast<std::size_t>(hb)])
        continue;
      const int na = a.framesOnLink[static_cast<std::size_t>(ha)];
      const int nb = b.framesOnLink[static_cast<std::size_t>(hb)];
      if (config_.isolation == SchedulerConfig::Isolation::Flow) {
        // Flow isolation: the whole per-link bursts must not interleave —
        // B's first arrival after A's last departure, or vice versa.
        smt::IntVar arrA0, arrB0;
        std::int64_t offA0, offB0;
        arrivalExpr(a, ha, 0, &arrA0, &offA0);
        arrivalExpr(b, hb, 0, &arrB0, &offB0);
        const smt::IntVar depAL = phi(a.id, ha, na - 1);
        const smt::IntVar depBL = phi(b.id, hb, nb - 1);
        const std::int64_t LaL = frameLenTu(a, ha, na - 1);
        const std::int64_t LbL = frameLenTu(b, hb, nb - 1);
        const std::int64_t off = offA0 + offB0;
        const std::int64_t loD =
            occurrenceTu(a) - (occurrenceTu(b) + periodTu(b)) - LbL - off;
        const std::int64_t hiD =
            occurrenceTu(a) + periodTu(a) - occurrenceTu(b) + LaL + off;
        const std::int64_t m = config_.isolationMarginTu;
        for (std::int64_t d = (loD / g) * g - g; d <= hiD; d += g) {
          if (d <= loD - m || d >= hiD + m) continue;
          // arrB0 + d >= depAL + LaL + m  OR  arrA0 >= depBL + d + LbL + m
          emitOr(solver_->leq(depAL, arrB0, d + offB0 - LaL - m),
                 solver_->leq(depBL, arrA0, -d + offA0 - LbL - m));
        }
        continue;
      }
      for (int fa = 0; fa < na; ++fa) {
        smt::IntVar arrVarA;
        std::int64_t arrOffA;
        arrivalExpr(a, ha, fa, &arrVarA, &arrOffA);
        const smt::IntVar depA = phi(a.id, ha, fa);
        const std::int64_t La = frameLenTu(a, ha, fa);
        for (int fb = 0; fb < nb; ++fb) {
          smt::IntVar arrVarB;
          std::int64_t arrOffB;
          arrivalExpr(b, hb, fb, &arrVarB, &arrOffB);
          const smt::IntVar depB = phi(b.id, hb, fb);
          const std::int64_t Lb = frameLenTu(b, hb, fb);
          // Repetition-offset window: arrivals and departures of each
          // stream lie within [occurrence, occurrence + period],
          // shifted by the constant arrival offsets.
          const std::int64_t off = arrOffA + arrOffB;
          const std::int64_t loD =
              occurrenceTu(a) - (occurrenceTu(b) + periodTu(b)) - Lb - off;
          const std::int64_t hiD =
              occurrenceTu(a) + periodTu(a) - occurrenceTu(b) + La + off;
          const std::int64_t m = config_.isolationMarginTu;
          for (std::int64_t d = (loD / g) * g - g; d <= hiD; d += g) {
            if (d <= loD - m || d >= hiD + m) continue;
            if (config_.isolation == SchedulerConfig::Isolation::Presence) {
              // arrB + d >= depA + La + m  OR  arrA >= depB + d + Lb + m
              emitOr(solver_->leq(depA, arrVarB, d + arrOffB - La - m),
                     solver_->leq(depB, arrVarA, -d + arrOffA - Lb - m));
            } else {
              // ord := arrA - arrB <= d (A arrives no later than B's
              // d-shifted occurrence).
              const smt::Lit ord =
                  solver_->leq(arrVarA, arrVarB, d + arrOffB - arrOffA);
              // ord  -> depA + La <= depB + d
              emitOr(~ord, solver_->leq(depA, depB, d - La));
              // !ord -> depB + d + Lb <= depA
              emitOr(ord, solver_->leq(depB, depA, -d - Lb));
            }
          }
        }
      }
    }
  }
}

smt::Result ScheduleSmt::solve() {
  if (config_.conflictBudget >= 0) {
    solver_->setConflictBudget(config_.conflictBudget);
  }
  return solver_->solve();
}

smt::Lit ScheduleSmt::addFlowspanCap(std::int64_t capTu) {
  const smt::Lit g = solver_->boolVar();
  guard_ = g;
  for (const ExpandedStream& s : streams_) {
    for (int hop = 0; hop < s.hops(); ++hop) {
      const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
      for (int j = 0; j < frames; ++j) {
        emit(solver_->le(phi(s.id, hop, j), capTu - frameLenTu(s, hop, j)));
      }
    }
  }
  guard_ = smt::kLitUndef;
  return g;
}

std::vector<Slot> ScheduleSmt::extractSlots() const {
  std::vector<Slot> slots;
  for (const ExpandedStream& s : streams_) {
    for (int hop = 0; hop < s.hops(); ++hop) {
      const int frames = s.framesOnLink[static_cast<std::size_t>(hop)];
      for (int j = 0; j < frames; ++j) {
        Slot slot;
        slot.stream = s.id;
        slot.hop = hop;
        slot.frameIndex = j;
        slot.start = solver_->value(phi(s.id, hop, j)) * tu_;
        slot.duration = frameLenTu(s, hop, j) * tu_;
        slots.push_back(slot);
      }
    }
  }
  return slots;
}

GapProbeResult probeOptimalityGap(const net::Topology& topo,
                                  const std::vector<ExpandedStream>& streams,
                                  const SchedulerConfig& config,
                                  std::int64_t heuristicFlowspanTu,
                                  std::int64_t conflictBudgetPerSolve) {
  GapProbeResult out;
  out.heuristicTu = heuristicFlowspanTu;

  ScheduleSmt smt(topo, streams, config);
  smt.buildConstraints();
  // The budget applies per solve() call, so one setting bounds every probe.
  if (conflictBudgetPerSolve >= 0) {
    smt.solver().setConflictBudget(conflictBudgetPerSolve);
  }

  const smt::Result base = smt.solver().solve();
  ++out.solves;
  if (base == smt::Result::Unknown) return out;  // uncertified
  out.feasibilityCertified = true;
  if (base == smt::Result::Unsat) {
    out.infeasible = true;
    return out;
  }

  // Binary search the smallest feasible flowspan.  Invariant: caps <= lo
  // are Unsat (lo = 0 holds structurally: every slot has positive length),
  // cap hi is Sat.  The model just found gives the initial upper bound.
  std::int64_t modelSpan = 0;
  for (const Slot& slot : smt.extractSlots()) {
    modelSpan = std::max(modelSpan, (slot.start + slot.duration) / smt.tu());
  }
  std::int64_t lo = 0;
  std::int64_t hi = heuristicFlowspanTu > 0
                        ? std::min(modelSpan, heuristicFlowspanTu)
                        : modelSpan;
  bool complete = true;
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    const smt::Lit cap = smt.addFlowspanCap(mid);
    const std::array<smt::Lit, 1> assume = {cap};
    const smt::Result r = smt.solver().solve(assume);
    ++out.solves;
    if (r == smt::Result::Sat) {
      hi = mid;
    } else if (r == smt::Result::Unsat) {
      lo = mid;
    } else {
      complete = false;  // budget hit: keep the bound proven so far
      break;
    }
  }
  // Complete searches converge to hi == lo + 1 (the optimum); a partial
  // search still certified "no schedule with flowspan <= lo".
  out.lowerBoundTu = lo + 1;
  out.gapCertified = complete;
  if (out.lowerBoundTu > 0 && heuristicFlowspanTu > 0) {
    out.gapPercent = 100.0 *
                     static_cast<double>(heuristicFlowspanTu -
                                         out.lowerBoundTu) /
                     static_cast<double>(out.lowerBoundTu);
  }
  return out;
}

}  // namespace etsn::sched
