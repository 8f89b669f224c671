#include "sched/admission.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>

#include "common/check.h"
#include "common/math.h"

namespace etsn::sched {

namespace {

// Rip-up victims one placement pass may take before the request
// escalates to the full re-solve.
constexpr int kRipupBudget = 64;

// FNV-1a over typed fields; the one hash used for the state and schedule
// fingerprints, so equal content always collides on purpose.  The offset
// basis is FNV-1a's 14695981039346656037 with its last digit dropped; it
// stays, because every pinned scheduleHash derives from it.
struct Hasher {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

void hashSpec(Hasher& h, const net::StreamSpec& spec) {
  h.str(spec.name);
  h.i64(spec.src);
  h.i64(spec.dst);
  h.u64(spec.path.size());
  for (const net::LinkId l : spec.path) h.i64(l);
  h.i64(spec.maxLatency);
  h.i64(spec.priority);
  h.i64(spec.payloadBytes);
  h.i64(spec.period);
  h.i64(spec.releaseOffset);
  h.i64(static_cast<int>(spec.type));
  h.i64(spec.share ? 1 : 0);
  h.i64(spec.redundancy);
}

void hashStream(Hasher& h, const ExpandedStream& s) {
  // Deliberately excludes id and specId: both are history-dependent
  // (tombstones), while canonical behavior is fully determined by the
  // content below (Prob same-spec grouping is recoverable from names).
  h.str(s.name);
  h.i64(static_cast<int>(s.kind));
  h.i64(s.member);
  h.i64(s.priority);
  h.i64(s.share ? 1 : 0);
  h.i64(s.period);
  h.i64(s.maxLatency);
  h.i64(s.occurrence);
  h.u64(s.path.size());
  for (const net::LinkId l : s.path) h.i64(l);
  h.u64(s.framePayloads.size());
  for (const int p : s.framePayloads) h.i64(p);
  h.u64(s.framesOnLink.size());
  for (const int f : s.framesOnLink) h.i64(f);
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The live spec a Remove or Modify retires.
const std::string& targetOf(const AdmissionRequest& req) {
  return req.name.empty() ? req.spec.name : req.name;
}

/// Rung "idle"'s rejection reason: the stream, the constraint it misses,
/// the link, and the bound against the idle-network minimum.
std::string idleDetail(const net::Topology& topo, const ExpandedStream& s,
                       const PlacementMiss& miss, TimeNs tu) {
  const net::Link& l = topo.link(miss.link);
  const std::string link = "link " + std::to_string(miss.link) + " (" +
                           topo.node(l.from).name + "->" +
                           topo.node(l.to).name + ")";
  if (miss.constraint == PlacementMiss::Constraint::Latency) {
    return "stream '" + s.name + "' misses latency (4) on an idle network: " +
           "delivery over its last " + link + " ends " +
           formatTime(miss.value * tu) + " after release at the earliest, " +
           "bound " + formatTime(miss.bound * tu);
  }
  return "stream '" + s.name + "' misses its window (1)-(2) on an idle " +
         "network: frame " + std::to_string(miss.frame) + " on " + link +
         " starts at " + formatTime(miss.value * tu) +
         " at the earliest, bound " + formatTime(miss.bound * tu);
}

/// Rung "idle"'s reason for a clash: both streams, the link, and the
/// frame lengths against the gcd of the periods.
std::string clashDetail(const net::Topology& topo, const ExpandedStream& s,
                        const ExpandedStream& other,
                        const PlacementClash& clash, TimeNs tu) {
  const net::Link& l = topo.link(clash.link);
  return "stream '" + s.name + "' collides with stream '" + other.name +
         "' at every offset on link " + std::to_string(clash.link) + " (" +
         topo.node(l.from).name + "->" + topo.node(l.to).name +
         "): frames of " + formatTime(clash.len * tu) + " and " +
         formatTime(clash.otherLen * tu) + " outlast the " +
         formatTime(clash.gcd * tu) + " gcd of their periods";
}

std::uint64_t contentHashOf(const ExpandedStream& s) {
  Hasher h;
  hashStream(h, s);
  return h.h;
}

}  // namespace

std::uint64_t scheduleHash(const Schedule& s) {
  Hasher h;
  h.i64(s.info.feasible ? 1 : 0);
  h.u64(s.specs.size());
  for (const net::StreamSpec& spec : s.specs) hashSpec(h, spec);
  h.u64(s.streams.size());
  for (const ExpandedStream& st : s.streams) hashStream(h, st);
  h.u64(s.slots.size());
  for (const Slot& sl : s.slots) {
    h.i64(sl.stream);
    h.i64(sl.hop);
    h.i64(sl.frameIndex);
    h.i64(sl.start);
    h.i64(sl.duration);
  }
  return h.h;
}

AdmissionRequest addRequest(net::StreamSpec spec) {
  AdmissionRequest r;
  r.op = AdmissionRequest::Op::Add;
  r.spec = std::move(spec);
  return r;
}

AdmissionRequest removeRequest(std::string name) {
  AdmissionRequest r;
  r.op = AdmissionRequest::Op::Remove;
  r.name = std::move(name);
  return r;
}

AdmissionRequest modifyRequest(net::StreamSpec spec, std::string name) {
  AdmissionRequest r;
  r.op = AdmissionRequest::Op::Modify;
  r.spec = std::move(spec);
  r.name = std::move(name);
  return r;
}

AdmissionEngine::AdmissionEngine(const net::Topology& topo,
                                 std::vector<net::StreamSpec> initialSpecs,
                                 const SchedulerConfig& config,
                                 const AdmissionOptions& options)
    : topo_(topo), config_(config), opts_(options) {
  // The cursor carries on from the batch expansion, so later requests get
  // exactly the priorities a batch expansion in admission order would give.
  Expansion exp = expandStreams(topo_, initialSpecs, config_, cursor_);
  streams_ = std::move(exp.streams);
  for (const ExpandedStream& st : streams_) {
    contentHash_.push_back(contentHashOf(st));
  }
  liveStream_.assign(streams_.size(), 1);
  liveStreams_ = static_cast<int>(streams_.size());
  for (std::size_t i = 0; i < initialSpecs.size(); ++i) {
    net::StreamSpec& spec = initialSpecs[i];
    if (!liveByName_.emplace(spec.name, static_cast<int>(i)).second) {
      throw ConfigError("duplicate stream name '" + spec.name + "'");
    }
    specs_.push_back(SpecEntry{std::move(spec), true,
                               std::move(exp.specToStreams[i])});
    ++liveSpecs_;
  }

  placement_ = std::make_unique<Placement>(topo_, streams_, config_);
  // schedule() exports the hyperperiod in ns and cannot throw.
  ETSN_REQUIRE(placement_->hyperTu() <=
                   std::numeric_limits<std::int64_t>::max() / placement_->tu(),
               "the hyperperiod of the initial streams overflows int64 ns");
  // The initial solve commits like a re-solve: the solved Placement is
  // swapped in, and the empty one it replaces is the first scratch.
  Txn txn = beginTxn();
  feasible_ = tryFullResolve(txn);
  if (feasible_) scratch_ = std::move(txn.ops.back().placement);
}

// --- hashing ---------------------------------------------------------------

std::uint64_t AdmissionEngine::streamStateHash(StreamId id) const {
  // FNV-1a is sequential, so continuing from the cached content state
  // gives hashStream's value followed by the starts.
  Hasher h{contentHash_[static_cast<std::size_t>(id)]};
  if (id < placement_->trackedStreams() && placement_->isPlaced(id)) {
    const auto& st = placement_->startsOf(id);
    h.u64(st.size());
    for (const auto& hop : st) {
      h.u64(hop.size());
      for (const std::int64_t v : hop) h.i64(v);
    }
  } else {
    h.u64(0);
  }
  return h.h;
}

void AdmissionEngine::toggleHash(StreamId id) {
  stateHash_ ^= streamStateHash(id);
}

void AdmissionEngine::hashContent(StreamId id) {
  contentHash_[static_cast<std::size_t>(id)] =
      contentHashOf(streams_[static_cast<std::size_t>(id)]);
}

std::uint64_t AdmissionEngine::stateHash() const {
  Hasher h;
  h.u64(stateHash_);
  h.i64(cursor_.shared);
  h.i64(cursor_.nonShared);
  return h.h;
}

// --- op-logged mutation ----------------------------------------------------

void AdmissionEngine::doAppend(Txn& txn, std::vector<ExpandedStream> streams) {
  Op op;
  op.kind = Op::Kind::Append;
  op.stream = static_cast<StreamId>(streams_.size());
  op.count = static_cast<int>(streams.size());
  for (ExpandedStream& s : streams) {
    ETSN_CHECK(s.id == static_cast<StreamId>(streams_.size()));
    contentHash_.push_back(contentHashOf(s));
    streams_.push_back(std::move(s));
    liveStream_.push_back(1);
    ++liveStreams_;
    toggleHash(streams_.back().id);
  }
  txn.ops.push_back(std::move(op));
}

void AdmissionEngine::doRip(Txn& txn, StreamId id) {
  Op op;
  op.kind = Op::Kind::Rip;
  op.stream = id;
  op.starts = placement_->startsOf(id);  // copy before removal
  toggleHash(id);
  placement_->remove(id);
  toggleHash(id);
  txn.ops.push_back(std::move(op));
}

bool AdmissionEngine::doTryPlace(Txn& txn, StreamId id) {
  toggleHash(id);
  const bool ok = placement_->tryPlace(id);
  toggleHash(id);
  if (!ok) return false;
  Op op;
  op.kind = Op::Kind::Place;
  op.stream = id;
  txn.ops.push_back(std::move(op));
  return true;
}

void AdmissionEngine::doSwap(Txn& txn) {
  Op op;
  op.kind = Op::Kind::Swap;
  op.stateHash = stateHash_;
  // Only the streams whose placement changed change their hash.
  std::vector<StreamId> changed;
  for (StreamId id = 0; id < static_cast<StreamId>(streams_.size()); ++id) {
    const bool was = placement_->isPlaced(id);
    const bool now = scratch_->isPlaced(id);
    if (!was && !now) continue;
    if (was && now) {
      if (placement_->startsOf(id) == scratch_->startsOf(id)) continue;
      op.moved.push_back(id);
    }
    changed.push_back(id);
    toggleHash(id);
  }
  op.placement = std::move(placement_);
  placement_ = std::move(scratch_);
  for (const StreamId id : changed) toggleHash(id);
  ETSN_CHECK_MSG(placement_->numPlaced() == liveStreams_,
                 "a re-solve left a live stream unplaced or a dead one "
                 "placed");
  txn.ops.push_back(std::move(op));
}

void AdmissionEngine::doSetFrames(Txn& txn, StreamId id,
                                  std::vector<int> frames) {
  ETSN_CHECK_MSG(!placement_->isPlaced(id),
                 "rip a stream before changing its reservation grid");
  Op op;
  op.kind = Op::Kind::SetFrames;
  op.stream = id;
  op.frames = streams_[static_cast<std::size_t>(id)].framesOnLink;  // old
  toggleHash(id);
  streams_[static_cast<std::size_t>(id)].framesOnLink = std::move(frames);
  hashContent(id);
  toggleHash(id);
  txn.ops.push_back(std::move(op));
}

int AdmissionEngine::doSpecAdd(Txn& txn, net::StreamSpec spec) {
  const int idx = static_cast<int>(specs_.size());
  liveByName_.emplace(spec.name, idx);
  specs_.push_back(SpecEntry{std::move(spec), true, {}});
  ++liveSpecs_;
  Op op;
  op.kind = Op::Kind::SpecAdd;
  op.specIdx = idx;
  txn.ops.push_back(std::move(op));
  return idx;
}

void AdmissionEngine::doSpecKill(Txn& txn, int specIdx) {
  SpecEntry& e = specs_[static_cast<std::size_t>(specIdx)];
  ETSN_CHECK(e.live);
  for (const StreamId sid : e.streams) {
    if (placement_->isPlaced(sid)) doRip(txn, sid);
    toggleHash(sid);
    liveStream_[static_cast<std::size_t>(sid)] = 0;
    --liveStreams_;
  }
  e.live = false;
  liveByName_.erase(e.spec.name);
  --liveSpecs_;
  Op op;
  op.kind = Op::Kind::SpecKill;
  op.specIdx = specIdx;
  txn.ops.push_back(std::move(op));
}

void AdmissionEngine::rollback(Txn& txn, std::size_t mark) {
  while (txn.ops.size() > mark) {
    Op op = std::move(txn.ops.back());
    txn.ops.pop_back();
    switch (op.kind) {
      case Op::Kind::Append: {
        const std::size_t keep = streams_.size() -
                                 static_cast<std::size_t>(op.count);
        for (std::size_t i = keep; i < streams_.size(); ++i) {
          const StreamId id = static_cast<StreamId>(i);
          ETSN_CHECK(id >= placement_->trackedStreams() ||
                     !placement_->isPlaced(id));
          toggleHash(id);
        }
        // The scratch Placement may hold truncated streams: a re-solve
        // that gave up leaves its partial schedule there, and a Swap
        // rollback returns the swapped-in Placement to it.
        if (scratch_) scratch_->clear();
        streams_.resize(keep);
        liveStream_.resize(keep);
        contentHash_.resize(keep);
        liveStreams_ -= op.count;
        placement_->syncAppendedStreams();
        if (scratch_) scratch_->syncAppendedStreams();
        break;
      }
      case Op::Kind::Rip:
        toggleHash(op.stream);
        placement_->placeAt(op.stream, op.starts);
        toggleHash(op.stream);
        break;
      case Op::Kind::Place:
        toggleHash(op.stream);
        placement_->remove(op.stream);
        toggleHash(op.stream);
        break;
      case Op::Kind::SetFrames:
        toggleHash(op.stream);
        streams_[static_cast<std::size_t>(op.stream)].framesOnLink =
            std::move(op.frames);
        hashContent(op.stream);
        toggleHash(op.stream);
        break;
      case Op::Kind::Swap:
        // The swapped-in Placement becomes the scratch again, stale until
        // its next solve clears it.
        if (!scratch_) scratch_ = std::move(placement_);
        placement_ = std::move(op.placement);
        stateHash_ = op.stateHash;
        break;
      case Op::Kind::SpecAdd: {
        ETSN_CHECK(op.specIdx == static_cast<int>(specs_.size()) - 1);
        liveByName_.erase(specs_.back().spec.name);
        specs_.pop_back();
        --liveSpecs_;
        break;
      }
      case Op::Kind::SpecKill: {
        SpecEntry& e = specs_[static_cast<std::size_t>(op.specIdx)];
        e.live = true;
        liveByName_.emplace(e.spec.name, op.specIdx);
        ++liveSpecs_;
        for (const StreamId sid : e.streams) {
          liveStream_[static_cast<std::size_t>(sid)] = 1;
          ++liveStreams_;
          toggleHash(sid);
        }
        break;
      }
    }
  }
  if (mark == 0) {
    cursor_ = txn.cursor;
    ETSN_CHECK_MSG(stateHash_ == txn.stateHash &&
                       liveSpecs_ == txn.liveSpecs &&
                       liveStreams_ == txn.liveStreams,
                   "admission rollback did not restore the schedule exactly");
  }
}

AdmissionEngine::Txn AdmissionEngine::beginTxn() const {
  Txn txn;
  txn.stateHash = stateHash_;
  txn.cursor = cursor_;
  txn.liveSpecs = liveSpecs_;
  txn.liveStreams = liveStreams_;
  return txn;
}

// --- expansion / prudent reservation ---------------------------------------

std::vector<StreamId> AdmissionEngine::appendSpec(
    Txn& txn, const net::StreamSpec& spec) {
  const int specIdx = doSpecAdd(txn, spec);
  const StreamId firstId = static_cast<StreamId>(streams_.size());
  std::vector<ExpandedStream> fresh =
      expandSpec(topo_, spec, specIdx, firstId, config_, cursor_);
  if (spec.type == net::TrafficClass::TimeTriggered && spec.share) {
    const std::vector<EctGroup> ect = liveEctGroups();
    for (ExpandedStream& s : fresh) {
      s.framesOnLink = prudentFrames(topo_, s, ect, config_);
    }
  }

  // Grid check before the streams enter the Placement: a uniform tu
  // (expandSpec already put the period on every link's grid).
  const TimeNs tu = placement_->tu();
  for (const ExpandedStream& s : fresh) {
    for (const net::LinkId l : s.path) {
      if (topo_.link(l).timeUnit != tu) {
        throw ConfigError(
            "stream '" + spec.name +
            "' uses a link time unit different from the schedule's");
      }
    }
  }
  // schedule() exports the live hyperperiod in ns and cannot throw, so an
  // Add that would overflow it is malformed.  The Placement's hyperperiod
  // spans every stream it has tracked, a multiple of the live one, so the
  // live one is computed only when that bound overflows.
  std::optional<std::int64_t> boundTu =
      std::max<std::int64_t>(placement_->hyperTu(), 1);
  for (const ExpandedStream& s : fresh) {
    if (boundTu) boundTu = tryLcm64(*boundTu, s.period / tu);
  }
  if (!boundTu || *boundTu > std::numeric_limits<std::int64_t>::max() / tu) {
    std::optional<std::int64_t> live = 1;
    for (std::size_t i = 0; i < streams_.size() && live; ++i) {
      if (liveStream_[i]) live = tryLcm64(*live, streams_[i].period);
    }
    for (const ExpandedStream& s : fresh) {
      if (live) live = tryLcm64(*live, s.period);
    }
    ETSN_REQUIRE(live, "stream '" << spec.name
                                  << "' makes the hyperperiod overflow "
                                     "int64 ns");
  }
  const int count = static_cast<int>(fresh.size());
  doAppend(txn, std::move(fresh));
  std::vector<StreamId>& ids =
      specs_[static_cast<std::size_t>(specIdx)].streams;
  for (int k = 0; k < count; ++k) ids.push_back(firstId + k);
  // A widened hyperperiod stays widened if the request is later
  // rejected: placements are invariant to it.
  placement_->syncAppendedStreams();
  return ids;
}

std::vector<EctGroup> AdmissionEngine::liveEctGroups() const {
  std::vector<EctGroup> out;
  for (const SpecEntry& e : specs_) {
    if (!e.live || e.spec.type != net::TrafficClass::EventTriggered) continue;
    // A spec's streams are appended together, so their ids are contiguous.
    ETSN_CHECK(!e.streams.empty());
    collectEctGroups(std::span<const ExpandedStream>(streams_).subspan(
                         static_cast<std::size_t>(e.streams.front()),
                         e.streams.size()),
                     out);
  }
  return out;
}

std::vector<StreamId> AdmissionEngine::regrid(
    Txn& txn, const std::vector<StreamId>& ectStreams) {
  std::vector<net::LinkId> links;
  for (const StreamId sid : ectStreams) {
    const ExpandedStream& s = streams_[static_cast<std::size_t>(sid)];
    links.insert(links.end(), s.path.begin(), s.path.end());
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());

  const std::vector<EctGroup> ect = liveEctGroups();
  std::vector<std::pair<StreamId, std::vector<int>>> changed;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (!liveStream_[i]) continue;
    const ExpandedStream& s = streams_[i];
    if (s.kind != StreamKind::Det || !s.share) continue;
    const bool touches =
        std::any_of(s.path.begin(), s.path.end(), [&](net::LinkId l) {
          return std::binary_search(links.begin(), links.end(), l);
        });
    if (!touches) continue;
    std::vector<int> frames = prudentFrames(topo_, s, ect, config_);
    if (frames != s.framesOnLink) {
      changed.emplace_back(static_cast<StreamId>(i), std::move(frames));
    }
  }
  std::sort(changed.begin(), changed.end(), [&](const auto& a, const auto& b) {
    return streams_[static_cast<std::size_t>(a.first)].name <
           streams_[static_cast<std::size_t>(b.first)].name;
  });
  std::vector<StreamId> out;
  for (auto& [sid, frames] : changed) {
    doRip(txn, sid);
    doSetFrames(txn, sid, std::move(frames));
    out.push_back(sid);
  }
  return out;
}

// --- ladder ----------------------------------------------------------------

bool AdmissionEngine::placeSlice(Txn& txn, std::vector<StreamId> queue,
                                 std::string* rung) {
  const std::size_t mark = txn.ops.size();
  auto byName = [&](StreamId a, StreamId b) {
    return streams_[static_cast<std::size_t>(a)].name <
           streams_[static_cast<std::size_t>(b)].name;
  };
  std::sort(queue.begin(), queue.end(), byName);
  int budgetLeft = kRipupBudget;
  bool ripped = false;
  while (!queue.empty()) {
    const StreamId s = queue.front();
    queue.erase(queue.begin());
    if (doTryPlace(txn, s)) continue;
    bool placed = false;
    while (budgetLeft > 0) {
      const net::LinkId blocked = placement_->lastFailedLink();
      if (blocked == net::kNoLink) break;
      const std::vector<StreamId> cands =
          placement_->conflictCandidates(s, blocked);
      if (cands.empty()) break;
      // Canonical victim: lexicographically smallest stream name (never
      // ids or place epochs — both are history-dependent).
      const StreamId victim =
          *std::min_element(cands.begin(), cands.end(), byName);
      doRip(txn, victim);
      ripped = true;
      --budgetLeft;
      queue.insert(
          std::upper_bound(queue.begin(), queue.end(), victim, byName),
          victim);
      if (doTryPlace(txn, s)) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      rollback(txn, mark);
      return false;
    }
  }
  *rung = ripped ? "ripup" : "delta";
  txn.usedDelta = true;
  return true;
}

bool AdmissionEngine::solveLive() {
  if (scratch_) {
    scratch_->syncAppendedStreams();
  } else {
    scratch_ = std::make_unique<Placement>(topo_, streams_, config_);
  }
  std::vector<StreamId> live;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (liveStream_[i]) live.push_back(static_cast<StreamId>(i));
  }
  return runPortfolio(*scratch_, live, opts_.portfolio).feasible;
}

bool AdmissionEngine::tryFullResolve(Txn& txn) {
  txn.usedResolve = true;
  if (!solveLive()) return false;
  doSwap(txn);
  return true;
}

// --- request processing ----------------------------------------------------

bool AdmissionEngine::processAdd(const net::StreamSpec& spec, Txn& txn,
                                 std::string* rung, std::string* detail) {
  if (liveByName_.count(spec.name) != 0) {
    *rung = "invalid";
    *detail = "a live stream named '" + spec.name + "' already exists";
    return false;
  }
  // appendSpec throws ConfigError on malformed specs; request() turns that
  // into an "invalid" rejection after rolling the txn back.
  const std::vector<StreamId> newIds = appendSpec(txn, spec);
  std::vector<StreamId> slice = newIds;
  if (spec.type == net::TrafficClass::EventTriggered) {
    // Prudent reservation: the new ECT enlarges the grids of shared TCT
    // streams on every link it crosses; rip and re-place those too.
    for (const StreamId sid : regrid(txn, newIds)) slice.push_back(sid);
  }
  // A slice stream that misses on the idle network misses in every
  // placement state, so neither rung 2's rip-ups nor rung 3's re-solve
  // could admit the request: reject it before either runs.
  for (const StreamId sid : slice) {
    if (const auto miss = placement_->idleMiss(sid)) {
      *rung = "idle";
      *detail = idleDetail(topo_, streams_[static_cast<std::size_t>(sid)],
                           *miss, placement_->tu());
      return false;
    }
  }
  // Nor can any state admit a slice stream with a frame that collides at
  // every offset with a frame placed on its path: every admitting state
  // places both.
  for (const StreamId sid : slice) {
    if (const auto clash = placement_->clash(sid)) {
      *rung = "idle";
      *detail = clashDetail(
          topo_, streams_[static_cast<std::size_t>(sid)],
          streams_[static_cast<std::size_t>(clash->other)], *clash,
          placement_->tu());
      return false;
    }
  }

  if (placeSlice(txn, std::move(slice), rung)) return true;
  *rung = "resolve";
  if (tryFullResolve(txn)) return true;
  *detail = "no feasible schedule admits stream '" + spec.name +
            "' (full portfolio re-solve failed)";
  return false;
}

bool AdmissionEngine::processRemove(const std::string& name, Txn& txn,
                                    std::string* rung, std::string* detail) {
  const auto it = liveByName_.find(name);
  if (it == liveByName_.end()) {
    *rung = "invalid";
    *detail = "no live stream named '" + name + "'";
    return false;
  }
  const int specIdx = it->second;
  const SpecEntry& e = specs_[static_cast<std::size_t>(specIdx)];
  doSpecKill(txn, specIdx);

  std::vector<StreamId> slice;
  if (e.spec.type == net::TrafficClass::EventTriggered) {
    // Shrink the prudent reservations the departed ECT was responsible
    // for; the affected shared streams re-place on their tighter grids.
    slice = regrid(txn, e.streams);
  }
  if (placeSlice(txn, std::move(slice), rung)) return true;
  *rung = "resolve";
  if (tryFullResolve(txn)) return true;
  *detail = "could not re-place shrunken reservations after removing '" +
            name + "'";
  return false;
}

AdmissionDecision AdmissionEngine::decide(const AdmissionRequest& req,
                                          Txn& txn) {
  AdmissionDecision d;
  std::string rung = "invalid";
  std::string detail;
  bool ok = false;
  switch (req.op) {
    case AdmissionRequest::Op::Add:
      ok = processAdd(req.spec, txn, &rung, &detail);
      break;
    case AdmissionRequest::Op::Remove:
      ok = processRemove(targetOf(req), txn, &rung, &detail);
      break;
    case AdmissionRequest::Op::Modify:
      // Atomic remove + add: if the add is rejected, the txn rollback
      // resurrects the removed spec, so a failed modify changes nothing.
      ok = processRemove(targetOf(req), txn, &rung, &detail);
      if (ok) ok = processAdd(req.spec, txn, &rung, &detail);
      break;
  }
  d.admitted = ok;
  d.rung = rung;
  d.detail = detail;
  if (ok) {
    std::vector<StreamId> moved;
    for (const Op& op : txn.ops) {
      if (op.kind == Op::Kind::Rip) moved.push_back(op.stream);
      moved.insert(moved.end(), op.moved.begin(), op.moved.end());
    }
    std::sort(moved.begin(), moved.end());
    moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
    for (const StreamId sid : moved) {
      if (liveStream_[static_cast<std::size_t>(sid)]) ++d.movedStreams;
    }
  }
  return d;
}

// --- public entry points ---------------------------------------------------

AdmissionDecision AdmissionEngine::request(const AdmissionRequest& req) {
  if (!feasible_) {
    throw ConfigError(
        "admission engine: the base schedule is infeasible; nothing to "
        "admit against");
  }
  const auto t0 = std::chrono::steady_clock::now();
  ++counters_.requests;
  Txn txn = beginTxn();
  AdmissionDecision d;
  try {
    d = decide(req, txn);
  } catch (const ConfigError& err) {
    // Input-derived: reject as "invalid"; the rollback below restores
    // whatever the partial transaction already changed.
    d = AdmissionDecision{};
    d.rung = "invalid";
    d.detail = err.what();
  } catch (...) {
    // Anything else is an internal invariant failure — surface it, but
    // never with a half-applied transaction behind it: unwind first so
    // the engine's state stays consistent for the caller.
    rollback(txn);
    throw;
  }
  // Rung usage is counted once per request: a Modify runs the ladder
  // for both of its phases, but that is still one delta-solved request.
  if (txn.usedDelta) ++counters_.deltaSolves;
  if (txn.usedResolve) ++counters_.fullResolves;
  if (d.admitted) {
    ++counters_.admits;
    // A Placement a re-solve replaced is the next re-solve's scratch.
    for (Op& op : txn.ops) {
      if (!scratch_ && op.placement) scratch_ = std::move(op.placement);
    }
  } else {
    ++counters_.rejects;
    rollback(txn);
  }
  d.seconds = secondsSince(t0);
  return d;
}

Schedule AdmissionEngine::schedule() const {
  Schedule out;
  out.config = config_;
  std::vector<StreamId> outId(streams_.size(), -1);
  std::vector<std::int64_t> periods;
  for (const SpecEntry& e : specs_) {
    if (!e.live) continue;
    const std::int32_t outSpec = static_cast<std::int32_t>(out.specs.size());
    out.specs.push_back(e.spec);
    out.specToStreams.emplace_back();
    for (const StreamId sid : e.streams) {
      ExpandedStream c = streams_[static_cast<std::size_t>(sid)];
      c.id = static_cast<StreamId>(out.streams.size());
      c.specId = outSpec;
      outId[static_cast<std::size_t>(sid)] = c.id;
      out.specToStreams.back().push_back(c.id);
      periods.push_back(c.period);
      out.streams.push_back(std::move(c));
    }
  }
  // Engine ids grow in admission order, so renumbering keeps the slots in
  // canonical (stream, hop, frame) order.  Only live streams are placed.
  out.slots = placement_->slots();
  for (Slot& sl : out.slots) {
    sl.stream = outId[static_cast<std::size_t>(sl.stream)];
  }
  if (!periods.empty()) out.hyperperiod = lcmAll(periods);
  out.info.feasible = feasible_;
  out.info.engine = "admission";
  out.info.admission = counters_;
  return out;
}

}  // namespace etsn::sched
