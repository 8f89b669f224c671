#include "smt/sat.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace etsn::smt {

SatSolver::SatSolver() = default;

BVar SatSolver::newVar() {
  const BVar v = static_cast<BVar>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  varData_.push_back({});
  polarity_.push_back(1);  // default phase: false
  activity_.push_back(0.0);
  heapPos_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heapInsert(v);
  return v;
}

bool SatSolver::addClause(std::span<const Lit> lits) {
  cancelUntil(0);  // clauses are added at the root level
  if (!ok_) return false;

  // Sort, dedupe, drop falsified literals, detect tautologies/satisfied.
  std::vector<Lit> ps(lits.begin(), lits.end());
  std::sort(ps.begin(), ps.end());
  std::vector<Lit> out;
  Lit prev = kLitUndef;
  for (Lit p : ps) {
    ETSN_CHECK(var(p) >= 0 && var(p) < numVars());
    if (value(p) == LBool::True || p == ~prev) return true;  // satisfied/taut
    if (value(p) != LBool::False && p != prev) {
      out.push_back(p);
      prev = p;
    }
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    if (!enqueue(out[0], kCRefUndef)) ok_ = false;
    return ok_;
  }
  const CRef cref = arena_.alloc(out, /*learnt=*/false);
  clauses_.push_back(cref);
  attachClause(cref);
  return true;
}

void SatSolver::attachClause(CRef cref) {
  const Clause& c = arena_[cref];
  ETSN_CHECK(c.size() >= 2);
  watches_[toIdx(~c[0])].push_back({cref, c[1]});
  watches_[toIdx(~c[1])].push_back({cref, c[0]});
}

void SatSolver::detachClause(CRef cref) {
  const Clause& c = arena_[cref];
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[toIdx(~c[static_cast<std::uint32_t>(i)])];
    auto it = std::find_if(ws.begin(), ws.end(),
                           [&](const Watcher& w) { return w.cref == cref; });
    ETSN_CHECK(it != ws.end());
    *it = ws.back();
    ws.pop_back();
  }
}

void SatSolver::uncheckedEnqueue(Lit l, CRef reason) {
  ETSN_CHECK(value(l) == LBool::Undef);
  assigns_[var(l)] = lboolOf(!sign(l));
  varData_[var(l)] = {reason, decisionLevel()};
  trail_.push_back(l);
}

bool SatSolver::enqueue(Lit l, CRef reason) {
  if (value(l) == LBool::True) return true;
  if (value(l) == LBool::False) return false;
  uncheckedEnqueue(l, reason);
  return true;
}

void SatSolver::cancelUntil(int level) {
  if (decisionLevel() <= level) return;
  const int newSize = trailLim_[level];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= newSize; --i) {
    const Lit l = trail_[static_cast<std::size_t>(i)];
    const BVar v = var(l);
    if (i < thQhead_ && theory_ != nullptr && theory_->isTheoryVar(v)) {
      theory_->undo(l);
    }
    assigns_[v] = LBool::Undef;
    polarity_[v] = static_cast<char>(sign(l));
    if (!heapContains(v)) heapInsert(v);
  }
  trail_.resize(static_cast<std::size_t>(newSize));
  trailLim_.resize(static_cast<std::size_t>(level));
  qhead_ = newSize;
  thQhead_ = std::min(thQhead_, newSize);
}

CRef SatSolver::propagate() {
  while (qhead_ < static_cast<int>(trail_.size())) {
    const Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    ++stats_.propagations;
    auto& ws = watches_[toIdx(p)];
    std::size_t i = 0, j = 0;
    const std::size_t n = ws.size();
    while (i < n) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = arena_[w.cref];
      // Normalize so the false literal (~p) is at position 1.
      const Lit notP = ~p;
      if (c[0] == notP) {
        c[0] = c[1];
        c[1] = notP;
      }
      ETSN_CHECK(c[1] == notP);
      ++i;
      const Lit first = c[0];
      if (first != w.blocker && value(first) == LBool::True) {
        ws[j++] = {w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool foundWatch = false;
      for (std::uint32_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != LBool::False) {
          c[1] = c[k];
          c[k] = notP;
          watches_[toIdx(~c[1])].push_back({w.cref, first});
          foundWatch = true;
          break;
        }
      }
      if (foundWatch) continue;
      // Clause is unit or conflicting.
      ws[j++] = {w.cref, first};
      if (value(first) == LBool::False) {
        // Conflict: copy remaining watchers and bail out.
        while (i < n) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = static_cast<int>(trail_.size());
        return w.cref;
      }
      uncheckedEnqueue(first, w.cref);
    }
    ws.resize(j);
  }
  return kCRefUndef;
}

CRef SatSolver::theoryPropagate() {
  if (theory_ == nullptr) {
    thQhead_ = static_cast<int>(trail_.size());
    return kCRefUndef;
  }
  while (thQhead_ < static_cast<int>(trail_.size())) {
    const Lit l = trail_[static_cast<std::size_t>(thQhead_)];
    if (!theory_->isTheoryVar(var(l))) {
      ++thQhead_;
      continue;
    }
    ++stats_.theoryAssertions;
    theoryExplanation_.clear();
    const bool okAssert = theory_->assertLit(l, theoryExplanation_);
    ++thQhead_;  // the theory holds the (inconsistent) assertion; undo via
                 // cancelUntil after conflict analysis
    if (okAssert) continue;
    ++stats_.theoryConflicts;
    return learnTheoryLemma();
  }
  return kCRefUndef;
}

CRef SatSolver::learnTheoryLemma(Lit implied) {
  // At least one explanation literal must be false.
  std::vector<Lit> lemma;
  lemma.reserve(theoryExplanation_.size());
  for (Lit e : theoryExplanation_) {
    ETSN_CHECK_MSG(value(e) == LBool::True || ~e == implied,
                   "theory explanation literal must be asserted");
    lemma.push_back(~e);
  }
  std::sort(lemma.begin(), lemma.end());
  lemma.erase(std::unique(lemma.begin(), lemma.end()), lemma.end());
  ETSN_CHECK_MSG(lemma.size() >= 2, "degenerate theory lemma");
  const auto levelBelow = [&](Lit a, Lit b) {
    return varData_[var(a)].level < varData_[var(b)].level;
  };
  if (implied == kLitUndef) {
    // Conflicting: watch the two most recently assigned literals so the
    // clause behaves like a regular learnt clause after backjumping.
    std::stable_sort(lemma.begin(), lemma.end(),
                     [&](Lit a, Lit b) { return levelBelow(b, a); });
  } else {
    // Asserting, laid out as analyze() lays out a learnt clause: the
    // implied literal at index 0, the highest-level one of the rest at 1.
    const auto it = std::find(lemma.begin(), lemma.end(), implied);
    ETSN_CHECK_MSG(it != lemma.end(), "refutation must explain its literal");
    std::swap(lemma[0], *it);
    std::swap(lemma[1],
              *std::max_element(lemma.begin() + 1, lemma.end(), levelBelow));
  }
  const CRef cref = arena_.alloc(lemma, /*learnt=*/true);
  learnts_.push_back(cref);
  ++stats_.learnt;
  attachClause(cref);
  return cref;
}

void SatSolver::varBumpActivity(BVar v) {
  activity_[v] += varInc_;
  if (activity_[v] > 1e100) rescaleVarActivity();
  if (heapContains(v)) heapUpdateUp(v);
}

void SatSolver::rescaleVarActivity() {
  for (double& a : activity_) a *= 1e-100;
  varInc_ *= 1e-100;
}

void SatSolver::claBumpActivity(Clause& c) {
  const float a = c.activity() + claInc_;
  c.setActivity(a);
  if (a > 1e20f) {
    for (CRef r : learnts_) {
      Clause& lc = arena_[r];
      if (!lc.deleted()) lc.setActivity(lc.activity() * 1e-20f);
    }
    claInc_ *= 1e-20f;
  }
}

void SatSolver::analyze(CRef confl, std::vector<Lit>& outLearnt,
                        int& outBtLevel) {
  int pathC = 0;
  Lit p = kLitUndef;
  outLearnt.clear();
  outLearnt.push_back(kLitUndef);  // placeholder for the asserting literal
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    ETSN_CHECK(confl != kCRefUndef);
    Clause& c = arena_[confl];
    if (c.learnt()) claBumpActivity(c);
    for (std::uint32_t k = (p == kLitUndef) ? 0 : 1; k < c.size(); ++k) {
      const Lit q = c[k];
      const BVar v = var(q);
      if (seen_[static_cast<std::size_t>(v)] || varData_[v].level == 0)
        continue;
      seen_[static_cast<std::size_t>(v)] = 1;
      varBumpActivity(v);
      if (varData_[v].level >= decisionLevel()) {
        ++pathC;
      } else {
        outLearnt.push_back(q);
      }
    }
    // Find the next clause to look at.
    while (!seen_[static_cast<std::size_t>(
        var(trail_[static_cast<std::size_t>(index)]))]) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    confl = varData_[var(p)].reason;
    seen_[static_cast<std::size_t>(var(p))] = 0;
    --pathC;
  } while (pathC > 0);
  outLearnt[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest.
  analyzeToClear_ = outLearnt;
  std::uint32_t abstractLevels = 0;
  for (std::size_t i = 1; i < outLearnt.size(); ++i) {
    abstractLevels |= 1u << (static_cast<std::uint32_t>(
                                 varData_[var(outLearnt[i])].level) &
                             31u);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < outLearnt.size(); ++i) {
    const Lit l = outLearnt[i];
    if (varData_[var(l)].reason == kCRefUndef ||
        !litRedundant(l, abstractLevels)) {
      outLearnt[keep++] = l;
    }
  }
  outLearnt.resize(keep);
  for (Lit l : analyzeToClear_) seen_[static_cast<std::size_t>(var(l))] = 0;

  // Compute backtrack level: highest level among the non-asserting lits.
  if (outLearnt.size() == 1) {
    outBtLevel = 0;
  } else {
    std::size_t maxI = 1;
    for (std::size_t i = 2; i < outLearnt.size(); ++i) {
      if (varData_[var(outLearnt[i])].level >
          varData_[var(outLearnt[maxI])].level) {
        maxI = i;
      }
    }
    std::swap(outLearnt[1], outLearnt[maxI]);
    outBtLevel = varData_[var(outLearnt[1])].level;
  }
}

bool SatSolver::litRedundant(Lit l, std::uint32_t abstractLevels) {
  analyzeStack_.clear();
  analyzeStack_.push_back(l);
  const std::size_t top = analyzeToClear_.size();
  while (!analyzeStack_.empty()) {
    const Lit q = analyzeStack_.back();
    analyzeStack_.pop_back();
    ETSN_CHECK(varData_[var(q)].reason != kCRefUndef);
    const Clause& c = arena_[varData_[var(q)].reason];
    for (std::uint32_t k = 1; k < c.size(); ++k) {
      const Lit r = c[k];
      const BVar v = var(r);
      if (seen_[static_cast<std::size_t>(v)] || varData_[v].level == 0)
        continue;
      const std::uint32_t levelBit =
          1u << (static_cast<std::uint32_t>(varData_[v].level) & 31u);
      if (varData_[v].reason != kCRefUndef && (levelBit & abstractLevels)) {
        seen_[static_cast<std::size_t>(v)] = 1;
        analyzeStack_.push_back(r);
        analyzeToClear_.push_back(r);
      } else {
        // Not removable: undo the marks made during this probe.
        for (std::size_t i = top; i < analyzeToClear_.size(); ++i) {
          seen_[static_cast<std::size_t>(var(analyzeToClear_[i]))] = 0;
        }
        analyzeToClear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void SatSolver::recordLearnt(const std::vector<Lit>& learnt, int btLevel) {
  cancelUntil(btLevel);
  if (learnt.size() == 1) {
    uncheckedEnqueue(learnt[0], kCRefUndef);
    return;
  }
  const CRef cref = arena_.alloc(learnt, /*learnt=*/true);
  learnts_.push_back(cref);
  ++stats_.learnt;
  attachClause(cref);
  claBumpActivity(arena_[cref]);
  uncheckedEnqueue(learnt[0], cref);
}

Lit SatSolver::pickBranchLit() {
  while (true) {
    if (heap_.empty()) return kLitUndef;
    const BVar v = heapRemoveMax();
    if (assigns_[v] == LBool::Undef) {
      return mkLit(v, polarity_[v] != 0);
    }
  }
}

void SatSolver::reduceDB() {
  // Keep the more active half; never delete reason clauses.
  std::vector<CRef> live;
  live.reserve(learnts_.size());
  for (CRef r : learnts_) {
    if (!arena_[r].deleted()) live.push_back(r);
  }
  std::sort(live.begin(), live.end(), [&](CRef a, CRef b) {
    return arena_[a].activity() < arena_[b].activity();
  });
  const std::size_t target = live.size() / 2;
  std::size_t removed = 0;
  std::vector<CRef> kept;
  kept.reserve(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    Clause& c = arena_[live[i]];
    const Lit first = c[0];
    const bool locked = varData_[var(first)].reason == live[i] &&
                        value(first) == LBool::True;
    if (removed < target && !locked && c.size() > 2) {
      detachClause(live[i]);
      c.markDeleted();
      ++removed;
    } else {
      kept.push_back(live[i]);
    }
  }
  learnts_ = std::move(kept);
}

std::int64_t SatSolver::luby(std::int64_t x) {
  // MiniSat's formulation: find the finite subsequence containing x.
  std::int64_t size = 1, seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return 1ll << seq;
}

Result SatSolver::solve(std::span<const Lit> assumptions) {
  if (!ok_) return Result::Unsat;
  cancelUntil(0);
  model_.clear();

  std::int64_t conflictsAtStart = stats_.conflicts;
  std::int64_t restartNum = 0;
  std::int64_t restartLimit = luby(restartNum) * kRestartBase;
  std::int64_t conflictsThisRestart = 0;
  std::size_t maxLearnts = std::max<std::size_t>(clauses_.size() / 3, 2000);

  for (;;) {
    CRef confl = propagate();
    if (confl == kCRefUndef) confl = theoryPropagate();
    if (confl != kCRefUndef) {
      ++stats_.conflicts;
      ++conflictsThisRestart;
      if (decisionLevel() == 0) {
        cancelUntil(0);
        return Result::Unsat;
      }
      std::vector<Lit> learnt;
      int btLevel = 0;
      analyze(confl, learnt, btLevel);
      recordLearnt(learnt, btLevel);
      varDecayActivity();
      claDecayActivity();
      if (conflictBudget_ >= 0 &&
          stats_.conflicts - conflictsAtStart >= conflictBudget_) {
        cancelUntil(0);
        return Result::Unknown;
      }
    } else {
      if (conflictsThisRestart >= restartLimit) {
        ++stats_.restarts;
        ++restartNum;
        restartLimit = luby(restartNum) * kRestartBase;
        conflictsThisRestart = 0;
        cancelUntil(0);
        continue;
      }
      if (learnts_.size() >= maxLearnts + trail_.size()) {
        reduceDB();
        maxLearnts = maxLearnts * 11 / 10;
      }
      Lit next = kLitUndef;
      while (decisionLevel() < static_cast<int>(assumptions.size())) {
        const Lit p = assumptions[static_cast<std::size_t>(decisionLevel())];
        if (value(p) == LBool::True) {
          newDecisionLevel();  // dummy level keeps indices aligned
        } else if (value(p) == LBool::False) {
          cancelUntil(0);
          return Result::Unsat;
        } else {
          next = p;
          break;
        }
      }
      const bool branching = next == kLitUndef;
      if (branching) {
        next = pickBranchLit();
        if (next == kLitUndef) {
          // Full assignment, theory-consistent: extract the model.
          model_.resize(static_cast<std::size_t>(2 * numVars()));
          for (BVar v = 0; v < numVars(); ++v) {
            model_[toIdx(mkLit(v))] = assigns_[v];
            model_[toIdx(~mkLit(v))] = assigns_[v] ^ true;
          }
          // The trail (and thus the theory state) is left intact so the
          // caller can snapshot the theory model; backtrackToRoot() or the
          // next solve() releases it.
          return Result::Sat;
        }
      }
      // An atom the asserted atoms already refute is implied false here,
      // not decided only to conflict and backjump.  The implied literal
      // sits at the level where the refutation was found.
      if (theory_ != nullptr && theory_->isTheoryVar(var(next))) {
        theoryExplanation_.clear();
        if (theory_->refutes(next, theoryExplanation_)) {
          if (branching) ++stats_.refutedPicks;
          uncheckedEnqueue(~next, learnTheoryLemma(~next));
          continue;
        }
      }
      if (branching) ++stats_.decisions;
      newDecisionLevel();
      stats_.maxDecisionLevel =
          std::max<std::int64_t>(stats_.maxDecisionLevel, decisionLevel());
      uncheckedEnqueue(next, kCRefUndef);
    }
  }
}

// --- order heap -------------------------------------------------------------

void SatSolver::heapInsert(BVar v) {
  ETSN_CHECK(!heapContains(v));
  heapPos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heapSiftUp(heapPos_[v]);
}

void SatSolver::heapUpdateUp(BVar v) { heapSiftUp(heapPos_[v]); }

BVar SatSolver::heapRemoveMax() {
  ETSN_CHECK(!heap_.empty());
  const BVar top = heap_[0];
  heap_[0] = heap_.back();
  heapPos_[heap_[0]] = 0;
  heap_.pop_back();
  heapPos_[top] = -1;
  if (!heap_.empty()) heapSiftDown(0);
  return top;
}

void SatSolver::heapSiftUp(int i) {
  const BVar v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (!heapLess(heap_[static_cast<std::size_t>(parent)], v)) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heapPos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapPos_[v] = i;
}

void SatSolver::heapSiftDown(int i) {
  const BVar v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  while (2 * i + 1 < n) {
    int child = 2 * i + 1;
    if (child + 1 < n && heapLess(heap_[static_cast<std::size_t>(child)],
                                  heap_[static_cast<std::size_t>(child + 1)])) {
      ++child;
    }
    if (!heapLess(v, heap_[static_cast<std::size_t>(child)])) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heapPos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapPos_[v] = i;
}

}  // namespace etsn::smt
