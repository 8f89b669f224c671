// CDCL SAT core with DPLL(T) theory integration.
//
// A compact MiniSat-lineage solver: two-watched-literal propagation, 1UIP
// conflict analysis with clause minimization, VSIDS decision heuristic with
// phase saving, Luby restarts, activity-based learnt-clause reduction, and
// solving under assumptions.  A Theory (smt/theory.h) is asserted lazily at
// each propagation fixpoint; theory conflicts are learned as clauses.  Before
// a theory literal is decided, the theory is asked whether the asserted atoms
// already refute it; if so its negation is implied at the current level,
// with the refutation lemma as its reason, and no level is opened.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smt/clause.h"
#include "smt/literal.h"
#include "smt/theory.h"

namespace etsn::smt {

enum class Result { Sat, Unsat, Unknown };

struct SatStats {
  std::int64_t decisions = 0;  // decision levels opened by branching
  std::int64_t refutedPicks = 0;  // branching picks the theory implied false
  std::int64_t propagations = 0;
  std::int64_t conflicts = 0;
  std::int64_t theoryConflicts = 0;
  std::int64_t theoryAssertions = 0;
  std::int64_t learnt = 0;
  std::int64_t restarts = 0;
  std::int64_t maxDecisionLevel = 0;
};

class SatSolver {
 public:
  SatSolver();

  /// Attach the background theory (optional; pure SAT without it).  Must be
  /// called before any theory atoms are assigned.
  void setTheory(Theory* t) { theory_ = t; }

  BVar newVar();
  int numVars() const { return static_cast<int>(assigns_.size()); }

  /// Add a clause (empty → trivially UNSAT; unit → top-level assignment).
  /// Returns false if the solver became top-level inconsistent.
  bool addClause(std::span<const Lit> lits);
  bool addClause(std::initializer_list<Lit> lits) {
    return addClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  Result solve() { return solve({}); }
  Result solve(std::span<const Lit> assumptions);

  /// Value in the satisfying assignment (only valid after Result::Sat).
  LBool modelValue(Lit l) const { return model_[toIdx(l)]; }
  LBool modelValue(BVar v) const { return model_[toIdx(mkLit(v))]; }

  /// Current (partial) assignment; used by the theory for sanity checks.
  LBool value(Lit l) const { return assigns_[var(l)] ^ sign(l); }

  /// Stop after this many conflicts (<0 = no budget).
  void setConflictBudget(std::int64_t budget) { conflictBudget_ = budget; }

  /// Undo all assignments above the root level.  After Result::Sat the
  /// trail is kept so the theory model can be read; call this (or solve()
  /// again) once the model has been snapshotted.
  void backtrackToRoot() { cancelUntil(0); }

  const SatStats& stats() const { return stats_; }

 private:
  struct Watcher {
    CRef cref;
    Lit blocker;
  };
  struct VarData {
    CRef reason = kCRefUndef;
    int level = 0;
  };

  // --- assignment & trail ------------------------------------------------
  int decisionLevel() const { return static_cast<int>(trailLim_.size()); }
  void newDecisionLevel() { trailLim_.push_back(static_cast<int>(trail_.size())); }
  void uncheckedEnqueue(Lit l, CRef reason);
  bool enqueue(Lit l, CRef reason);
  void cancelUntil(int level);

  // --- propagation & analysis --------------------------------------------
  CRef propagate();
  /// Assert pending trail literals to the theory.  On conflict, allocates a
  /// theory lemma clause and returns its CRef; kCRefUndef otherwise.
  CRef theoryPropagate();
  /// Learn and attach the lemma "not all of theoryExplanation_".  With
  /// `implied` (the lemma's one unassigned literal) it is the reason of
  /// that literal, which sits at index 0; otherwise it is a conflict.
  CRef learnTheoryLemma(Lit implied = kLitUndef);
  void analyze(CRef confl, std::vector<Lit>& outLearnt, int& outBtLevel);
  bool litRedundant(Lit l, std::uint32_t abstractLevels);
  void attachClause(CRef cref);
  void detachClause(CRef cref);
  void recordLearnt(const std::vector<Lit>& learnt, int btLevel);

  // --- heuristics ---------------------------------------------------------
  Lit pickBranchLit();
  void varBumpActivity(BVar v);
  void varDecayActivity() { varInc_ *= (1.0 / kVarDecay); }
  void claBumpActivity(Clause& c);
  void claDecayActivity() { claInc_ *= (1.0f / kClaDecay); }
  void reduceDB();
  void rescaleVarActivity();

  // --- order heap (max-activity binary heap) ------------------------------
  void heapInsert(BVar v);
  void heapUpdateUp(BVar v);
  BVar heapRemoveMax();
  bool heapContains(BVar v) const { return heapPos_[v] >= 0; }
  bool heapLess(BVar a, BVar b) const { return activity_[a] < activity_[b]; }
  void heapSiftUp(int i);
  void heapSiftDown(int i);

  static std::int64_t luby(std::int64_t i);

  static constexpr double kVarDecay = 0.95;
  static constexpr float kClaDecay = 0.999f;
  static constexpr std::int64_t kRestartBase = 100;

  ClauseArena arena_;
  std::vector<CRef> clauses_;
  std::vector<CRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::vector<LBool> assigns_;                 // indexed by var
  std::vector<LBool> model_;                   // indexed by literal
  std::vector<VarData> varData_;
  std::vector<char> polarity_;  // saved phase, 1 = last assigned false
  std::vector<double> activity_;
  std::vector<BVar> heap_;
  std::vector<int> heapPos_;
  std::vector<Lit> trail_;
  std::vector<int> trailLim_;
  int qhead_ = 0;
  int thQhead_ = 0;  // trail prefix already asserted to the theory
  std::vector<char> seen_;
  std::vector<Lit> analyzeToClear_;
  std::vector<Lit> analyzeStack_;
  double varInc_ = 1.0;
  float claInc_ = 1.0f;
  bool ok_ = true;
  Theory* theory_ = nullptr;
  std::int64_t conflictBudget_ = -1;
  std::vector<Lit> theoryExplanation_;
  SatStats stats_;
};

}  // namespace etsn::smt
