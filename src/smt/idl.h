// Integer difference logic (QF_IDL) theory.
//
// Atoms have the form `x - y <= c` over integer variables; the negation of
// an atom is `y - x <= -c - 1`.  Asserted atoms are edges of a constraint
// graph: `a - b <= w` becomes edge b -> a with weight w.  The theory
// maintains a feasible potential function pi (for every active edge,
// pi(b) + w - pi(a) >= 0), repaired incrementally on each assertion with a
// Dijkstra over reduced costs (Cotton & Maler, "Fast and flexible difference
// constraint propagation", SAT 2006).  Infeasibility shows up as a negative
// cycle, whose edges form the conflict explanation.
//
// Retracting edges never invalidates pi, so backtracking only pops edges.
// The same fact makes refutation cheap: refutes() adds the candidate edge,
// repairs pi, and pops the edge again.  A refuted candidate rolls pi back;
// one that fits leaves pi repaired for it, so its real assertion is O(1).
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "smt/theory.h"

namespace etsn::smt {

/// Integer (difference-logic) variable.  Variable 0 is the designated zero
/// used to express unary bounds.
using IntVar = std::int32_t;

class IdlTheory final : public Theory {
 public:
  IdlTheory();

  IntVar newIntVar(std::string name = {});
  int numIntVars() const { return static_cast<int>(pi_.size()); }
  const std::string& name(IntVar v) const { return names_[static_cast<std::size_t>(v)]; }

  /// Bind boolean variable `b` to the atom `x - y <= c`.  Requires x != y.
  void registerAtom(BVar b, IntVar x, IntVar y, std::int64_t c);

  bool isTheoryVar(BVar v) const override;
  bool assertLit(Lit l, std::vector<Lit>& explanation) override;
  bool refutes(Lit l, std::vector<Lit>& explanation) override;
  void undo(Lit l) override;

  /// Value of `v` in the current feasible potential, normalized so the zero
  /// variable is 0.  Valid whenever the asserted set is consistent (in
  /// particular at a SAT answer).
  std::int64_t value(IntVar v) const;

  /// The *least* solution of the asserted constraints with zero fixed at 0
  /// (every variable at its minimal feasible value — the ASAP schedule).
  /// Requires every variable to be bounded below relative to zero, which
  /// holds whenever each has an asserted lower bound; returns empty if
  /// some variable is unbounded (callers then fall back to value()).
  std::vector<std::int64_t> minimalValues() const;

  /// Total pi-repair relaxations performed (performance counter).
  std::int64_t relaxations() const { return relaxations_; }

 private:
  struct Atom {
    IntVar x = -1;
    IntVar y = -1;
    std::int64_t c = 0;
  };
  struct Edge {
    IntVar from;  // b in a - b <= w
    IntVar to;    // a
    std::int64_t w;
    Lit lit;  // the asserted literal this edge came from
  };

  bool addEdge(IntVar from, IntVar to, std::int64_t w, Lit lit,
               std::vector<Lit>& explanation);

  std::vector<std::int64_t> pi_;
  std::vector<std::string> names_;
  std::vector<Atom> atoms_;                      // indexed by BVar
  std::vector<Edge> edges_;                      // assertion stack
  std::vector<std::vector<std::int32_t>> adj_;   // node -> edge indices

  // Scratch state for the repair Dijkstra (sized to numIntVars).
  std::vector<std::int64_t> gamma_;
  std::vector<std::int32_t> parentEdge_;
  std::vector<std::uint8_t> nodeState_;  // 0 untouched, 1 queued, 2 final
  std::vector<IntVar> touched_;

  std::int64_t relaxations_ = 0;
};

}  // namespace etsn::smt
