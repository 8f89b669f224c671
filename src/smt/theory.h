// Interface between the CDCL SAT core and a background theory (DPLL(T)).
#pragma once

#include <vector>

#include "smt/literal.h"

namespace etsn::smt {

/// A background theory notified of assignments to its atoms.
///
/// The SAT core asserts trail literals in order; the theory must detect
/// inconsistency eagerly on each assertion and explain conflicts with the
/// set of previously asserted atom literals that are jointly infeasible.
/// Before the core decides an atom it asks the theory whether the asserted
/// atoms already refute it; a refuted atom is implied false instead of
/// decided, with the explanation as its reason.
class Theory {
 public:
  virtual ~Theory() = default;

  /// True if this literal's variable is a theory atom (either phase).
  virtual bool isTheoryVar(BVar v) const = 0;

  /// Literal `l` (an atom or its negation) became true.  Returns false on
  /// inconsistency and fills `explanation` with true literals (including
  /// `l`) whose conjunction is theory-infeasible.
  virtual bool assertLit(Lit l, std::vector<Lit>& explanation) = 0;

  /// Would asserting the unassigned literal `l` now be inconsistent?  If
  /// so, returns true and fills `explanation` as assertLit would (`l` plus
  /// asserted literals).  Either way the asserted set is left unchanged.
  virtual bool refutes(Lit l, std::vector<Lit>& explanation) = 0;

  /// Undo the assertion of `l`; called in reverse assertion order.
  virtual void undo(Lit l) = 0;
};

}  // namespace etsn::smt
