// Unit + property tests for the difference-logic theory through the Solver
// façade (atoms, conflicts, explanations, model soundness).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "smt/solver.h"

namespace etsn::smt {
namespace {

TEST(IdlSolver, TrivialAtomsFold) {
  Solver s;
  const IntVar x = s.intVar("x");
  EXPECT_EQ(s.leq(x, x, 0), s.trueLit());
  EXPECT_EQ(s.leq(x, x, 5), s.trueLit());
  EXPECT_EQ(s.leq(x, x, -1), s.falseLit());
}

TEST(IdlSolver, SingleBoundSat) {
  Solver s;
  const IntVar x = s.intVar("x");
  s.require(s.ge(x, 10));
  s.require(s.le(x, 20));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_GE(s.value(x), 10);
  EXPECT_LE(s.value(x), 20);
}

TEST(IdlSolver, ContradictoryBoundsUnsat) {
  Solver s;
  const IntVar x = s.intVar("x");
  s.require(s.ge(x, 10));
  s.require(s.le(x, 9));
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(IdlSolver, TightBoundsForceValue) {
  Solver s;
  const IntVar x = s.intVar("x");
  s.require(s.ge(x, 7));
  s.require(s.le(x, 7));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_EQ(s.value(x), 7);
}

TEST(IdlSolver, DifferenceChain) {
  // x <= y - 3, y <= z - 4, z <= 10, x >= 0 → x in [0, 3].
  Solver s;
  const IntVar x = s.intVar("x"), y = s.intVar("y"), z = s.intVar("z");
  s.require(s.leq(x, y, -3));
  s.require(s.leq(y, z, -4));
  s.require(s.le(z, 10));
  s.require(s.ge(x, 0));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_GE(s.value(x), 0);
  EXPECT_LE(s.value(x), 3);
  EXPECT_LE(s.value(x), s.value(y) - 3);
  EXPECT_LE(s.value(y), s.value(z) - 4);
  EXPECT_LE(s.value(z), 10);
}

TEST(IdlSolver, NegativeCycleUnsat) {
  // x - y <= -1, y - z <= -1, z - x <= -1 sums to 0 <= -3: UNSAT.
  Solver s;
  const IntVar x = s.intVar(), y = s.intVar(), z = s.intVar();
  s.require(s.leq(x, y, -1));
  s.require(s.leq(y, z, -1));
  s.require(s.leq(z, x, -1));
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(IdlSolver, ZeroWeightCycleSat) {
  // x = y = z is allowed by a zero-sum cycle.
  Solver s;
  const IntVar x = s.intVar(), y = s.intVar(), z = s.intVar();
  s.require(s.leq(x, y, 0));
  s.require(s.leq(y, z, 0));
  s.require(s.leq(z, x, 0));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_EQ(s.value(x), s.value(y));
  EXPECT_EQ(s.value(y), s.value(z));
}

TEST(IdlSolver, AtomInterningSharesVariables) {
  Solver s;
  const IntVar x = s.intVar(), y = s.intVar();
  const Lit a = s.leq(x, y, 5);
  const Lit b = s.leq(x, y, 5);
  EXPECT_EQ(a, b);
  // The complement (y - x <= -6) must be the same variable, negated.
  const Lit c = s.leq(y, x, -6);
  EXPECT_EQ(c, ~a);
}

TEST(IdlSolver, GeqIsComplementOfStrictLeq) {
  Solver s;
  const IntVar x = s.intVar(), y = s.intVar();
  // x - y >= 3 <=> not(x - y <= 2)
  EXPECT_EQ(s.geq(x, y, 3), ~s.leq(x, y, 2));
}

TEST(IdlSolver, DisjunctionPicksFeasibleSide) {
  // Either x before y or y before x (disjunctive scheduling kernel).
  Solver s;
  const IntVar x = s.intVar(), y = s.intVar();
  s.require(s.ge(x, 0));
  s.require(s.ge(y, 0));
  s.require(s.le(x, 10));
  s.require(s.le(y, 10));
  // Each "task" lasts 6: they cannot both fit unless ordered… and ordering
  // needs 12 > 10, so with both deadlines 10 it is UNSAT.
  s.addOr(s.leq(x, y, -6), s.leq(y, x, -6));
  s.require(s.le(x, 4));  // x must end by 10
  s.require(s.le(y, 4));  // y must end by 10
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(IdlSolver, DisjunctionSatWhenRoomExists) {
  Solver s;
  const IntVar x = s.intVar(), y = s.intVar();
  s.require(s.ge(x, 0));
  s.require(s.ge(y, 0));
  s.require(s.le(x, 14));
  s.require(s.le(y, 14));
  s.addOr(s.leq(x, y, -6), s.leq(y, x, -6));
  ASSERT_EQ(s.solve(), Result::Sat);
  const auto dx = s.value(x), dy = s.value(y);
  EXPECT_TRUE(dx + 6 <= dy || dy + 6 <= dx);
}

TEST(IdlSolver, BooleanStructureOverAtoms) {
  // (x <= 5 OR x >= 20) AND x >= 10 → x >= 20.
  Solver s;
  const IntVar x = s.intVar();
  s.addOr(s.le(x, 5), s.ge(x, 20));
  s.require(s.ge(x, 10));
  s.require(s.le(x, 100));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_GE(s.value(x), 20);
}

TEST(IdlSolver, FreeBoolMixesWithAtoms) {
  Solver s;
  const IntVar x = s.intVar();
  const Lit b = s.boolVar();
  // b -> x >= 50 ; !b -> x <= 3 ; x >= 10 → b true and x >= 50.
  s.addClause({~b, s.ge(x, 50)});
  s.addClause({b, s.le(x, 3)});
  s.require(s.ge(x, 10));
  s.require(s.le(x, 100));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_TRUE(s.boolValue(b));
  EXPECT_GE(s.value(x), 50);
}

TEST(IdlSolver, JobShopStyleThreeTasks) {
  // Three unit tasks of length 4 on one machine, horizon 12 → exactly
  // packable; horizon 11 → UNSAT.
  for (const std::int64_t horizon : {12ll, 11ll}) {
    Solver s;
    std::vector<IntVar> t;
    for (int i = 0; i < 3; ++i) {
      t.push_back(s.intVar());
      s.require(s.ge(t.back(), 0));
      s.require(s.le(t.back(), horizon - 4));
    }
    for (int i = 0; i < 3; ++i)
      for (int j = i + 1; j < 3; ++j)
        s.addOr(s.leq(t[static_cast<std::size_t>(i)],
                      t[static_cast<std::size_t>(j)], -4),
                s.leq(t[static_cast<std::size_t>(j)],
                      t[static_cast<std::size_t>(i)], -4));
    const Result r = s.solve();
    if (horizon == 12) {
      ASSERT_EQ(r, Result::Sat);
      std::vector<std::int64_t> v;
      for (auto tv : t) v.push_back(s.value(tv));
      std::sort(v.begin(), v.end());
      EXPECT_GE(v[1] - v[0], 4);
      EXPECT_GE(v[2] - v[1], 4);
      EXPECT_GE(v[0], 0);
      EXPECT_LE(v[2], horizon - 4);
    } else {
      EXPECT_EQ(r, Result::Unsat);
    }
  }
}

// Property: random difference-constraint systems — solver verdict must
// match Bellman-Ford feasibility, and SAT models must satisfy every
// asserted constraint.
TEST(IdlSolverProperty, MatchesBellmanFordOnConjunctions) {
  std::mt19937 rng(4242);
  for (int round = 0; round < 120; ++round) {
    const int n = 6;
    const int m = 4 + static_cast<int>(rng() % 14);
    struct C {
      int x, y;
      std::int64_t c;
    };
    std::vector<C> cs;
    for (int i = 0; i < m; ++i) {
      int x = static_cast<int>(rng() % n);
      int y = static_cast<int>(rng() % n);
      if (x == y) continue;
      cs.push_back({x, y, static_cast<std::int64_t>(rng() % 21) - 10});
    }
    // Bellman-Ford on the constraint graph (edge y->x weight c).
    std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
    bool feasible = true;
    for (int it = 0; it <= n && feasible; ++it) {
      bool changed = false;
      for (const auto& c : cs) {
        const auto yv = dist[static_cast<std::size_t>(c.y)];
        auto& xv = dist[static_cast<std::size_t>(c.x)];
        if (yv + c.c < xv) {
          xv = yv + c.c;
          changed = true;
        }
      }
      if (it == n && changed) feasible = false;
      if (!changed) break;
    }
    Solver s;
    std::vector<IntVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.intVar());
    for (const auto& c : cs) {
      s.require(s.leq(vars[static_cast<std::size_t>(c.x)],
                      vars[static_cast<std::size_t>(c.y)], c.c));
    }
    const Result r = s.solve();
    ASSERT_EQ(r == Result::Sat, feasible) << "round " << round;
    if (r == Result::Sat) {
      for (const auto& c : cs) {
        EXPECT_LE(s.value(vars[static_cast<std::size_t>(c.x)]) -
                      s.value(vars[static_cast<std::size_t>(c.y)]),
                  c.c)
            << "round " << round;
      }
    }
  }
}

// Property: random clauses over random atoms — in any SAT answer, (a) the
// boolean value of every atom literal agrees with evaluating the atom on
// the integer model, and (b) every clause is satisfied under that
// evaluation.
TEST(IdlSolverProperty, ModelsEvaluateClausesTrue) {
  std::mt19937 rng(99);
  int satRounds = 0;
  for (int round = 0; round < 60; ++round) {
    Solver s;
    const int n = 5;
    std::vector<IntVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.intVar());
    struct UsedLit {
      int x, y;          // atom semantics: x - y <= c
      std::int64_t c;
      bool negated;      // literal used in the clause is the negation
      Lit lit;           // the literal as added to the clause
    };
    std::vector<std::vector<UsedLit>> clauses;
    const int m = 5 + static_cast<int>(rng() % 15);
    for (int i = 0; i < m; ++i) {
      std::vector<UsedLit> clause;
      std::vector<Lit> lits;
      const int len = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < len; ++k) {
        int x = static_cast<int>(rng() % n);
        int y = static_cast<int>(rng() % n);
        if (x == y) y = (y + 1) % n;
        const auto c = static_cast<std::int64_t>(rng() % 15) - 7;
        const bool negated = rng() & 1;
        const Lit atomLit = s.leq(vars[static_cast<std::size_t>(x)],
                                  vars[static_cast<std::size_t>(y)], c);
        const Lit used = negated ? ~atomLit : atomLit;
        clause.push_back({x, y, c, negated, used});
        lits.push_back(used);
      }
      s.addClause(lits);
      clauses.push_back(clause);
    }
    for (auto v : vars) {
      s.require(s.ge(v, -100));
      s.require(s.le(v, 100));
    }
    if (s.solve() != Result::Sat) continue;
    ++satRounds;
    for (const auto& clause : clauses) {
      bool any = false;
      for (const auto& u : clause) {
        const std::int64_t diff =
            s.value(vars[static_cast<std::size_t>(u.x)]) -
            s.value(vars[static_cast<std::size_t>(u.y)]);
        const bool atomTrue = diff <= u.c;
        const bool litTrue = u.negated ? !atomTrue : atomTrue;
        EXPECT_EQ(s.boolValue(u.lit), litTrue)
            << "boolean/integer model mismatch, round " << round;
        any |= litTrue;
      }
      EXPECT_TRUE(any) << "unsatisfied clause in model, round " << round;
    }
  }
  EXPECT_GT(satRounds, 10);  // the generator must actually exercise SAT
}

TEST(IdlSolver, ReusableAcrossSolves) {
  Solver s;
  const IntVar x = s.intVar();
  s.require(s.ge(x, 0));
  s.require(s.le(x, 50));
  ASSERT_EQ(s.solve(), Result::Sat);
  const auto v1 = s.value(x);
  EXPECT_GE(v1, 0);
  s.require(s.ge(x, 40));
  ASSERT_EQ(s.solve(), Result::Sat);
  EXPECT_GE(s.value(x), 40);
  s.require(s.le(x, 39));
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(IdlSolver, SolveUnderAssumptions) {
  Solver s;
  const IntVar x = s.intVar();
  s.require(s.ge(x, 0));
  const Lit big = s.ge(x, 100);
  const Lit small = s.le(x, 10);
  std::vector<Lit> both{big, small};
  EXPECT_EQ(s.solve(both), Result::Unsat);
  std::vector<Lit> onlyBig{big};
  ASSERT_EQ(s.solve(onlyBig), Result::Sat);
  EXPECT_GE(s.value(x), 100);
}

TEST(IdlSolver, StatsExposed) {
  Solver s;
  const IntVar x = s.intVar(), y = s.intVar();
  s.require(s.leq(x, y, -1));
  s.require(s.leq(y, x, -1));
  EXPECT_EQ(s.solve(), Result::Unsat);
  const auto st = s.stats();
  EXPECT_GE(st.atoms, 2);
  EXPECT_GE(st.intVars, 3);  // zero + x + y
  EXPECT_GE(st.sat.theoryAssertions, 1);

  // The default phase picks the atom's negation first, which the asserted
  // bound refutes: the atom is implied instead of decided.
  Solver t;
  const IntVar u = t.intVar(), v = t.intVar();
  t.require(t.leq(u, v, -1));
  const Lit entailed = t.leq(u, v, 0);
  ASSERT_EQ(t.solve(), Result::Sat);
  EXPECT_TRUE(t.boolValue(entailed));
  EXPECT_GE(t.stats().sat.refutedPicks, 1);
  EXPECT_EQ(t.stats().sat.conflicts, 0);
}

// Property: IdlTheory::refutes, driven directly.  Over random consistent
// asserted sets and unassigned candidate literals, the answer matches
// Bellman-Ford on the asserted edges plus the candidate's; a refutation
// explains itself with the candidate and asserted literals only, which are
// infeasible on their own; and either answer leaves no trace: the next
// assertion is accepted or rejected exactly as by a fresh theory holding
// the same asserted set, and value() satisfies every asserted edge.
TEST(IdlTheoryProperty, RefutesMatchesBellmanFordAndLeavesNoTrace) {
  struct Atom {
    IntVar x, y;
    std::int64_t c;
  };
  struct Edge {
    IntVar from, to;
    std::int64_t w;
  };
  // Literal l as the edge assertLit adds: x - y <= c is y -> x weight c,
  // its negation x -> y weight -c - 1.
  const auto edgeOf = [](const std::vector<Atom>& atoms, Lit l) {
    const Atom& a = atoms[static_cast<std::size_t>(var(l))];
    return sign(l) ? Edge{a.x, a.y, -a.c - 1} : Edge{a.y, a.x, a.c};
  };
  const auto feasible = [](int n, const std::vector<Edge>& edges) {
    std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
    for (int it = 0; it <= n; ++it) {
      bool changed = false;
      for (const Edge& e : edges) {
        const auto fd = dist[static_cast<std::size_t>(e.from)];
        auto& td = dist[static_cast<std::size_t>(e.to)];
        if (fd + e.w < td) {
          td = fd + e.w;
          changed = true;
        }
      }
      if (!changed) return true;
    }
    return false;
  };

  std::mt19937 rng(2024);
  int refuted = 0, fitted = 0;
  for (int round = 0; round < 150; ++round) {
    const int n = 4 + static_cast<int>(rng() % 4);  // zero included
    const int numAtoms = 12 + static_cast<int>(rng() % 12);
    std::vector<Atom> atoms;
    IdlTheory th;
    for (int i = 1; i < n; ++i) th.newIntVar();
    for (int b = 0; b < numAtoms; ++b) {
      const auto x = static_cast<IntVar>(rng() % static_cast<unsigned>(n));
      auto y = static_cast<IntVar>(rng() % static_cast<unsigned>(n));
      if (x == y) y = (y + 1) % n;
      atoms.push_back({x, y, static_cast<std::int64_t>(rng() % 13) - 6});
      th.registerAtom(b, x, y, atoms.back().c);
    }
    std::vector<Lit> asserted;
    std::vector<char> assigned(static_cast<std::size_t>(numAtoms), 0);
    std::vector<Lit> scratch;
    const auto randomUnassigned = [&]() {
      Lit l = kLitUndef;
      while (l == kLitUndef) {
        const auto b = static_cast<BVar>(rng() % static_cast<unsigned>(numAtoms));
        if (!assigned[static_cast<std::size_t>(b)]) l = mkLit(b, rng() & 1);
      }
      return l;
    };
    for (int step = 0; step < numAtoms - 1; ++step) {
      std::vector<Edge> edges;
      for (const Lit a : asserted) edges.push_back(edgeOf(atoms, a));

      // Ask about a candidate.
      const Lit cand = randomUnassigned();
      edges.push_back(edgeOf(atoms, cand));
      const bool candFeasible = feasible(n, edges);
      edges.pop_back();
      std::vector<Lit> expl;
      const bool refutes = th.refutes(cand, expl);
      ASSERT_EQ(refutes, !candFeasible) << "round " << round;
      if (refutes) {
        ++refuted;
        EXPECT_NE(std::find(expl.begin(), expl.end(), cand), expl.end());
        std::vector<Edge> cycle;
        for (const Lit e : expl) {
          EXPECT_TRUE(e == cand || std::find(asserted.begin(), asserted.end(),
                                             e) != asserted.end())
              << "explanation holds an unasserted literal, round " << round;
          cycle.push_back(edgeOf(atoms, e));
        }
        EXPECT_FALSE(feasible(n, cycle))
            << "explanation is feasible on its own, round " << round;
      } else {
        ++fitted;
      }
      for (const Lit a : asserted) {
        const Edge e = edgeOf(atoms, a);
        EXPECT_LE(th.value(e.to) - th.value(e.from), e.w)
            << "value() violates an asserted edge, round " << round;
      }

      // The next assertion behaves as on a fresh theory.
      IdlTheory fresh;
      for (int i = 1; i < n; ++i) fresh.newIntVar();
      for (int b = 0; b < numAtoms; ++b) {
        const Atom& a = atoms[static_cast<std::size_t>(b)];
        fresh.registerAtom(b, a.x, a.y, a.c);
      }
      for (const Lit a : asserted) ASSERT_TRUE(fresh.assertLit(a, scratch));
      const Lit next = randomUnassigned();
      const bool ok = th.assertLit(next, scratch);
      ASSERT_EQ(ok, fresh.assertLit(next, scratch)) << "round " << round;
      if (ok) {
        asserted.push_back(next);
        assigned[static_cast<std::size_t>(var(next))] = 1;
      } else {
        th.undo(next);
      }
    }
    // Retraction order is still the assertion order.
    for (auto it = asserted.rbegin(); it != asserted.rend(); ++it) {
      th.undo(*it);
    }
  }
  // Both answers must be exercised or the property is vacuous.
  EXPECT_GT(refuted, 100);
  EXPECT_GT(fitted, 100);
}

}  // namespace
}  // namespace etsn::smt

namespace etsn::smt {
namespace {

// Property: the extracted model is the componentwise *least* solution —
// for small instances, no variable can be decreased while keeping all
// asserted constraints satisfied with the same boolean assignment.
TEST(IdlSolverProperty, ModelIsComponentwiseMinimal) {
  std::mt19937 rng(321);
  for (int round = 0; round < 40; ++round) {
    Solver s;
    const int n = 4;
    std::vector<IntVar> vars;
    for (int i = 0; i < n; ++i) {
      vars.push_back(s.intVar());
      s.require(s.ge(vars.back(), 0));
      s.require(s.le(vars.back(), 50));
    }
    struct C {
      int x, y;
      std::int64_t c;
    };
    std::vector<C> cs;
    const int m = 3 + static_cast<int>(rng() % 8);
    for (int i = 0; i < m; ++i) {
      int x = static_cast<int>(rng() % n);
      int y = static_cast<int>(rng() % n);
      if (x == y) continue;
      const auto c = static_cast<std::int64_t>(rng() % 21) - 10;
      cs.push_back({x, y, c});
      s.require(s.leq(vars[static_cast<std::size_t>(x)],
                      vars[static_cast<std::size_t>(y)], c));
    }
    if (s.solve() != Result::Sat) continue;
    std::vector<std::int64_t> v;
    for (const auto var : vars) v.push_back(s.value(var));
    // Check minimality: decreasing any single variable by 1 must violate
    // some constraint (x >= 0 or a difference).
    for (int i = 0; i < n; ++i) {
      auto w = v;
      w[static_cast<std::size_t>(i)] -= 1;
      bool violated = w[static_cast<std::size_t>(i)] < 0;
      for (const auto& c : cs) {
        // decreasing x keeps x - y <= c; decreasing y may break it.
        if (c.y == i) {
          violated |= (w[static_cast<std::size_t>(c.x)] -
                           w[static_cast<std::size_t>(c.y)] >
                       c.c);
        }
      }
      EXPECT_TRUE(violated)
          << "variable " << i << " not minimal in round " << round;
    }
  }
}

}  // namespace
}  // namespace etsn::smt
