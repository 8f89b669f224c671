#include "smt/idl.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace etsn::smt {

IdlTheory::IdlTheory() {
  newIntVar("zero");  // variable 0: the designated zero for unary bounds
}

IntVar IdlTheory::newIntVar(std::string name) {
  const IntVar v = static_cast<IntVar>(pi_.size());
  pi_.push_back(0);
  names_.push_back(std::move(name));
  adj_.emplace_back();
  gamma_.push_back(0);
  parentEdge_.push_back(-1);
  nodeState_.push_back(0);
  return v;
}

void IdlTheory::registerAtom(BVar b, IntVar x, IntVar y, std::int64_t c) {
  ETSN_CHECK_MSG(x != y, "trivial atoms must be folded by the caller");
  ETSN_CHECK(x >= 0 && x < numIntVars() && y >= 0 && y < numIntVars());
  if (static_cast<std::size_t>(b) >= atoms_.size()) {
    atoms_.resize(static_cast<std::size_t>(b) + 1);
  }
  ETSN_CHECK_MSG(atoms_[static_cast<std::size_t>(b)].x == -1,
                 "boolean variable already bound to an atom");
  atoms_[static_cast<std::size_t>(b)] = {x, y, c};
}

bool IdlTheory::isTheoryVar(BVar v) const {
  return static_cast<std::size_t>(v) < atoms_.size() &&
         atoms_[static_cast<std::size_t>(v)].x != -1;
}

bool IdlTheory::assertLit(Lit l, std::vector<Lit>& explanation) {
  ETSN_CHECK(isTheoryVar(var(l)));
  const Atom& a = atoms_[static_cast<std::size_t>(var(l))];
  if (!sign(l)) {
    // x - y <= c  =>  edge y -> x, weight c.
    return addEdge(a.y, a.x, a.c, l, explanation);
  }
  // not(x - y <= c)  <=>  y - x <= -c - 1  =>  edge x -> y, weight -c-1.
  return addEdge(a.x, a.y, -a.c - 1, l, explanation);
}

bool IdlTheory::refutes(Lit l, std::vector<Lit>& explanation) {
  // A trial assertion, retracted whatever the answer (see the header).
  const bool fits = assertLit(l, explanation);
  undo(l);
  return !fits;
}

void IdlTheory::undo(Lit l) {
  ETSN_CHECK(!edges_.empty());
  const Edge& e = edges_.back();
  ETSN_CHECK_MSG(e.lit == l, "theory undo out of order");
  ETSN_CHECK(!adj_[static_cast<std::size_t>(e.from)].empty());
  adj_[static_cast<std::size_t>(e.from)].pop_back();
  edges_.pop_back();
  // pi stays valid: removing constraints cannot break feasibility.
}

bool IdlTheory::addEdge(IntVar from, IntVar to, std::int64_t w, Lit lit,
                        std::vector<Lit>& explanation) {
  const std::int32_t eIdx = static_cast<std::int32_t>(edges_.size());
  edges_.push_back({from, to, w, lit});
  adj_[static_cast<std::size_t>(from)].push_back(eIdx);

  const std::int64_t slack = pi_[static_cast<std::size_t>(from)] + w -
                             pi_[static_cast<std::size_t>(to)];
  if (slack >= 0) return true;  // pi still feasible

  // Repair pi by lowering potentials reachable from `to`, Dijkstra over
  // non-negative reduced costs.  gamma(t) is the (negative) amount by which
  // pi(t) must drop; reaching `from` with gamma < 0 closes a negative cycle.
  using QElem = std::pair<std::int64_t, IntVar>;
  std::priority_queue<QElem, std::vector<QElem>, std::greater<>> queue;

  // (old pi, node) log so a failed repair can be rolled back.
  std::vector<std::pair<IntVar, std::int64_t>> piLog;

  auto cleanup = [&] {
    for (IntVar t : touched_) {
      gamma_[static_cast<std::size_t>(t)] = 0;
      parentEdge_[static_cast<std::size_t>(t)] = -1;
      nodeState_[static_cast<std::size_t>(t)] = 0;
    }
    touched_.clear();
  };

  auto relax = [&](IntVar t, std::int64_t g, std::int32_t viaEdge) {
    auto ti = static_cast<std::size_t>(t);
    if (nodeState_[ti] == 2) return;  // finalized
    if (nodeState_[ti] == 0 || g < gamma_[ti]) {
      if (nodeState_[ti] == 0) touched_.push_back(t);
      nodeState_[ti] = 1;
      gamma_[ti] = g;
      parentEdge_[ti] = viaEdge;
      queue.emplace(g, t);
      ++relaxations_;
    }
  };

  relax(to, slack, eIdx);

  while (!queue.empty()) {
    const auto [g, s] = queue.top();
    queue.pop();
    const auto si = static_cast<std::size_t>(s);
    if (nodeState_[si] == 2 || g != gamma_[si]) continue;  // stale entry
    if (g >= 0) break;  // no further improvement possible
    if (s == from) {
      // Negative cycle: from -> ... -> to (parent chain) plus the new edge.
      explanation.clear();
      IntVar cur = s;
      while (true) {
        const std::int32_t pe = parentEdge_[static_cast<std::size_t>(cur)];
        ETSN_CHECK(pe >= 0);
        explanation.push_back(edges_[static_cast<std::size_t>(pe)].lit);
        if (pe == eIdx) break;  // reached the freshly added edge
        cur = edges_[static_cast<std::size_t>(pe)].from;
      }
      // Roll back pi so it stays feasible for the pre-existing edges.
      for (auto it = piLog.rbegin(); it != piLog.rend(); ++it) {
        pi_[static_cast<std::size_t>(it->first)] = it->second;
      }
      cleanup();
      return false;
    }
    // Finalize s: commit the lowered potential.
    nodeState_[si] = 2;
    piLog.emplace_back(s, pi_[si]);
    pi_[si] += g;
    for (std::int32_t ei : adj_[si]) {
      const Edge& e = edges_[static_cast<std::size_t>(ei)];
      const std::int64_t ng =
          pi_[si] + e.w - pi_[static_cast<std::size_t>(e.to)];
      if (ng < 0) relax(e.to, ng, ei);
    }
  }
  cleanup();
  return true;
}

std::int64_t IdlTheory::value(IntVar v) const {
  return pi_[static_cast<std::size_t>(v)] - pi_[0];
}

std::vector<std::int64_t> IdlTheory::minimalValues() const {
  // A constraint a - b <= w composes along paths: a chain from zero to v
  // bounds value(zero) - value(v) <= dist, i.e. value(v) >= -dist.  The
  // assignment value(v) = -shortestDist(zero -> v) is feasible (triangle
  // inequality) and componentwise minimal.  Edges for this graph run
  // a -> b with weight w; edges_ stores them as (from=b, to=a), so walk
  // them flipped.  Dijkstra over Johnson-reduced costs with h = -pi (the
  // feasibility invariant makes all reduced costs non-negative).
  const std::size_t n = pi_.size();
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  // Flipped adjacency: for edge (from=b, to=a, w) the constraint edge is
  // a -> b, so out-edges of node `to`.
  std::vector<std::vector<std::int32_t>> out(n);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    out[static_cast<std::size_t>(edges_[i].to)].push_back(
        static_cast<std::int32_t>(i));
  }
  std::vector<std::int64_t> distRc(n, kInf);  // reduced-cost distances
  using QElem = std::pair<std::int64_t, IntVar>;
  std::priority_queue<QElem, std::vector<QElem>, std::greater<>> queue;
  distRc[0] = 0;
  queue.emplace(0, 0);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    const auto ui = static_cast<std::size_t>(u);
    if (d != distRc[ui]) continue;
    for (const std::int32_t ei : out[ui]) {
      const Edge& e = edges_[static_cast<std::size_t>(ei)];
      // Constraint edge u=e.to -> v=e.from with weight e.w; reduced cost
      // rc = w - pi(u) + pi(v) = pi(from) + w - pi(to) >= 0 (invariant).
      const auto vi = static_cast<std::size_t>(e.from);
      const std::int64_t rc =
          e.w + pi_[vi] - pi_[ui];
      ETSN_CHECK(rc >= 0);
      if (d + rc < distRc[vi]) {
        distRc[vi] = d + rc;
        queue.emplace(distRc[vi], e.from);
      }
    }
  }
  std::vector<std::int64_t> vals(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (distRc[v] >= kInf) {
      if (v == 0) continue;
      return {};  // unbounded below; caller falls back to value()
    }
    // Undo the Johnson transform: dist = distRc - h(0) + h(v), h = -pi.
    const std::int64_t dist = distRc[v] + pi_[0] - pi_[v];
    vals[v] = -dist;
  }
  return vals;
}

}  // namespace etsn::smt
