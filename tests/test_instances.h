// Shared test fixtures: the standard small random instances (path,
// star, triangle, 4-cycle), the join-then-sort cost oracle, and a
// patchable append delta, used by the engine and serving test suites.
#ifndef TOPKJOIN_TESTS_TEST_INSTANCES_H_
#define TOPKJOIN_TESTS_TEST_INSTANCES_H_

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/anyk/ranked_iterator.h"
#include "src/cycles/fourcycle.h"
#include "src/data/delta.h"
#include "src/data/generators.h"
#include "src/join/nested_loop.h"
#include "src/query/cq.h"
#include "src/util/rng.h"

namespace topkjoin {
namespace testing_fixtures {

struct Instance {
  Database db;
  ConjunctiveQuery query;
};

// Q(x0..x_len) :- R0(x0,x1), ..., R_{len-1}(x_{len-1},x_len).
inline Instance MakePathInstance(size_t len, size_t tuples, Value domain,
                                 uint64_t seed) {
  Instance t;
  Rng rng(seed);
  for (size_t i = 0; i < len; ++i) {
    const RelationId id = t.db.Add(
        UniformBinaryRelation("R" + std::to_string(i), tuples, domain, rng));
    t.query.AddAtom(id, {static_cast<VarId>(i), static_cast<VarId>(i + 1)});
  }
  return t;
}

// Q(c,x1,x2,x3) :- R0(c,x1), R1(c,x2), R2(c,x3).
inline Instance MakeStarInstance(size_t tuples, Value domain, uint64_t seed) {
  Instance t;
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    const RelationId id = t.db.Add(
        UniformBinaryRelation("R" + std::to_string(i), tuples, domain, rng));
    t.query.AddAtom(id, {0, i + 1});
  }
  return t;
}

inline Instance MakeFourCycleInstance(size_t edges, Value domain,
                                      uint64_t seed) {
  Instance t;
  Rng rng(seed);
  const RelationId e = t.db.Add(UniformBinaryRelation("E", edges, domain, rng));
  t.query = FourCycleQuery(e);
  return t;
}

// Q(x0,x1,x2) :- R(x0,x1), S(x1,x2), T(x2,x0) -- cyclic, not 4-cycle.
inline Instance MakeTriangleInstance(size_t tuples, Value domain,
                                     uint64_t seed) {
  Instance t;
  Rng rng(seed);
  const RelationId r =
      t.db.Add(UniformBinaryRelation("R", tuples, domain, rng));
  const RelationId s =
      t.db.Add(UniformBinaryRelation("S", tuples, domain, rng));
  const RelationId w =
      t.db.Add(UniformBinaryRelation("T", tuples, domain, rng));
  t.query.AddAtom(r, {0, 1});
  t.query.AddAtom(s, {1, 2});
  t.query.AddAtom(w, {2, 0});
  return t;
}

inline std::vector<RankedResult> Drain(RankedIterator* it) {
  std::vector<RankedResult> out;
  while (auto r = it->Next()) out.push_back(std::move(*r));
  return out;
}

// Ground truth: SUM costs of the full join output, ascending.
inline std::vector<double> OracleSortedCosts(const Instance& t) {
  const Relation out = NestedLoopJoin(t.db, t.query);
  std::vector<double> costs;
  for (RowId r = 0; r < out.NumTuples(); ++r) {
    costs.push_back(out.TupleWeight(r));
  }
  std::sort(costs.begin(), costs.end());
  return costs;
}

// One committed append per atom, duplicating a fully joining
// assignment, so every appended tuple's join keys already exist in a
// warm artifact's group indexes and patching (rather than a rebuild)
// applies.
inline Delta JoiningDelta(const Instance& t, double weight) {
  const Relation out = NestedLoopJoin(t.db, t.query);
  EXPECT_GT(out.NumTuples(), 0u);
  const std::span<const Value> a = out.Tuple(0);
  Delta delta;
  for (size_t i = 0; i < t.query.NumAtoms(); ++i) {
    const auto& atom = t.query.atom(i);
    RelationDelta& rd = delta.ForRelation(atom.relation);
    for (VarId v : atom.vars) rd.values.push_back(a[static_cast<size_t>(v)]);
    rd.weights.push_back(weight);
  }
  return delta;
}

}  // namespace testing_fixtures
}  // namespace topkjoin

#endif  // TOPKJOIN_TESTS_TEST_INSTANCES_H_
