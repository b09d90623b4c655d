// Quickstart: build a tiny database, then let the unified engine plan,
// explain, and stream the query's results in ranking order. Compare
// with the hand-wired flow this replaces: pick an algorithm, check
// acyclicity, wire the T-DP yourself -- Engine::Execute does all three.
//
//   cmake --build build && ./build/quickstart
#include <cstdio>
#include <memory>
#include <utility>

#include "src/data/database.h"
#include "src/engine/engine.h"
#include "src/query/cq.h"

using namespace topkjoin;

int main() {
  // A 3-hop "follows" chain: who can reach whom in exactly three hops,
  // ranked by total path weight (smaller = closer relationship).
  Database db;
  Relation follows("Follows", {"src", "dst"});
  follows.AddTuple({/*alice*/ 1, /*bob*/ 2}, 0.3);
  follows.AddTuple({1, /*carol*/ 3}, 0.9);
  follows.AddTuple({2, 3}, 0.2);
  follows.AddTuple({3, /*dave*/ 4}, 0.4);
  follows.AddTuple({2, 4}, 1.5);
  follows.AddTuple({4, /*erin*/ 5}, 0.1);
  const RelationId f = db.Add(std::move(follows));

  // Q(x0,x1,x2,x3) :- Follows(x0,x1), Follows(x1,x2), Follows(x2,x3).
  ConjunctiveQuery q;
  q.AddAtom(f, {0, 1});
  q.AddAtom(f, {1, 2});
  q.AddAtom(f, {2, 3});

  Engine engine;
  std::printf("query: %s\n", q.DebugString(db).c_str());

  // Execute: one call from (db, query, ranking) to a ranked stream.
  // The chosen plan rides along, so EXPLAIN output is free (use
  // Engine::Explain to plan without executing).
  auto result = engine.Execute(db, q, {CostModelKind::kSum}, {});
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().message().c_str());
    return 1;
  }
  std::printf("\n%s\n", result.value().plan.DebugString().c_str());
  std::printf("3-hop chains, lightest first:\n");
  int rank = 0;
  while (auto r = result.value().stream->Next()) {
    std::printf("  #%d  %lld -> %lld -> %lld -> %lld   weight %.2f\n",
                ++rank, static_cast<long long>(r->assignment[0]),
                static_cast<long long>(r->assignment[1]),
                static_cast<long long>(r->assignment[2]),
                static_cast<long long>(r->assignment[3]), r->cost);
  }

  // Serving-style access: a budgeted cursor, fetched in slices, resumes
  // mid-enumeration without dropping or repeating results.
  ExecutionOptions opts;
  opts.k = 3;
  auto opened = engine.OpenCursor(db, q, {}, opts);
  if (!opened.ok()) {
    std::printf("error: %s\n", opened.status().message().c_str());
    return 1;
  }
  const std::unique_ptr<Cursor> cursor = std::move(opened).value();
  std::printf("\ncursor, top-3 in slices of 2:\n");
  while (!cursor->Done()) {
    for (const RankedResult& r : cursor->Fetch(2)) {
      std::printf("  weight %.2f\n", r.cost);
    }
    std::printf("  -- slice done: emitted %zu so far, state %s\n",
                cursor->results_emitted(), CursorStateName(cursor->state()));
  }
  return 0;
}
