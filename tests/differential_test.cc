// Randomized differential testing of the engine: random connected
// conjunctive queries (acyclic and cyclic, with self-joins, parallel
// edges, and mixed arity-2/3/4 atoms) over small random databases, each
// executed through Engine::Execute and compared against a brute-force
// join-then-sort oracle. The comparison is exactly what the any-k
// contract promises:
//   * the emitted cost sequence is non-decreasing (ties may reorder) --
//     for LEX under the exact full-vector order, not just the primary;
//   * the multiset of (assignment, cost) results equals the oracle's,
//     full LEX cost vectors included -- nothing lost, nothing
//     duplicated, nothing invented.
// Every query -- cyclic included -- runs under all four cost dioids
// (SUM/MAX/PROD/LEX): bag materialization carries per-tuple member
// weights, so decomposed cyclic plans rank exactly under non-additive
// dioids too.
//
// Reproducing a failure: every random case is generated from its own
// seed, printed in the assertion label as "seed=<s>". Re-run just that
// case with
//   TOPKJOIN_DIFF_SEED=<s> TOPKJOIN_DIFF_QUERIES=1 ./differential_test
// (the extended CI job raises TOPKJOIN_DIFF_QUERIES; the same two
// variables make any CI failure a one-command local repro).
//
// TOPKJOIN_DIFF_VARIANT=eager|lazy|take2|memoized forces the main dioid
// sweep through one ANYK-PART successor variant (it sets
// force_algorithm to the matching kPart* algorithm), so the whole
// random-query x dioid matrix can be replayed under any variant of the
// rebuilt enumeration core. Unset: the planner routes normally. The
// PartVariantsEmitIdenticalRankedStreams test additionally sweeps all
// four variants against each other on every query and dioid,
// asserting bit-identical cost sequences.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/delta.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/query/hypergraph.h"
#include "src/ranking/cost_model.h"
#include "src/util/rng.h"
#include "tests/test_instances.h"

namespace topkjoin {
namespace {

using testing_fixtures::Drain;

// Environment knobs for the extended CI job / local repro (see file
// comment). Defaults keep the in-tree run fast. A value that does not
// parse fully as a positive integer aborts loudly: a typo'd
// TOPKJOIN_DIFF_QUERIES silently becoming 0 would let the sweep report
// success having tested nothing.
size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  TOPKJOIN_CHECK(end != nullptr && *end == '\0' && parsed > 0);
  return static_cast<size_t>(parsed);
}

size_t NumRandomQueries() { return EnvSize("TOPKJOIN_DIFF_QUERIES", 230); }
uint64_t BaseSeed() { return EnvSize("TOPKJOIN_DIFF_SEED", 20260729); }

// The four ANYK-PART variants, by their TOPKJOIN_DIFF_VARIANT names.
struct PartVariant {
  const char* name;
  AnyKAlgorithm algorithm;
};
constexpr PartVariant kPartVariants[] = {
    {"eager", AnyKAlgorithm::kPartEager},
    {"lazy", AnyKAlgorithm::kPartLazy},
    {"take2", AnyKAlgorithm::kPartTake2},
    {"memoized", AnyKAlgorithm::kPartMemoized},
};

// TOPKJOIN_DIFF_VARIANT: force the main sweep through one ANYK-PART
// variant (see file comment). An unknown name aborts loudly.
std::optional<AnyKAlgorithm> EnvVariant() {
  const char* v = std::getenv("TOPKJOIN_DIFF_VARIANT");
  if (v == nullptr || *v == '\0') return std::nullopt;
  for (const PartVariant& variant : kPartVariants) {
    if (std::string(v) == variant.name) return variant.algorithm;
  }
  std::fprintf(stderr, "unknown TOPKJOIN_DIFF_VARIANT '%s'\n", v);
  TOPKJOIN_CHECK(false);
  return std::nullopt;
}

struct RandomCase {
  Database db;
  ConjunctiveQuery query;
};

// A fresh random relation sized so the brute-force oracle stays cheap:
// higher arities get fewer tuples (their cross-product contribution is
// what the oracle pays for) and a small domain so joins actually match.
RelationId AddRandomRelation(RandomCase* c, size_t arity, Rng& rng) {
  const size_t tuples =
      arity == 2 ? 6 + rng.NextBounded(9) : 4 + rng.NextBounded(5);
  const Value domain = 3 + static_cast<Value>(rng.NextBounded(3));
  return c->db.Add(UniformRelation("R" + std::to_string(c->db.NumRelations()),
                                   arity, tuples, domain, rng));
}

// A connected random query over mixed arity-2/3/4 atoms. Each new atom
// anchors on an existing variable (connectivity), fills its remaining
// slots with a mix of existing variables (closing cycles, forming
// stars) and fresh ones (paths, hyperedge growth), and occasionally
// reuses a relation of matching arity (self-joins). Variables are dense
// by construction: every new VarId is allocated consecutively and used
// immediately; variables within one atom are distinct.
RandomCase MakeRandomCase(Rng& rng) {
  RandomCase c;
  std::vector<std::pair<RelationId, size_t>> relations;  // (id, arity)
  int num_vars = 0;

  // A quarter of the cases are explicit L-cycles (L = 3..5, sometimes as
  // a self-join of one edge relation, sometimes with a pendant edge or a
  // pendant ternary hyperedge): random growth rarely closes rings, and
  // the planner's cyclic strategies -- 4-cycle union-of-cases included --
  // need steady differential coverage under every dioid.
  if (rng.NextBounded(4) == 0) {
    const int cycle_len = 3 + static_cast<int>(rng.NextBounded(3));
    const bool self_join = rng.NextBounded(3) == 0;
    RelationId shared = 0;
    if (self_join) shared = AddRandomRelation(&c, 2, rng);
    for (int i = 0; i < cycle_len; ++i) {
      const RelationId rel =
          self_join ? shared : AddRandomRelation(&c, 2, rng);
      c.query.AddAtom(rel, {i, (i + 1) % cycle_len});
    }
    num_vars = cycle_len;
    const uint64_t pendant = rng.NextBounded(4);
    if (pendant == 0) {  // pendant edge off the ring
      const RelationId rel = AddRandomRelation(&c, 2, rng);
      c.query.AddAtom(
          rel, {static_cast<VarId>(rng.NextBounded(num_vars)), num_vars});
    } else if (pendant == 1) {  // pendant ternary hyperedge off the ring
      const RelationId rel = AddRandomRelation(&c, 3, rng);
      c.query.AddAtom(rel, {static_cast<VarId>(rng.NextBounded(num_vars)),
                            num_vars, num_vars + 1});
    }
    return c;
  }

  const size_t num_atoms = 1 + rng.NextBounded(4);
  for (size_t a = 0; a < num_atoms; ++a) {
    // Arity 2 dominates (the paper's graph-pattern regime); 3 and 4
    // exercise the T-DP beyond binary atoms per the ROADMAP item.
    const uint64_t arity_pick = rng.NextBounded(10);
    const size_t arity = arity_pick < 6 ? 2 : (arity_pick < 9 ? 3 : 4);

    std::vector<VarId> vars;
    if (a == 0) {
      for (size_t i = 0; i < arity; ++i) vars.push_back(num_vars++);
    } else {
      vars.push_back(static_cast<VarId>(rng.NextBounded(num_vars)));
      for (size_t i = 1; i < arity; ++i) {
        const bool can_reuse =
            static_cast<size_t>(num_vars) > vars.size() &&
            rng.NextBounded(10) >= 4;
        if (!can_reuse) {
          vars.push_back(num_vars++);  // hyperedge growth
          continue;
        }
        // An existing variable distinct from the ones already in this
        // atom: re-picking a used combination yields parallel edges, a
        // new combination closes a cycle.
        VarId v;
        do {
          v = static_cast<VarId>(rng.NextBounded(num_vars));
        } while (std::find(vars.begin(), vars.end(), v) != vars.end());
        vars.push_back(v);
      }
    }

    RelationId rel = 0;
    bool reused = false;
    if (!relations.empty() && rng.NextBounded(4) == 0) {
      // Self-join: reuse a relation of this atom's arity if one exists.
      std::vector<RelationId> candidates;
      for (const auto& [id, rel_arity] : relations) {
        if (rel_arity == arity) candidates.push_back(id);
      }
      if (!candidates.empty()) {
        rel = candidates[rng.NextBounded(candidates.size())];
        reused = true;
      }
    }
    if (!reused) {
      rel = AddRandomRelation(&c, arity, rng);
      relations.emplace_back(rel, arity);
    }
    c.query.AddAtom(rel, vars);
  }
  return c;
}

struct OracleRow {
  std::vector<Value> assignment;
  double cost = 0.0;
  std::vector<double> cost_vector;  // full components (LEX); else empty
};

// Brute-force evaluation: backtracking over atoms, one tuple at a time,
// combining per-tuple weights with the dioid policy. Exponential, but
// the instances are tiny by construction. Arity-generic: it walks
// whatever columns each atom binds.
template <typename Policy>
std::vector<OracleRow> BruteForce(const Database& db,
                                  const ConjunctiveQuery& query) {
  std::vector<OracleRow> out;
  std::vector<Value> assignment(query.num_vars(), 0);
  std::vector<bool> bound(query.num_vars(), false);
  std::function<void(size_t, typename Policy::CostT)> recurse =
      [&](size_t atom_idx, typename Policy::CostT cost) {
        if (atom_idx == query.NumAtoms()) {
          out.push_back({assignment, Policy::ToDouble(cost),
                         Policy::Components(cost)});
          return;
        }
        const Atom& atom = query.atom(atom_idx);
        const Relation& rel = db.relation(atom.relation);
        for (RowId row = 0; row < rel.NumTuples(); ++row) {
          bool consistent = true;
          std::vector<VarId> newly_bound;
          for (size_t col = 0; col < atom.vars.size(); ++col) {
            const VarId var = atom.vars[col];
            const Value value = rel.At(row, col);
            if (bound[var]) {
              if (assignment[var] != value) {
                consistent = false;
                break;
              }
            } else {
              bound[var] = true;
              assignment[var] = value;
              newly_bound.push_back(var);
            }
          }
          if (consistent) {
            recurse(atom_idx + 1,
                    Policy::Combine(cost,
                                    Policy::FromWeight(rel.TupleWeight(row))));
          }
          for (const VarId var : newly_bound) bound[var] = false;
        }
      };
  recurse(0, Policy::Identity());
  return out;
}

bool AssignmentLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// The differential contract, full costs included for every dioid. LEX
// costs are whole vectors: since the leximax canonicalization the
// components are the descending-sorted member weights -- raw Weight
// values, never arithmetically combined -- so vector comparisons
// against the oracle are exact, and emission order is checked under the
// same full-vector order the engine's union merge uses.
void ExpectMatchesOracle(const std::vector<RankedResult>& got,
                         std::vector<OracleRow> want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;

  // Emission order must be non-decreasing in cost: primary double with
  // FP tolerance for the arithmetic dioids, exact full-vector order
  // (RankedCostLess) when components are present.
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i].cost_vector.empty() && got[i - 1].cost_vector.empty()) {
      ASSERT_LE(got[i - 1].cost, got[i].cost + 1e-9)
          << label << ": rank inversion at " << i;
    } else {
      ASSERT_FALSE(RankedCostLess(got[i], got[i - 1]))
          << label << ": full-vector rank inversion at " << i;
    }
  }

  // Multiset equality: sort both sides by (assignment, cost, vector)
  // and compare pairwise. Ties are interchangeable, and FP noise
  // between combination orders stays far under the tolerance.
  std::vector<OracleRow> sorted_got;
  sorted_got.reserve(got.size());
  for (const RankedResult& r : got) {
    sorted_got.push_back({r.assignment, r.cost, r.cost_vector});
  }
  const auto by_assignment_then_cost = [](const OracleRow& a,
                                          const OracleRow& b) {
    if (a.assignment != b.assignment) {
      return AssignmentLess(a.assignment, b.assignment);
    }
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.cost_vector < b.cost_vector;
  };
  std::sort(sorted_got.begin(), sorted_got.end(), by_assignment_then_cost);
  std::sort(want.begin(), want.end(), by_assignment_then_cost);
  for (size_t i = 0; i < sorted_got.size(); ++i) {
    ASSERT_EQ(sorted_got[i].assignment, want[i].assignment)
        << label << ": assignment multiset mismatch at " << i;
    ASSERT_NEAR(sorted_got[i].cost, want[i].cost, 1e-6)
        << label << ": cost mismatch at " << i;
    ASSERT_EQ(sorted_got[i].cost_vector, want[i].cost_vector)
        << label << ": cost vector mismatch at " << i;
  }
}

template <typename Policy>
void RunDifferential(const RandomCase& c, CostModelKind kind,
                     const std::string& label) {
  Engine engine;
  RankingSpec ranking;
  ranking.model = kind;
  ExecutionOptions opts;
  opts.force_algorithm = EnvVariant();
  auto result = engine.Execute(c.db, c.query, ranking, opts);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().message();
  ExpectMatchesOracle(Drain(result.value().stream.get()),
                      BruteForce<Policy>(c.db, c.query), label);
}

// Runs one case under all four dioids. Acyclic and cyclic queries get
// identical treatment: PR 3 made bag materialization dioid-aware, so the
// old "cyclic rejects non-SUM" pin is replaced by differential coverage.
void RunAllDioids(const RandomCase& c, const std::string& label) {
  RunDifferential<SumCost>(c, CostModelKind::kSum, label + " [sum]");
  RunDifferential<MaxCost>(c, CostModelKind::kMax, label + " [max]");
  RunDifferential<ProdCost>(c, CostModelKind::kProd, label + " [prod]");
  RunDifferential<LexCost>(c, CostModelKind::kLex, label + " [lex]");
}

TEST(DifferentialTest, RandomQueriesMatchBruteForceOracleAcrossDioids) {
  const size_t num_queries = NumRandomQueries();
  const uint64_t base_seed = BaseSeed();
  size_t acyclic_count = 0;
  size_t cyclic_count = 0;
  size_t hyperedge_count = 0;

  for (size_t q = 0; q < num_queries; ++q) {
    // Each case owns its seed so any failure reproduces alone (see the
    // file comment).
    const uint64_t seed = base_seed + q;
    Rng rng(seed);
    const RandomCase c = MakeRandomCase(rng);
    const bool acyclic = IsAcyclic(c.query);
    bool has_hyperedge = false;
    for (const Atom& atom : c.query.atoms()) {
      has_hyperedge |= atom.vars.size() > 2;
    }
    const std::string label = "seed=" + std::to_string(seed) + " (" +
                              (acyclic ? "acyclic" : "cyclic") + ") " +
                              c.query.DebugString(c.db);

    acyclic ? ++acyclic_count : ++cyclic_count;
    if (has_hyperedge) ++hyperedge_count;
    RunAllDioids(c, label);
  }

  // The generator must actually cover both planner families and the
  // ternary+ atoms the harness exists to validate. The floors scale with
  // the configured query count so the env-shrunk repro mode still runs.
  EXPECT_GE(acyclic_count, num_queries / 3);
  EXPECT_GE(cyclic_count, num_queries / 8);
  EXPECT_GE(hyperedge_count, num_queries / 8);
  EXPECT_EQ(acyclic_count + cyclic_count, num_queries);
}

// The planner's k class and the forced baselines change the chosen
// algorithm (any-k variant or batch-then-sort); none of them may change
// the stream's content. Pin a
// smaller sweep of every forced algorithm under every dioid, on direct,
// batch, bag and union plans: each cell instantiates its own artifact
// class through the one (algorithm -> class x SortMode) table in
// anyk/artifact.h, so the sweep checks that table cell by cell.
TEST(DifferentialTest, AllAlgorithmsAgreeAcrossStrategies) {
  constexpr size_t kNumQueries = 40;
  size_t tested_acyclic = 0;
  size_t tested_cyclic = 0;
  std::set<PlanStrategy> strategies;
  for (size_t q = 0; q < kNumQueries; ++q) {
    const uint64_t seed = 977 + q;
    Rng rng(seed);
    const RandomCase c = MakeRandomCase(rng);
    IsAcyclic(c.query) ? ++tested_acyclic : ++tested_cyclic;
    for (const CostModelKind kind :
         {CostModelKind::kSum, CostModelKind::kMax, CostModelKind::kProd,
          CostModelKind::kLex}) {
      const auto want = WithCostModel(kind, [&]<typename CM>() {
        return BruteForce<CM>(c.db, c.query);
      });
      RankingSpec ranking;
      ranking.model = kind;
      for (const AnyKAlgorithm algorithm :
           {AnyKAlgorithm::kRec, AnyKAlgorithm::kPartEager,
            AnyKAlgorithm::kPartLazy, AnyKAlgorithm::kPartTake2,
            AnyKAlgorithm::kPartMemoized, AnyKAlgorithm::kBatch}) {
        const std::string label =
            "algorithm " + std::string(AnyKAlgorithmName(algorithm)) + " [" +
            CostModelName(kind) + "] on seed=" + std::to_string(seed);
        Engine engine;
        ExecutionOptions opts;
        opts.force_algorithm = algorithm;
        auto result = engine.Execute(c.db, c.query, ranking, opts);
        ASSERT_TRUE(result.ok()) << label << ": " << result.status().message();
        strategies.insert(result.value().plan.strategy);
        ExpectMatchesOracle(Drain(result.value().stream.get()), want, label);
      }
    }
  }
  EXPECT_GE(tested_acyclic, 10u);
  EXPECT_GE(tested_cyclic, 3u);
  EXPECT_EQ(strategies,
            (std::set<PlanStrategy>{
                PlanStrategy::kAnyKDirect, PlanStrategy::kBatchSort,
                PlanStrategy::kDecompose, PlanStrategy::kUnionCases}));
}

// The four ANYK-PART successor variants share one candidate-evaluation
// routine (anyk_part.h), so across Eager/Lazy/Take2/Memoized the ranked
// streams must be *identical*: the emitted cost sequences bit-equal
// (same doubles, same full LEX vectors -- no FP tolerance needed), and
// the (assignment, cost) multisets equal. Equal-cost ties may permute
// between variants (group-list maintenance breaks ties differently);
// the multiset comparison absorbs exactly that and nothing else.
template <typename Policy>
void RunVariantSweep(const RandomCase& c, CostModelKind kind,
                     const std::string& label) {
  struct Row {
    std::vector<Value> assignment;
    double cost;
    std::vector<double> cost_vector;
    bool operator<(const Row& o) const {
      if (assignment != o.assignment) return assignment < o.assignment;
      if (cost != o.cost) return cost < o.cost;
      return cost_vector < o.cost_vector;
    }
    bool operator==(const Row& o) const {
      return assignment == o.assignment && cost == o.cost &&
             cost_vector == o.cost_vector;
    }
  };
  std::vector<double> ref_costs;
  std::vector<std::vector<double>> ref_vectors;
  std::vector<Row> ref_rows;
  bool have_ref = false;
  for (const PartVariant& variant : kPartVariants) {
    Engine engine;
    RankingSpec ranking;
    ranking.model = kind;
    ExecutionOptions opts;
    opts.force_algorithm = variant.algorithm;
    auto result = engine.Execute(c.db, c.query, ranking, opts);
    ASSERT_TRUE(result.ok())
        << label << ": " << result.status().message();
    const auto results = Drain(result.value().stream.get());
    std::vector<double> costs;
    std::vector<std::vector<double>> vectors;
    std::vector<Row> rows;
    for (const RankedResult& r : results) {
      costs.push_back(r.cost);
      vectors.push_back(r.cost_vector);
      rows.push_back({r.assignment, r.cost, r.cost_vector});
    }
    std::sort(rows.begin(), rows.end());
    if (!have_ref) {
      ref_costs = std::move(costs);
      ref_vectors = std::move(vectors);
      ref_rows = std::move(rows);
      have_ref = true;
      continue;
    }
    const std::string vlabel =
        label + " [" + variant.name + "]";
    ASSERT_EQ(costs, ref_costs) << vlabel << ": cost sequence diverged";
    ASSERT_EQ(vectors, ref_vectors)
        << vlabel << ": cost-vector sequence diverged";
    ASSERT_EQ(rows.size(), ref_rows.size()) << vlabel;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(rows[i] == ref_rows[i])
          << vlabel << ": result multiset diverged at " << i;
    }
  }
}

TEST(DifferentialTest, PartVariantsEmitIdenticalRankedStreams) {
  // Scaled down relative to the main sweep (each query runs 4 variants
  // x 4 dioids), scaled up together with it by TOPKJOIN_DIFF_QUERIES.
  const size_t num_queries = std::max<size_t>(NumRandomQueries() / 4, 20);
  const uint64_t base_seed = BaseSeed() + 7700000;
  for (size_t q = 0; q < num_queries; ++q) {
    const uint64_t seed = base_seed + q;
    Rng rng(seed);
    const RandomCase c = MakeRandomCase(rng);
    const std::string label =
        "variant-sweep seed=" + std::to_string(seed) + " " +
        c.query.DebugString(c.db);
    RunVariantSweep<SumCost>(c, CostModelKind::kSum, label + " [sum]");
    RunVariantSweep<MaxCost>(c, CostModelKind::kMax, label + " [max]");
    RunVariantSweep<ProdCost>(c, CostModelKind::kProd, label + " [prod]");
    RunVariantSweep<LexCost>(c, CostModelKind::kLex, label + " [lex]");
  }
}

// A random append delta touching every relation the case owns: a few
// rows per relation with values on the same small-domain scale the
// generator uses (so some appends join and some dangle) and fresh
// random weights.
Delta RandomAppendDelta(const RandomCase& c, Rng& rng) {
  Delta delta;
  for (RelationId id = 0; id < c.db.NumRelations(); ++id) {
    RelationDelta& rd = delta.ForRelation(id);
    const size_t arity = c.db.relation(id).arity();
    const size_t rows = 1 + rng.NextBounded(3);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t col = 0; col < arity; ++col) {
        rd.values.push_back(static_cast<Value>(rng.NextBounded(6)));
      }
      rd.weights.push_back(rng.NextDouble() * 10.0);
    }
  }
  return delta;
}

// The live-update differential contract: Execute pins a snapshot, so a
// stream half-drained when a delta commits must finish enumerating the
// PRE-mutation oracle exactly -- nothing lost, duplicated, or invented
// mid-flight -- while a fresh Execute on the same engine matches the
// POST-mutation oracle.
template <typename Policy>
void RunInterleavedMutation(uint64_t seed, CostModelKind kind,
                            const std::string& dioid) {
  // The database is mutated in place, so each dioid regenerates its
  // own copy of the case from the (reproducible) seed.
  Rng rng(seed);
  RandomCase c = MakeRandomCase(rng);
  const std::string label = "interleaved seed=" + std::to_string(seed) + " " +
                            c.query.DebugString(c.db) + " [" + dioid + "]";
  const std::vector<OracleRow> want_pre = BruteForce<Policy>(c.db, c.query);
  Engine engine;
  RankingSpec ranking;
  ranking.model = kind;
  auto result = engine.Execute(c.db, c.query, ranking, {});
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().message();
  RankedIterator* it = result.value().stream.get();

  std::vector<RankedResult> got;
  for (size_t i = 0; i < want_pre.size() / 2; ++i) {
    auto r = it->Next();
    ASSERT_TRUE(r.has_value()) << label << ": stream dried up early";
    got.push_back(std::move(*r));
  }

  ASSERT_TRUE(c.db.ApplyDelta(RandomAppendDelta(c, rng)).ok()) << label;

  while (auto r = it->Next()) got.push_back(std::move(*r));
  ExpectMatchesOracle(got, want_pre, label + " [pinned stream]");

  auto fresh = engine.Execute(c.db, c.query, ranking, {});
  ASSERT_TRUE(fresh.ok()) << label << ": " << fresh.status().message();
  ExpectMatchesOracle(Drain(fresh.value().stream.get()),
                      BruteForce<Policy>(c.db, c.query),
                      label + " [post-mutation stream]");
}

TEST(DifferentialTest, InterleavedMutationsPreserveSnapshotStreams) {
  // Scaled down like the variant sweep: each query runs the pinned +
  // post-mutation pair under all four dioids.
  const size_t num_queries = std::max<size_t>(NumRandomQueries() / 4, 20);
  const uint64_t base_seed = BaseSeed() + 9900000;
  for (size_t q = 0; q < num_queries; ++q) {
    const uint64_t seed = base_seed + q;
    RunInterleavedMutation<SumCost>(seed, CostModelKind::kSum, "sum");
    RunInterleavedMutation<MaxCost>(seed, CostModelKind::kMax, "max");
    RunInterleavedMutation<ProdCost>(seed, CostModelKind::kProd, "prod");
    RunInterleavedMutation<LexCost>(seed, CostModelKind::kLex, "lex");
  }
}

}  // namespace
}  // namespace topkjoin
