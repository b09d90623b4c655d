// Seeded inputs of the benchmark: two databases per workload (a "chain"
// database of large binary relations for the acyclic shapes and a
// "graph" database of denser edge relations for the cyclic ones), the
// query shapes over them, the hot query set, the stream of distinct
// cold queries, and the append deltas. Only these generated inputs
// reach the library; the seed never does.
#ifndef PERFBENCH_SRC_DATA_H_
#define PERFBENCH_SRC_DATA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/data/database.h"
#include "src/data/delta.h"
#include "src/engine/planner.h"
#include "src/query/cq.h"
#include "src/ranking/cost_model.h"
#include "src/util/rng.h"

namespace perfbench {

using topkjoin::ConjunctiveQuery;
using topkjoin::CostModelKind;
using topkjoin::Database;
using topkjoin::RelationId;

enum class Shape { kPath4, kStar3, kCycle4, kTriangle, kCycle6 };

const char* ShapeName(Shape shape);
bool IsCyclic(Shape shape);

/// Relations of one family share a shape group and a distribution.
struct FamilySpec {
  size_t relations = 0;
  size_t tuples = 0;
  topkjoin::Value domain = 0;
};

/// Sizes of one workload's data. Each family exists twice: uniform
/// columns, and the first column Zipf(theta)-skewed (the join variable
/// bound to it meets a uniform column of the neighbouring atom, so the
/// skew shapes group sizes without blowing up the output).
struct DataConfig {
  FamilySpec chain;     // path-4 and star-3
  FamilySpec triangle;  // triangle bags
  FamilySpec cycle4;    // heavy/light 4-cycle union
  FamilySpec cycle6;    // 6-cycle bags
  double theta = 0.8;
};

struct Dataset {
  std::unique_ptr<Database> chain;
  std::unique_ptr<Database> graph;
  /// (shape group, zipf) -> relation ids of that family.
  std::map<std::pair<Shape, bool>, std::vector<RelationId>> families;

  /// The family a query of `shape` draws its relations from.
  const std::vector<RelationId>& Family(Shape shape, bool zipf) const;
  Database& DbFor(Shape shape) const;
};

Dataset MakeDataset(const DataConfig& config, uint64_t seed);

struct QuerySpec {
  Shape shape = Shape::kPath4;
  bool zipf = false;
  CostModelKind model = CostModelKind::kSum;
  Database* db = nullptr;
  std::vector<RelationId> relations;  // one per atom
  ConjunctiveQuery query;
  std::string label;

  topkjoin::RankingSpec ranking() const { return {model}; }
  bool ReadsRelation(const Database* other, RelationId id) const;
};

QuerySpec MakeQuery(const Dataset& data, Shape shape, bool zipf,
                    CostModelKind model, std::vector<RelationId> relations);

/// Picks `atoms` distinct relations of the family at random.
std::vector<RelationId> PickRelations(const std::vector<RelationId>& family,
                                      size_t atoms, topkjoin::Rng& rng);

size_t NumAtoms(Shape shape);

/// The hot set shared by hot-serving and live-update: 16 queries in
/// popularity order (index 0 hottest), acyclic and cyclic, under SUM,
/// MAX and LEX. Which relations each reads is drawn from `seed`.
std::vector<QuerySpec> HotSet(const Dataset& data, uint64_t seed);

/// An endless stream of distinct queries: rounds over every (shape,
/// distribution, ranking) class in a seeded order, with fresh relation
/// choices per query; a repeat of an earlier query is redrawn.
class ColdStream {
 public:
  ColdStream(const Dataset* data, uint64_t seed);
  QuerySpec Next();

 private:
  struct Class {
    Shape shape;
    bool zipf;
    CostModelKind model;
  };
  const Dataset* data_;
  topkjoin::Rng rng_;
  std::vector<Class> classes_;
  size_t pos_ = 0;
  std::set<std::string> seen_;
};

/// The rows of relation `id` that survive the full reduction of every
/// acyclic query of `readers` that reads it, over `db`; empty when none
/// does. Appends only add tuples, so a row found here keeps joining at
/// every later epoch.
std::vector<topkjoin::RowId> JoiningRows(
    const Database& db, const std::vector<const QuerySpec*>& readers,
    RelationId id);

/// Appends `rows` tuples to relation `id`, each a copy of a random row
/// of `pool` (of all rows when `pool` is empty) with a fresh weight.
/// Copies of JoiningRows carry only join keys the reader's T-DP
/// artifact already holds, so the engine can patch that artifact
/// (TryPatch refuses unseen keys) instead of rebuilding it.
topkjoin::Delta DuplicatingDelta(const Database& db, RelationId id,
                                 const std::vector<topkjoin::RowId>& pool,
                                 size_t rows, topkjoin::Rng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DATA_H_
