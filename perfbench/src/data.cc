#include "src/data.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/data/generators.h"
#include "src/join/semijoin.h"
#include "src/query/hypergraph.h"
#include "src/util/common.h"

namespace perfbench {

using topkjoin::Rng;

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kPath4:
      return "path4";
    case Shape::kStar3:
      return "star3";
    case Shape::kCycle4:
      return "cycle4";
    case Shape::kTriangle:
      return "triangle";
    case Shape::kCycle6:
      return "cycle6";
  }
  return "?";
}

bool IsCyclic(Shape shape) {
  return shape != Shape::kPath4 && shape != Shape::kStar3;
}

size_t NumAtoms(Shape shape) {
  switch (shape) {
    case Shape::kPath4:
    case Shape::kStar3:
    case Shape::kTriangle:
      return 3;
    case Shape::kCycle4:
      return 4;
    case Shape::kCycle6:
      return 6;
  }
  return 0;
}

namespace {

// Path-4 and star-3 share the chain family.
Shape Group(Shape shape) {
  return shape == Shape::kStar3 ? Shape::kPath4 : shape;
}

void AddFamily(Database* db, Shape group, const FamilySpec& spec,
               double theta, Rng& rng, Dataset* data) {
  for (const bool zipf : {false, true}) {
    std::vector<RelationId>& ids = data->families[{group, zipf}];
    for (size_t i = 0; i < spec.relations; ++i) {
      std::string name = std::string(ShapeName(group)) + (zipf ? "_z" : "_u") +
                         std::to_string(i);
      ids.push_back(db->Add(
          zipf ? topkjoin::SkewedBinaryRelation(std::move(name), spec.tuples,
                                                spec.domain, theta, rng)
               : topkjoin::UniformBinaryRelation(std::move(name), spec.tuples,
                                                 spec.domain, rng)));
    }
  }
}

}  // namespace

const std::vector<RelationId>& Dataset::Family(Shape shape, bool zipf) const {
  return families.at({Group(shape), zipf});
}

Database& Dataset::DbFor(Shape shape) const {
  return IsCyclic(shape) ? *graph : *chain;
}

Dataset MakeDataset(const DataConfig& config, uint64_t seed) {
  Dataset data;
  data.chain = std::make_unique<Database>();
  data.graph = std::make_unique<Database>();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  AddFamily(data.chain.get(), Shape::kPath4, config.chain, config.theta, rng,
            &data);
  AddFamily(data.graph.get(), Shape::kTriangle, config.triangle, config.theta,
            rng, &data);
  AddFamily(data.graph.get(), Shape::kCycle4, config.cycle4, config.theta, rng,
            &data);
  if (config.cycle6.relations > 0) {
    AddFamily(data.graph.get(), Shape::kCycle6, config.cycle6, config.theta,
              rng, &data);
  }
  return data;
}

bool QuerySpec::ReadsRelation(const Database* other, RelationId id) const {
  return db == other &&
         std::find(relations.begin(), relations.end(), id) != relations.end();
}

QuerySpec MakeQuery(const Dataset& data, Shape shape, bool zipf,
                    CostModelKind model, std::vector<RelationId> relations) {
  TOPKJOIN_CHECK(relations.size() == NumAtoms(shape));
  QuerySpec spec;
  spec.shape = shape;
  spec.zipf = zipf;
  spec.model = model;
  spec.db = &data.DbFor(shape);
  spec.relations = std::move(relations);
  const std::vector<RelationId>& r = spec.relations;
  switch (shape) {
    case Shape::kPath4:
      spec.query.AddAtom(r[0], {0, 1});
      spec.query.AddAtom(r[1], {1, 2});
      spec.query.AddAtom(r[2], {2, 3});
      break;
    case Shape::kStar3:
      // The centre x0 is bound to the (possibly skewed) first column of
      // one atom only and to uniform second columns of the others.
      spec.query.AddAtom(r[0], {0, 1});
      spec.query.AddAtom(r[1], {2, 0});
      spec.query.AddAtom(r[2], {3, 0});
      break;
    case Shape::kTriangle:
    case Shape::kCycle4:
    case Shape::kCycle6: {
      const int n = static_cast<int>(r.size());
      for (int i = 0; i < n; ++i) spec.query.AddAtom(r[i], {i, (i + 1) % n});
      break;
    }
  }
  spec.label = std::string(ShapeName(shape)) + (zipf ? "/zipf/" : "/uniform/") +
               topkjoin::CostModelName(model) + "/";
  for (size_t i = 0; i < r.size(); ++i) {
    spec.label += (i ? "," : "") + std::to_string(r[i]);
  }
  return spec;
}

std::vector<RelationId> PickRelations(const std::vector<RelationId>& family,
                                      size_t atoms, Rng& rng) {
  TOPKJOIN_CHECK(family.size() >= atoms);
  std::vector<RelationId> pool = family;
  std::vector<RelationId> picked;
  for (size_t i = 0; i < atoms; ++i) {
    const size_t j = i + rng.NextBounded(pool.size() - i);
    std::swap(pool[i], pool[j]);
    picked.push_back(pool[i]);
  }
  return picked;
}

std::vector<QuerySpec> HotSet(const Dataset& data, uint64_t seed) {
  using M = CostModelKind;
  struct Entry {
    Shape shape;
    bool zipf;
    M model;
  };
  // Popularity order: acyclic and cyclic queries and the three rankings
  // are spread over the ranks, so no class owns the head of the Zipf.
  static constexpr Entry kHot[] = {
      {Shape::kPath4, false, M::kSum},    {Shape::kCycle4, false, M::kSum},
      {Shape::kStar3, true, M::kMax},     {Shape::kTriangle, false, M::kLex},
      {Shape::kPath4, true, M::kLex},     {Shape::kStar3, false, M::kSum},
      {Shape::kCycle4, true, M::kMax},    {Shape::kPath4, false, M::kMax},
      {Shape::kTriangle, true, M::kSum},  {Shape::kStar3, true, M::kLex},
      {Shape::kPath4, true, M::kSum},     {Shape::kCycle4, false, M::kLex},
      {Shape::kStar3, false, M::kMax},    {Shape::kTriangle, false, M::kMax},
      {Shape::kPath4, false, M::kLex},    {Shape::kStar3, true, M::kSum},
  };
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  std::vector<QuerySpec> hot;
  for (const Entry& e : kHot) {
    hot.push_back(MakeQuery(
        data, e.shape, e.zipf, e.model,
        PickRelations(data.Family(e.shape, e.zipf), NumAtoms(e.shape), rng)));
  }
  return hot;
}

ColdStream::ColdStream(const Dataset* data, uint64_t seed)
    : data_(data), rng_(seed * 0x94d049bb133111ebULL + 3) {
  for (const Shape shape : {Shape::kPath4, Shape::kStar3, Shape::kCycle4,
                            Shape::kTriangle, Shape::kCycle6}) {
    for (const bool zipf : {false, true}) {
      for (const CostModelKind model :
           {CostModelKind::kSum, CostModelKind::kMax, CostModelKind::kLex}) {
        classes_.push_back({shape, zipf, model});
      }
    }
  }
  pos_ = classes_.size();
}

namespace {

// The relation list up to the symmetries of the shape: a cycle's
// rotations and star-3's two leaf atoms give isomorphic queries, which
// a cache keyed on the canonical query could share.
std::vector<RelationId> Canonical(Shape shape, std::vector<RelationId> r) {
  if (IsCyclic(shape)) {
    std::rotate(r.begin(), std::min_element(r.begin(), r.end()), r.end());
  } else if (shape == Shape::kStar3) {
    std::sort(r.begin() + 1, r.end());
  }
  return r;
}

}  // namespace

QuerySpec ColdStream::Next() {
  if (pos_ == classes_.size()) {
    for (size_t i = classes_.size(); i > 1; --i) {
      std::swap(classes_[i - 1], classes_[rng_.NextBounded(i)]);
    }
    pos_ = 0;
  }
  const Class c = classes_[pos_++];
  for (int tries = 0;; ++tries) {
    // The families are sized so a run never exhausts a class.
    TOPKJOIN_CHECK(tries < 10000);
    std::vector<RelationId> relations =
        PickRelations(data_->Family(c.shape, c.zipf), NumAtoms(c.shape), rng_);
    std::string key = std::string(ShapeName(c.shape)) + "/" +
                      topkjoin::CostModelName(c.model);
    for (const RelationId id : Canonical(c.shape, relations)) {
      key += "," + std::to_string(id);
    }
    if (seen_.insert(key).second) {
      return MakeQuery(*data_, c.shape, c.zipf, c.model, std::move(relations));
    }
  }
}

std::vector<topkjoin::RowId> JoiningRows(
    const Database& db, const std::vector<const QuerySpec*>& readers,
    RelationId id) {
  std::vector<topkjoin::RowId> rows;
  bool first = true;
  for (const QuerySpec* reader : readers) {
    const auto atom = std::find(reader->relations.begin(),
                                reader->relations.end(), id);
    const auto tree = topkjoin::GyoJoinTree(reader->query);
    if (atom == reader->relations.end() || !tree.has_value()) continue;
    topkjoin::ReducedInstance instance =
        topkjoin::MakeInstance(db, reader->query);
    topkjoin::FullReducer(reader->query, *tree, &instance, nullptr);
    std::vector<topkjoin::RowId> kept =
        instance.provenance[atom - reader->relations.begin()];
    std::sort(kept.begin(), kept.end());
    if (!first) {
      std::vector<topkjoin::RowId> both;
      std::set_intersection(rows.begin(), rows.end(), kept.begin(),
                            kept.end(), std::back_inserter(both));
      kept = std::move(both);
    }
    rows = std::move(kept);
    first = false;
  }
  return rows;
}

topkjoin::Delta DuplicatingDelta(const Database& db, RelationId id,
                                 const std::vector<topkjoin::RowId>& pool,
                                 size_t rows, Rng& rng) {
  topkjoin::Delta delta;
  const topkjoin::Relation& rel = db.relation(id);
  topkjoin::RelationDelta& rd = delta.ForRelation(id);
  for (size_t i = 0; i < rows; ++i) {
    const topkjoin::RowId row =
        pool.empty() ? rng.NextBounded(rel.NumTuples())
                     : pool[rng.NextBounded(pool.size())];
    for (const topkjoin::Value v : rel.Tuple(row)) rd.values.push_back(v);
    rd.weights.push_back(rng.NextDouble());
  }
  return delta;
}

}  // namespace perfbench
