#include "src/data/database.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/failpoint.h"

namespace topkjoin {

uint64_t Database::NextEpochSeed() {
  // Distinct high bits per Database instance; the low 32 bits count
  // mutations. Two objects would need 2^32 bumps to collide.
  static std::atomic<uint64_t> epoch{1};
  return epoch.fetch_add(1, std::memory_order_relaxed) << 32;
}

Database::Database(Database&& other) noexcept
    : relations_(std::move(other.relations_)),
      version_(other.version_.load(std::memory_order_relaxed)),
      published_(std::move(other.published_)),
      log_(std::move(other.log_)),
      log_floor_(other.log_floor_) {}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) {
    relations_ = std::move(other.relations_);
    version_.store(other.version_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    published_ = std::move(other.published_);
    log_ = std::move(other.log_);
    log_floor_ = other.log_floor_;
  }
  return *this;
}

std::shared_ptr<const DatabaseSnapshot> Database::BuildSnapshotLocked(
    uint64_t epoch) const {
  auto snap = std::shared_ptr<DatabaseSnapshot>(new DatabaseSnapshot());
  snap->epoch_ = epoch;
  snap->view_.relations_.reserve(relations_.size());
  for (const auto& r : relations_) {
    // Chunk-sharing copy: O(#chunks), and copy-on-write keeps it frozen.
    snap->view_.relations_.push_back(std::make_unique<Relation>(*r));
  }
  snap->view_.version_.store(epoch, std::memory_order_relaxed);
  snap->view_.log_floor_ = epoch;
  return snap;
}

void Database::PublishLocked(uint64_t new_version) {
  // Commit-then-publish: the snapshot of the *completed* mutation is
  // installed before version_ advances, so a reader that observes the
  // new version can never pick up mid-mutation state.
  published_ = BuildSnapshotLocked(new_version);
  version_.store(new_version, std::memory_order_release);
}

void Database::BarrierLocked(uint64_t new_version) {
  log_.clear();
  log_floor_ = new_version;
}

void Database::TrimLogLocked() {
  // Drop whole versions from the front so the remaining log is always a
  // contiguous, complete suffix of commit history above log_floor_.
  while (log_.size() > kMaxLogEntries) {
    const uint64_t victim = log_.front().to_version;
    while (!log_.empty() && log_.front().to_version == victim) {
      log_.pop_front();
    }
    log_floor_ = victim;
  }
}

RelationId Database::Add(Relation relation) {
  MutexLock lock(&mu_);
  relations_.push_back(std::make_unique<Relation>(std::move(relation)));
  const uint64_t new_version = version_.load(std::memory_order_relaxed) + 1;
  BarrierLocked(new_version);
  PublishLocked(new_version);
  return relations_.size() - 1;
}

MutableRelationRef Database::mutable_relation(RelationId id) {
  TOPKJOIN_DCHECK(id < relations_.size());
  return MutableRelationRef(this, relations_[id].get());
}

MutableRelationRef::MutableRelationRef(Database* db, Relation* relation)
    : db_(db), relation_(relation) {
  db_->mu_.Lock();
}

MutableRelationRef::~MutableRelationRef() {
  // The caller's mutation (if any) is complete by now; commit it.
  // Conservative: handing out mutable access counts as a data change,
  // and since the guard may have sorted/filtered (row ids invalidated),
  // it is a delta-log barrier, not an append.
  const uint64_t new_version =
      db_->version_.load(std::memory_order_relaxed) + 1;
  db_->BarrierLocked(new_version);
  db_->PublishLocked(new_version);
  db_->mu_.Unlock();
}

Status Database::ApplyDelta(const Delta& delta) {
  ScopedTimer timer(
      MetricsRegistry::Global().GetHistogram("data.delta_apply_ns"));
  // The failpoint sits BEFORE the commit: an injected error is a clean
  // pre-commit abort (database untouched, same contract as validation
  // failure), and an injected delay stretches the window in which
  // concurrent opens race the version bump -- the race chaos tests
  // widen on purpose.
  if constexpr (kFailpointsEnabled) {
    const Status s = FailpointRegistry::Global().Evaluate("data.apply_delta");
    if (!s.ok()) return s;
  }
  MutexLock lock(&mu_);
  for (const RelationDelta& rd : delta.relations) {
    if (rd.relation >= relations_.size()) {
      return Status::NotFound("ApplyDelta: unknown relation id");
    }
    const size_t arity = relations_[rd.relation]->arity();
    if (rd.values.size() != rd.weights.size() * arity) {
      return Status::Error("ApplyDelta: values/weights arity mismatch for " +
                           relations_[rd.relation]->name());
    }
  }
  const uint64_t new_version = version_.load(std::memory_order_relaxed) + 1;
  size_t total_rows = 0;
  for (const RelationDelta& rd : delta.relations) {
    if (rd.NumRows() == 0) continue;
    Relation& rel = *relations_[rd.relation];
    const size_t arity = rel.arity();
    const RowId first = static_cast<RowId>(rel.NumTuples());
    for (size_t i = 0; i < rd.NumRows(); ++i) {
      rel.AddTuple(
          std::span<const Value>(rd.values.data() + i * arity, arity),
          rd.weights[i]);
    }
    log_.push_back(AppendDelta{.to_version = new_version,
                               .relation = rd.relation,
                               .first_row = first,
                               .num_rows = static_cast<uint32_t>(rd.NumRows())});
    total_rows += rd.NumRows();
  }
  TrimLogLocked();
  PublishLocked(new_version);
  MetricsRegistry::Global().GetCounter("data.deltas_applied")->Increment();
  MetricsRegistry::Global().GetCounter("data.delta_rows")->Add(total_rows);
  return Status::Ok();
}

std::shared_ptr<const DatabaseSnapshot> Database::Snapshot() const {
  MutexLock lock(&mu_);
  if (published_ == nullptr) {
    published_ = BuildSnapshotLocked(version_.load(std::memory_order_relaxed));
  }
  return published_;
}

bool Database::DeltasSince(uint64_t from_version,
                           std::vector<AppendDelta>* out) const {
  MutexLock lock(&mu_);
  const uint64_t current = version_.load(std::memory_order_relaxed);
  out->clear();
  if (from_version == current) return true;  // already caught up
  if (from_version > current || from_version < log_floor_) return false;
  for (const AppendDelta& d : log_) {
    if (d.to_version > from_version) out->push_back(d);
  }
  return true;
}

const Relation* Database::Find(const std::string& name) const {
  for (const auto& r : relations_) {
    if (r->name() == name) return r.get();
  }
  return nullptr;
}

size_t Database::MaxRelationSize() const {
  size_t n = 0;
  for (const auto& r : relations_) n = std::max(n, r->NumTuples());
  return n;
}

}  // namespace topkjoin
