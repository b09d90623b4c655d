#include "src/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/data.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/obs/metrics.h"
#include "src/replay.h"
#include "src/serving/serving_engine.h"

namespace perfbench {
namespace {

using topkjoin::CursorId;
using topkjoin::DatabaseSnapshot;
using topkjoin::ExecutionOptions;
using topkjoin::FetchOutcome;
using topkjoin::Rng;
using topkjoin::ServingEngine;
using topkjoin::ServingOptions;
using topkjoin::SessionId;
using topkjoin::StatusOr;

constexpr size_t kDeltaRows = 64;
constexpr int kSetupRepeats = 5;

/// Parameters of one workload; the defaults are cold-topk's.
struct Profile {
  DataConfig data;
  size_t k = 10;            // results per request
  size_t slice = 9;         // results per slice after the 1-result first
  size_t workers = 0;       // ServingEngine worker threads (0 = inline)
  size_t clients = 1;       // closed-loop client threads
  size_t delta_every = 8;   // requests between deltas (client 0)
  double delta_period_ms = 0;  // live-update's write period
  size_t sample_every = 16; // requests between reference checks
  size_t max_samples = 12;
  size_t count_requests = 24;  // requests of the deterministic count pass
  std::optional<topkjoin::AnyKAlgorithm> algorithm;  // unset: the planner's
};

Profile ColdProfile() {
  Profile p;
  // Many relations per family: every (shape, distribution, ranking)
  // class needs hundreds of distinct queries (a 20 s run opens about 60
  // per class), and a run that draws its queries from many relations
  // averages out how one seed's relations happen to join.
  p.data.chain = {16, 20000, 10000};
  p.data.triangle = {16, 2000, 250};
  p.data.cycle4 = {12, 1500, 200};
  p.data.cycle6 = {16, 300, 75};
  return p;
}

DataConfig HotData() {
  DataConfig d;
  d.chain = {6, 50000, 25000};
  d.triangle = {3, 4000, 150};
  d.cycle4 = {4, 3000, 200};
  return d;
}

// The hot set's algorithm. ANYK-REC is the planner's pick for every
// acyclic hot query at k = 10^4. The cyclic ones hold 2-5x that many
// results, where the planner's choice between batch-sort and any-k
// follows the estimate -- which can be off by 100x on a 4-cycle -- so
// it would flip with the seed, and with it the setup and open times.
constexpr topkjoin::AnyKAlgorithm kHotAlgorithm = topkjoin::AnyKAlgorithm::kRec;

Profile HotProfile() {
  Profile p;
  p.data = HotData();
  p.k = 10000;
  p.slice = 1000;
  p.workers = 2;
  p.clients = 2;
  p.delta_every = 2;
  p.algorithm = kHotAlgorithm;
  p.sample_every = 64;
  p.max_samples = 8;
  p.count_requests = 32;
  return p;
}

Profile LiveProfile() {
  Profile p;
  p.data = HotData();
  p.k = 100;
  p.slice = 99;
  p.delta_period_ms = 50;
  p.algorithm = kHotAlgorithm;
  p.sample_every = 32;
  p.max_samples = 12;
  p.count_requests = 64;
  return p;
}

ExecutionOptions OptionsFor(const Profile& p) {
  ExecutionOptions opts;
  opts.k = p.k;
  opts.force_algorithm = p.algorithm;
  return opts;
}

// ------------------------------------------------------------ schedules

/// What a client does next: apply a delta, or run one request.
struct Action {
  bool delta = false;
  Database* db = nullptr;
  RelationId relation = 0;
  /// A delta's rows join in every query of `readers` (none: any rows).
  std::vector<const QuerySpec*> readers;
  /// A request's query.
  const QuerySpec* spec = nullptr;
  bool after_delta = false;
};

class Schedule {
 public:
  virtual ~Schedule() = default;
  virtual Action Next() = 0;
};

/// cold-topk: distinct queries; every `delta_every` requests a delta to
/// one relation the upcoming query reads, so the open after it reads
/// the new epoch.
class ColdSchedule : public Schedule {
 public:
  ColdSchedule(const Dataset* data, uint64_t seed, size_t delta_every)
      : stream_(data, seed), delta_every_(delta_every),
        rng_(seed * 0xd6e8feb86659fd93ULL + 5) {}

  Action Next() override {
    if (pending_ == nullptr) {
      specs_.push_back(stream_.Next());
      pending_ = &specs_.back();
      if (requests_ > 0 && requests_ % delta_every_ == 0) {
        Action a;
        a.delta = true;
        a.db = pending_->db;
        a.relation =
            pending_->relations[rng_.NextBounded(pending_->relations.size())];
        a.readers = {pending_};
        after_delta_ = true;
        return a;
      }
    }
    Action a;
    a.spec = pending_;
    a.after_delta = after_delta_;
    pending_ = nullptr;
    after_delta_ = false;
    ++requests_;
    return a;
  }

 private:
  ColdStream stream_;
  size_t delta_every_;
  Rng rng_;
  std::deque<QuerySpec> specs_;  // stable addresses for in-flight specs
  const QuerySpec* pending_ = nullptr;
  bool after_delta_ = false;
  size_t requests_ = 0;
};

/// Chain relations read by acyclic hot queries: the delta targets.
std::vector<RelationId> HotDeltaTargets(const std::vector<QuerySpec>& hot,
                                        const Database* chain) {
  std::vector<RelationId> targets;
  for (const QuerySpec& q : hot) {
    if (q.db != chain) continue;
    for (RelationId r : q.relations) targets.push_back(r);
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  return targets;
}

/// The hot queries that read `relation`, hottest first.
std::vector<const QuerySpec*> ReadersOf(const std::vector<QuerySpec>& hot,
                                        const Database* chain,
                                        RelationId relation) {
  std::vector<const QuerySpec*> readers;
  for (const QuerySpec& q : hot) {
    if (q.ReadsRelation(chain, relation)) readers.push_back(&q);
  }
  return readers;
}

/// hot-serving: the hot set by Zipf(0.8) popularity. Each client cycles
/// through a seeded shuffle of a fixed multiset holding every query in
/// proportion to its popularity, so any stretch of a run sees the same
/// mix (random draws would make the mix, and so every timing, vary with
/// the seed). Client 0 applies a delta every `delta_every` requests to
/// `side`, a database no hot query reads, so the hot caches stay valid
/// and the open after a delta is the warm path.
class HotSchedule : public Schedule {
 public:
  HotSchedule(const std::vector<QuerySpec>* hot, Database* side,
              uint64_t seed, size_t client, size_t delta_every)
      : hot_(hot), side_(side),
        rng_(seed * 0x2545f4914f6cdd1dULL + 11 + client),
        writer_(client == 0), delta_every_(delta_every) {
    constexpr double kCycle = 96;  // requests per cycle
    double total = 0;
    for (size_t i = 0; i < hot->size(); ++i) total += std::pow(i + 1.0, -0.8);
    for (size_t i = 0; i < hot->size(); ++i) {
      const double share = std::pow(i + 1.0, -0.8) / total;
      const size_t copies = std::max<size_t>(1, std::lround(kCycle * share));
      cycle_.insert(cycle_.end(), copies, i);
    }
    pos_ = cycle_.size();
  }

  Action Next() override {
    Action a;
    if (writer_ && !after_delta_ && requests_ > 0 &&
        requests_ % delta_every_ == 0) {
      a.delta = true;
      a.db = side_;
      after_delta_ = true;
      return a;
    }
    if (pos_ == cycle_.size()) {
      for (size_t i = cycle_.size(); i > 1; --i) {
        std::swap(cycle_[i - 1], cycle_[rng_.NextBounded(i)]);
      }
      pos_ = 0;
    }
    a.spec = &(*hot_)[cycle_[pos_++]];
    a.after_delta = after_delta_;
    after_delta_ = false;
    ++requests_;
    return a;
  }

 private:
  const std::vector<QuerySpec>* hot_;
  Database* side_;
  Rng rng_;
  bool writer_;
  size_t delta_every_;
  std::vector<size_t> cycle_;
  size_t pos_ = 0;
  size_t requests_ = 0;
  bool after_delta_ = false;
};

/// live-update: 64-row appends to the chain relations of the hot set,
/// one every `delta_period_ns` of wall time (0: one per round over the
/// hot set), beside closed-loop opens of the hot set in seeded rounds;
/// the open after a delta reads its relation. A fixed write rate keeps
/// the data's growth over a run -- and so the cost of every read --
/// independent of how fast the reads go.
class LiveSchedule : public Schedule {
 public:
  LiveSchedule(const std::vector<QuerySpec>* hot, Database* chain,
               uint64_t seed, int64_t delta_period_ns)
      : hot_(hot), chain_(chain), rng_(seed * 0x9fb21c651e98df25ULL + 13),
        period_ns_(delta_period_ns), targets_(HotDeltaTargets(*hot, chain)) {}

  Action Next() override {
    const bool due = period_ns_ > 0 ? NowNs() >= next_due_ns_
                                    : reads_since_delta_ >= hot_->size();
    Action a;
    if (due || deltas_ == 0) {
      a.delta = true;
      a.db = chain_;
      a.relation = targets_[deltas_++ % targets_.size()];
      a.readers = ReadersOf(*hot_, chain_, a.relation);
      reader_ = a.readers.front();
      next_due_ns_ = NowNs() + period_ns_;
      reads_since_delta_ = 0;
      return a;
    }
    ++reads_since_delta_;
    if (reader_ != nullptr) {
      a.spec = reader_;
      a.after_delta = true;
      reader_ = nullptr;
      return a;
    }
    if (round_.empty()) {
      for (const QuerySpec& q : *hot_) round_.push_back(&q);
      for (size_t i = round_.size(); i > 1; --i) {
        std::swap(round_[i - 1], round_[rng_.NextBounded(i)]);
      }
    }
    a.spec = round_.back();
    round_.pop_back();
    return a;
  }

 private:
  const std::vector<QuerySpec>* hot_;
  Database* chain_;
  Rng rng_;
  int64_t period_ns_;
  std::vector<RelationId> targets_;
  std::vector<const QuerySpec*> round_;
  const QuerySpec* reader_ = nullptr;
  size_t deltas_ = 0;
  size_t reads_since_delta_ = 0;
  int64_t next_due_ns_ = 0;
};

// ------------------------------------------------------------- clients

/// End-to-end observations of one client.
struct Recorder {
  Samples ttf_ms, ttk_ms, open_ms, slice_ms, delta_ms, ttf_after_delta_ms;
  Samples queue_wait_us, slice_service_us;
  int64_t results = 0;
  int64_t queries = 0;

  void Merge(const Recorder& o) {
    ttf_ms.Append(o.ttf_ms);
    ttk_ms.Append(o.ttk_ms);
    open_ms.Append(o.open_ms);
    slice_ms.Append(o.slice_ms);
    delta_ms.Append(o.delta_ms);
    ttf_after_delta_ms.Append(o.ttf_after_delta_ms);
    queue_wait_us.Append(o.queue_wait_us);
    slice_service_us.Append(o.slice_service_us);
    results += o.results;
    queries += o.queries;
  }
};

/// A request whose first k costs are checked after the run against a
/// reference computed on the same snapshot.
struct CheckSample {
  std::shared_ptr<const DatabaseSnapshot> snap;
  QuerySpec spec;
  std::vector<Cost> head;
  size_t k = 0;
  bool after_delta = false;
};

/// A traced request, kept for the replay of its open.
struct TracedRequest {
  uint64_t request = 0;
  uint64_t open_span = 0;
  uint64_t first_slice_span = 0;
  Replayable replay;
  int64_t ttf_ns = 0;
};

struct Client {
  ServingEngine* engine = nullptr;
  SessionId session = 0;
  Tally* tally = nullptr;
  Schedule* schedule = nullptr;
  const Profile* profile = nullptr;
  SpanLog* log = nullptr;  // set in the traced phase only
  bool check = true;       // keep samples for the output checks
  Rng delta_rng{1};
  Recorder rec;
  std::vector<CheckSample> samples;
  size_t after_delta_samples = 0;
  std::vector<TracedRequest> traced;
  size_t requests = 0;
  uint64_t sample_phase = 0;
  // The snapshot before the client's last delta, and its database.
  std::shared_ptr<const DatabaseSnapshot> pre_delta;
  const Database* pre_delta_db = nullptr;
  // JoiningRows per (first reader, relation) of the client's deltas.
  std::map<std::pair<const QuerySpec*, RelationId>,
           std::vector<topkjoin::RowId>>
      joining_rows;
};

struct SliceResult {
  StatusOr<FetchOutcome> outcome;
  int64_t end_ns = 0;
};

/// Submits one slice and blocks until its callback has run (closed
/// loop: a client has at most one slice outstanding).
SliceResult SubmitAndWait(ServingEngine* engine, CursorId id, size_t n) {
  std::promise<SliceResult> done;
  std::future<SliceResult> result = done.get_future();
  engine->SubmitFetch(id, n, [&done](CursorId, StatusOr<FetchOutcome> r) {
    const int64_t end = NowNs();
    done.set_value({std::move(r), end});
  });
  return result.get();
}

uint64_t SessionQueueWait(const Client& c) {
  auto stats = c.engine->GetSessionStats(c.session);
  return stats.ok() ? stats.value().queue_wait_ns : 0;
}

void ApplyDelta(Client& c, const Action& a) {
  static const std::vector<topkjoin::RowId> kAnyRow;
  const std::vector<topkjoin::RowId>* pool = &kAnyRow;
  if (!a.readers.empty()) {
    auto [it, fresh] =
        c.joining_rows.try_emplace({a.readers.front(), a.relation});
    if (fresh) it->second = JoiningRows(*a.db, a.readers, a.relation);
    pool = &it->second;
  }
  const topkjoin::Delta delta =
      DuplicatingDelta(*a.db, a.relation, *pool, kDeltaRows, c.delta_rng);
  c.pre_delta = a.db->Snapshot();
  c.pre_delta_db = a.db;
  const int64_t start = NowNs();
  const topkjoin::Status st = a.db->ApplyDelta(delta);
  const int64_t end = NowNs();
  c.tally->Attempt(st.ok(), "ApplyDelta");
  c.rec.delta_ms.Add(static_cast<double>(end - start) / 1e6);
  if (c.log != nullptr) {
    const uint64_t req = c.log->NewId();
    c.log->Record("data.apply_delta", req, 0, start, end);
  }
}

std::shared_ptr<const DatabaseSnapshot> PreDelta(const Client& c,
                                                 const QuerySpec& spec,
                                                 bool after_delta) {
  return after_delta && c.pre_delta_db == spec.db ? c.pre_delta : nullptr;
}

void RunRequest(Client& c, const QuerySpec& spec, bool after_delta) {
  const Profile& p = *c.profile;
  SpanLog* log = c.log;
  const uint64_t req = log != nullptr ? log->NewId() : 0;
  const int64_t req_start = NowNs();
  std::shared_ptr<const DatabaseSnapshot> snap = spec.db->Snapshot();
  if (log != nullptr) log->Record("data.snapshot", req, req, req_start, NowNs());

  const ExecutionOptions opts = OptionsFor(p);
  const int64_t open_start = NowNs();
  auto opened = c.engine->OpenCursor(c.session, *spec.db, spec.query,
                                     spec.ranking(), opts);
  const int64_t open_end = NowNs();
  c.tally->Attempt(opened.ok(), "OpenCursor");
  if (!opened.ok()) {
    std::fprintf(stderr, "  %s: %s\n", spec.label.c_str(),
                 opened.status().message().c_str());
    return;
  }
  const CursorId id = opened.value();
  // No delta committed between our snapshot and the open's end, so the
  // cursor pinned exactly `snap`.
  const bool pinned = spec.db->version() == snap->epoch();
  const uint64_t open_span =
      log != nullptr
          ? log->Record("serving.open", req, req, open_start, open_end)
          : 0;

  const bool sample =
      c.check && pinned &&
      ((after_delta && c.after_delta_samples < 6) ||
                 (c.requests % p.sample_every == c.sample_phase &&
                  c.samples.size() < p.max_samples));
  std::vector<Cost> head;
  size_t got = 0;
  bool ordered = true;
  Cost last;
  int64_t ttf_end = 0;
  int64_t last_end = open_end;
  uint64_t first_slice_span = 0;
  size_t want = 1;
  topkjoin::CursorState state = topkjoin::CursorState::kActive;
  while (got < p.k && state == topkjoin::CursorState::kActive) {
    const uint64_t wait_before = log != nullptr ? SessionQueueWait(c) : 0;
    const int64_t slice_start = NowNs();
    SliceResult slice = SubmitAndWait(c.engine, id, want);
    c.tally->Attempt(slice.outcome.ok(), "SubmitFetch");
    if (!slice.outcome.ok()) break;
    const FetchOutcome& out = slice.outcome.value();
    const double slice_ns = static_cast<double>(slice.end_ns - slice_start);
    uint64_t span = 0;
    if (log != nullptr) {
      const double wait = static_cast<double>(SessionQueueWait(c) - wait_before);
      c.rec.queue_wait_us.Add(wait / 1e3);
      c.rec.slice_service_us.Add((slice_ns - wait) / 1e3);
      span = log->Record("serving.slice", req, req, slice_start, slice.end_ns);
    }
    if (got == 0) {
      ttf_end = slice.end_ns;
      first_slice_span = span;
    } else {
      c.rec.slice_ms.Add(slice_ns / 1e6);
    }
    for (const topkjoin::RankedResult& r : out.results) {
      Cost cost = CostOf(r);
      if (got > 0 && !NotBefore(last, cost)) ordered = false;
      if (sample) head.push_back(cost);
      last = std::move(cost);
      ++got;
    }
    last_end = slice.end_ns;
    state = out.cursor_state;
    if (out.results.empty()) break;
    want = std::min(p.slice, p.k - got);
  }
  const int64_t close_start = NowNs();
  c.tally->Attempt(c.engine->CloseCursor(id).ok(), "CloseCursor");
  const int64_t close_end = NowNs();
  // Every request must return at least one result, in rank order.
  c.tally->Attempt(got > 0, "request returned no result");
  c.tally->Attempt(ordered, "stream costs decreased");
  if (!ordered || got == 0) std::fprintf(stderr, "  %s\n", spec.label.c_str());
  ++c.requests;
  if (got == 0) return;

  c.rec.open_ms.Add(static_cast<double>(open_end - open_start) / 1e6);
  c.rec.ttf_ms.Add(static_cast<double>(ttf_end - open_start) / 1e6);
  if (after_delta) {
    c.rec.ttf_after_delta_ms.Add(static_cast<double>(ttf_end - open_start) /
                                 1e6);
  }
  c.rec.ttk_ms.Add(static_cast<double>(last_end - open_start) / 1e6);
  c.rec.results += static_cast<int64_t>(got);
  ++c.rec.queries;
  if (sample) {
    if (after_delta) ++c.after_delta_samples;
    c.samples.push_back({snap, spec, std::move(head), p.k, after_delta});
  }
  if (log != nullptr) {
    log->Record("serving.close", req, req, close_start, close_end);
    log->Record("request", req, 0, req_start, close_end, req);
    c.traced.push_back({req, open_span, first_slice_span,
                        {&spec, snap, PreDelta(c, spec, after_delta)},
                        ttf_end - open_start});
  }
}

/// Runs the client's schedule until `end_ns`.
void RunClient(Client& c, int64_t end_ns) {
  while (NowNs() < end_ns) {
    const Action a = c.schedule->Next();
    if (a.delta) {
      ApplyDelta(c, a);
    } else {
      RunRequest(c, *a.spec, a.after_delta);
    }
  }
}

// ------------------------------------------------------------- checks

std::vector<Cost> Pull(topkjoin::RankedIterator* stream, size_t n) {
  std::vector<Cost> costs;
  while (costs.size() < n) {
    auto r = stream->Next();
    if (!r.has_value()) break;
    costs.push_back(CostOf(*r));
  }
  return costs;
}

/// The sampled streams against references on the same snapshot: the
/// batch-then-sort plan, and -- after a delta -- a fresh engine with no
/// cached plan or artifact to patch.
void CheckSamples(const std::vector<CheckSample>& samples, Tally* tally) {
  for (const CheckSample& s : samples) {
    // A stream shorter than k must end where the reference ends.
    const size_t want = s.head.size() < s.k ? s.head.size() + 1 : s.head.size();
    ExecutionOptions batch;
    batch.k = s.k;
    batch.force_algorithm = topkjoin::AnyKAlgorithm::kBatch;
    topkjoin::Engine reference;
    auto ref = reference.Execute(s.snap->view(), s.spec.query,
                                 s.spec.ranking(), batch);
    const bool batch_ok =
        ref.ok() && SameCosts(Pull(ref.value().stream.get(), want), s.head);
    tally->Attempt(batch_ok, "top-k differs from the batch reference");
    if (!batch_ok) std::fprintf(stderr, "  %s\n", s.spec.label.c_str());
    if (!s.after_delta) continue;
    ServingOptions inline_options;
    inline_options.num_workers = 0;
    ServingEngine fresh(inline_options);
    ExecutionOptions opts;
    opts.k = s.k;
    bool fresh_ok = false;
    auto id = fresh.OpenCursor(fresh.OpenSession(), s.snap->view(),
                               s.spec.query, s.spec.ranking(), opts);
    if (id.ok()) {
      std::vector<Cost> costs;
      for (;;) {
        auto out = fresh.Fetch(id.value(), s.k);
        if (!out.ok() || out.value().results.empty()) break;
        for (const auto& r : out.value().results) costs.push_back(CostOf(r));
        if (costs.size() >= s.k) break;
      }
      fresh_ok = SameCosts(costs, s.head);
    }
    tally->Attempt(fresh_ok, "post-delta top-k differs from a fresh engine");
    if (!fresh_ok) std::fprintf(stderr, "  %s\n", s.spec.label.c_str());
  }
}

// ---------------------------------------------------------- workloads

/// The state one setup builds: data, queries, engine, sessions.
struct Bench {
  Dataset data;
  std::vector<QuerySpec> hot;  // empty for cold-topk
  std::unique_ptr<Database> side;  // hot-serving's delta target
  std::unique_ptr<ServingEngine> engine;
  std::vector<SessionId> sessions;
};

std::unique_ptr<ServingEngine> MakeEngine(size_t workers) {
  ServingOptions options;
  options.num_workers = workers;
  return std::make_unique<ServingEngine>(options);
}

/// One request per warm-up query, so estimators and (for the hot set)
/// plans and artifacts are cached before timing.
void WarmUp(Bench& b, const Profile& p, const std::vector<QuerySpec>& queries,
            Tally* tally) {
  Client c;
  c.engine = b.engine.get();
  c.session = b.sessions[0];
  c.tally = tally;
  c.profile = &p;
  c.check = false;
  for (const QuerySpec& q : queries) RunRequest(c, q, false);
}

std::vector<QuerySpec> ColdWarmUpQueries(const Dataset& data, uint64_t seed) {
  Rng rng(seed + 0x5151);
  std::vector<QuerySpec> warm;
  warm.push_back(MakeQuery(data, Shape::kPath4, false, CostModelKind::kSum,
                           PickRelations(data.Family(Shape::kPath4, false), 3,
                                         rng)));
  warm.push_back(MakeQuery(data, Shape::kCycle4, false, CostModelKind::kSum,
                           PickRelations(data.Family(Shape::kCycle4, false), 4,
                                         rng)));
  return warm;
}

bool IsCold(const std::string& workload) { return workload == "cold-topk"; }

Bench Setup(const std::string& workload, const Profile& p, uint64_t seed,
            Tally* tally) {
  Bench b;
  b.data = MakeDataset(p.data, seed);
  b.engine = MakeEngine(p.workers);
  for (size_t i = 0; i < p.clients; ++i) {
    b.sessions.push_back(b.engine->OpenSession());
  }
  if (IsCold(workload)) {
    WarmUp(b, p, ColdWarmUpQueries(b.data, seed), tally);
  } else {
    b.hot = HotSet(b.data, seed);
    if (workload == "live-update") {
      // Its reads are the acyclic hot queries: the ones a delta patches.
      std::erase_if(b.hot, [](const QuerySpec& q) { return IsCyclic(q.shape); });
    }
    WarmUp(b, p, b.hot, tally);
  }
  if (workload == "hot-serving") {
    Rng rng(seed + 0x51de);
    b.side = std::make_unique<Database>();
    b.side->Add(topkjoin::UniformBinaryRelation("side", 1000, 100, rng));
  }
  return b;
}

std::unique_ptr<Schedule> MakeSchedule(const std::string& workload,
                                       const Profile& p, Bench& b,
                                       uint64_t seed, size_t client) {
  if (IsCold(workload)) {
    return std::make_unique<ColdSchedule>(&b.data, seed, p.delta_every);
  }
  if (workload == "hot-serving") {
    return std::make_unique<HotSchedule>(&b.hot, b.side.get(), seed, client,
                                         p.delta_every);
  }
  return std::make_unique<LiveSchedule>(
      &b.hot, b.data.chain.get(), seed,
      static_cast<int64_t>(p.delta_period_ms * 1e6));
}

/// Runs every client for `seconds`; returns the phase's wall seconds.
double RunPhase(std::vector<Client>& clients, double seconds) {
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  if (clients.size() == 1) {
    RunClient(clients[0], end);
  } else {
    std::vector<std::thread> threads;
    for (Client& c : clients) {
      threads.emplace_back([&c, end] { RunClient(c, end); });
    }
    for (std::thread& t : threads) t.join();
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

constexpr CostModelKind kModels[] = {CostModelKind::kSum, CostModelKind::kMax,
                                     CostModelKind::kLex};

Samples SpanDurations(const SpanLog& log, const std::string& name) {
  Samples s;
  for (const Span& span : log.spans()) {
    if (span.name == name) s.Add(span.duration_ns());
  }
  return s;
}

Samples SpanSelfTimes(const SpanLog& log, const std::string& name,
                      const std::map<uint64_t, double>& self) {
  Samples s;
  for (const Span& span : log.spans()) {
    if (span.name == name) s.Add(self.at(span.id));
  }
  return s;
}

/// Bucket-wise difference of two snapshots of one histogram.
topkjoin::HistogramSnapshot HistogramDiff(
    const topkjoin::MetricsSnapshot& before,
    const topkjoin::MetricsSnapshot& after, const std::string& name) {
  topkjoin::HistogramSnapshot out;
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return out;
  out = a->second;
  auto b = before.histograms.find(name);
  if (b == before.histograms.end() || b->second.buckets.empty()) return out;
  out.count -= b->second.count;
  out.sum -= b->second.sum;
  for (size_t i = 0; i < out.buckets.size() && i < b->second.buckets.size();
       ++i) {
    out.buckets[i] -= b->second.buckets[i];
  }
  return out;
}

/// The deterministic count pass: fresh data from the same seed, a fresh
/// inline engine, a fixed number of requests of the workload's own
/// schedule, and a replay of each request (no timing used) for the
/// layer counts. Everything it reports repeats exactly for a seed.
struct CountResult {
  LayerObs obs;
  uint64_t artifacts_built = 0;
  uint64_t artifacts_patched = 0;
};

CountResult CountPass(const std::string& workload, const Profile& p,
                      uint64_t seed, Tally* tally) {
  Profile single = p;
  single.workers = 0;
  single.clients = 1;
  single.delta_period_ms = 0;  // deltas by request count, not by time
  Bench b = Setup(workload, single, seed, tally);
  std::unique_ptr<Schedule> schedule = MakeSchedule(workload, single, b, seed, 0);
  std::vector<Replayable> done;
  Client c;
  c.engine = b.engine.get();
  c.session = b.sessions[0];
  c.tally = tally;
  c.schedule = schedule.get();
  c.profile = &single;
  c.delta_rng = Rng(seed + 0xde17a);
  c.check = false;  // the checks run on the timed phases
  while (done.size() < p.count_requests) {
    const Action a = schedule->Next();
    if (a.delta) {
      ApplyDelta(c, a);
      continue;
    }
    done.push_back({a.spec, a.spec->db->Snapshot(),
                    PreDelta(c, *a.spec, a.after_delta)});
    RunRequest(c, *a.spec, a.after_delta);
  }
  CountResult out;
  out.artifacts_built = b.engine->NumArtifactsBuilt();
  out.artifacts_patched = b.engine->NumArtifactsPatched();

  EstimatorBook book;
  const SpanTarget none;
  const ExecutionOptions opts = OptionsFor(p);
  for (const Replayable& d : done) {
    tally->Attempt(ReplayRequest(&book, none, d, opts, p.k, &out.obs).ok,
                   "count-pass replay");
  }
  return out;
}

void EmitEndToEnd(const Recorder& rec, double phase_s, double setup_s,
                  MetricTable* m) {
  m->Set("setup_s", setup_s, "s");
  m->Set("ttf_ms.p50", rec.ttf_ms.Median(), "ms");
  m->Set("ttf_ms.p99", rec.ttf_ms.Percentile(0.99), "ms");
  m->Set("ttk_ms.p50", rec.ttk_ms.Median(), "ms");
  m->Set("open_ms.p50", rec.open_ms.Median(), "ms");
  m->Set("slice_ms.p50", rec.slice_ms.Median(), "ms");
  m->Set("slice_ms.p99", rec.slice_ms.Percentile(0.99), "ms");
  m->Set("results_per_s", static_cast<double>(rec.results) / phase_s, "1/s");
  m->Set("queries_per_s", static_cast<double>(rec.queries) / phase_s, "1/s");
  m->Set("delta_ms.p50", rec.delta_ms.Median(), "ms");
  m->Set("ttf_after_delta_ms.p50", rec.ttf_after_delta_ms.Median(), "ms");
  m->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "samples: ttf=%zu slice=%zu delta=%zu ttf_after_delta=%zu\n",
               rec.ttf_ms.size(), rec.slice_ms.size(), rec.delta_ms.size(),
               rec.ttf_after_delta_ms.size());
}

}  // namespace

bool RunWorkload(const Options& o, RunResult* result) {
  Profile p;
  if (o.workload == "cold-topk") {
    p = ColdProfile();
  } else if (o.workload == "hot-serving") {
    p = HotProfile();
  } else if (o.workload == "live-update") {
    p = LiveProfile();
  } else {
    return false;
  }
  Tally tally;
  MetricTable& m = result->metrics;

  // Set-up: data generation plus warm-up, repeated; the last one is
  // kept for the timed phases. In the traced run the benchmark's own
  // estimators are built here too (stats.estimator_build).
  SpanLog log;
  EstimatorBook book;
  Samples setup_s;
  Bench bench;
  for (int i = 0; i < kSetupRepeats; ++i) {
    bench.engine.reset();  // the engine goes before the data it served
    bench = Bench();
    const int64_t start = NowNs();
    bench = Setup(o.workload, p, o.seed, &tally);
    setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    if (o.trace) {
      SpanTarget t{&log, 0, 0, 0};
      book.For(bench.data.chain->Snapshot(), bench.data.chain.get(), t);
      book.For(bench.data.graph->Snapshot(), bench.data.graph.get(), t);
      if (i + 1 < kSetupRepeats) book = EstimatorBook();
    }
  }

  std::vector<std::unique_ptr<Schedule>> schedules;
  std::vector<Client> clients(p.clients);
  for (size_t i = 0; i < p.clients; ++i) {
    schedules.push_back(MakeSchedule(o.workload, p, bench, o.seed, i));
    Client& c = clients[i];
    c.engine = bench.engine.get();
    c.session = bench.sessions[i];
    c.tally = &tally;
    c.schedule = schedules.back().get();
    c.profile = &p;
    c.delta_rng = Rng(o.seed + 0xde17a + i);
    c.sample_phase = (o.seed + i) % p.sample_every;
  }

  if (!o.trace) {
    const double phase_s = RunPhase(clients, o.seconds);
    Recorder rec;
    std::vector<CheckSample> samples;
    for (Client& c : clients) {
      rec.Merge(c.rec);
      for (CheckSample& s : c.samples) samples.push_back(std::move(s));
    }
    CheckSamples(samples, &tally);
    tally.Attempt(bench.engine->NumRequestsShed() == 0, "requests shed");
    EmitEndToEnd(rec, phase_s, setup_s.Median(), &m);
  } else {
    // Untraced half, then traced half, on the same engine and stream.
    RunPhase(clients, o.seconds / 2);
    Recorder untraced;
    for (Client& c : clients) {
      untraced.Merge(c.rec);
      c.rec = Recorder();
    }
    // Each client records spans into its own log; ids are disjoint.
    std::vector<SpanLog> logs;
    for (size_t i = 0; i < clients.size(); ++i) {
      logs.emplace_back((i + 1) * (uint64_t{1} << 40));
    }
    for (size_t i = 0; i < clients.size(); ++i) clients[i].log = &logs[i];
    const topkjoin::PlanCacheStats plan_before =
        bench.engine->GetPlanCacheStats();
    const topkjoin::PlanCacheStats art_before =
        bench.engine->GetArtifactCacheStats();
    const topkjoin::MetricsSnapshot serving_before =
        bench.engine->GetMetricsSnapshot();
    RunPhase(clients, o.seconds / 2);
    const topkjoin::MetricsSnapshot serving_after =
        bench.engine->GetMetricsSnapshot();
    const topkjoin::PlanCacheStats plan_after =
        bench.engine->GetPlanCacheStats();
    const topkjoin::PlanCacheStats art_after =
        bench.engine->GetArtifactCacheStats();
    Recorder traced;
    std::vector<CheckSample> samples;
    for (size_t i = 0; i < clients.size(); ++i) {
      traced.Merge(clients[i].rec);
      log.Append(logs[i]);
      for (CheckSample& s : clients[i].samples) samples.push_back(std::move(s));
    }

    // Replays: the decomposition of the traced opens (cold-topk), or
    // of the hot set on its final snapshot (hot-serving, live-update).
    LayerObs obs;
    Samples accounted;
    const ExecutionOptions opts = OptionsFor(p);
    const topkjoin::MetricsSnapshot replay_before =
        bench.engine->GetMetricsSnapshot();
    const int64_t replay_end =
        NowNs() + static_cast<int64_t>(o.seconds * 1e9 / 2);
    if (IsCold(o.workload)) {
      for (const TracedRequest& tr : clients[0].traced) {
        if (NowNs() > replay_end) break;
        const SpanTarget t{&log, tr.request, tr.open_span,
                           tr.first_slice_span};
        ReplayResult r = ReplayRequest(&book, t, tr.replay, opts, p.k, &obs);
        tally.Attempt(r.ok, "traced replay");
        if (!r.ok) continue;
        accounted.Add(static_cast<double>(r.ttf_ns) /
                      static_cast<double>(tr.ttf_ns));
      }
    } else {
      Database* chain = bench.data.chain.get();
      std::vector<std::pair<std::shared_ptr<const topkjoin::PreprocessingArtifact>,
                            uint64_t>>
          trees;
      // The whole hot set, so the bag and 4-cycle layers are timed on
      // live-update too, whose reads are the acyclic part only.
      const std::vector<QuerySpec> replayed = HotSet(bench.data, o.seed);
      for (int rep = 0; rep < 2; ++rep) {
        for (const QuerySpec& q : replayed) {
          const uint64_t root = log.NewId();
          const SpanTarget t{&log, root, root, root};
          const auto snap = q.db->Snapshot();
          const int64_t start = NowNs();
          ReplayResult r = ReplayOpen(&book, t, snap, q, opts, p.k, &obs);
          log.Record("replay", root, 0, start, NowNs(), root);
          tally.Attempt(r.ok, "hot-set replay");
          if (rep == 0 && r.ok &&
              r.plan.strategy == topkjoin::PlanStrategy::kAnyKDirect &&
              q.db == chain) {
            trees.push_back({r.artifact, snap->epoch()});
          }
        }
      }
      // Patch replays: a few more deltas, each followed by the
      // estimator extension and the patch of every hot tree artifact.
      Client writer;
      writer.tally = &tally;
      writer.delta_rng = Rng(o.seed + 0xfeed);
      const std::vector<RelationId> targets =
          HotDeltaTargets(bench.hot, chain);
      for (size_t d = 0; d < 4; ++d) {
        Action a;
        a.delta = true;
        a.db = chain;
        a.relation = targets[d % targets.size()];
        a.readers = ReadersOf(bench.hot, chain, a.relation);
        ApplyDelta(writer, a);
        const auto snap = chain->Snapshot();
        const uint64_t root = log.NewId();
        const SpanTarget t{&log, root, root, root};
        book.For(snap, chain, t);
        for (auto& [artifact, epoch] : trees) {
          auto patched = ReplayPatch(t, *artifact, epoch, *chain, snap, &obs);
          if (patched != nullptr) {
            artifact = patched;
            epoch = snap->epoch();
          }
        }
      }
    }
    const topkjoin::MetricsSnapshot replay_after =
        bench.engine->GetMetricsSnapshot();

    CheckSamples(samples, &tally);
    tally.Attempt(bench.engine->NumRequestsShed() == 0, "requests shed");
    const CountResult counts = CountPass(o.workload, p, o.seed, &tally);

    // ---- per-layer metrics
    const std::map<uint64_t, double> self = log.SelfTimes();
    auto dur = [&](const char* name) { return SpanDurations(log, name); };
    auto warn_empty = [](const char* name, const Samples& s) {
      if (s.empty()) std::fprintf(stderr, "no samples for %s\n", name);
    };
    auto set_ms = [&](const char* name, const Samples& s, double scale,
                      const char* unit) {
      warn_empty(name, s);
      m.Set(name, s.Median() / scale, unit);
    };
    set_ms("stats.estimator_build_ms", dur("stats.estimator_build"), 1e6, "ms");
    set_ms("stats.estimator_extend_us", dur("stats.estimator_extend"), 1e3,
           "us");
    set_ms("planner.plan_us", dur("planner.plan"), 1e3, "us");
    m.Set("planner.qerror_output.p50", obs.qerror_output.Median(), "ratio");
    m.Set("planner.qerror_output.p99", obs.qerror_output.Percentile(0.99),
          "ratio");
    m.Set("planner.qerror_intermediate.p99",
          obs.qerror_intermediate.Percentile(0.99), "ratio");
    set_ms("join.full_reducer_ms", dur("join.full_reducer"), 1e6, "ms");
    m.Set("join.reduced_tuples", static_cast<double>(counts.obs.reduced_tuples),
          "count");
    set_ms("query.bag_materialize_ms", dur("query.bag_materialize"), 1e6, "ms");
    m.Set("query.bag_tuples", static_cast<double>(counts.obs.query_bag_tuples),
          "count");
    set_ms("cycles.fourcycle_plans_ms", dur("cycles.fourcycle_plans"), 1e6,
           "ms");
    m.Set("cycles.bag_tuples", static_cast<double>(counts.obs.cycles_bag_tuples),
          "count");
    set_ms("anyk.tdp_build_ms", SpanSelfTimes(log, "anyk.tdp_build", self),
           1e6, "ms");
    m.Set("anyk.tdp_bytes", static_cast<double>(counts.obs.tdp_bytes), "bytes");
    set_ms("anyk.first_result_us", dur("anyk.first_result"), 1e3, "us");
    for (const CostModelKind model : kModels) {
      const std::string suffix = std::string(".") + topkjoin::CostModelName(model);
      const Samples& next = obs.next_ns[model];
      m.Set("anyk.next_ns.p50" + suffix, next.Median(), "ns");
      m.Set("anyk.next_ns.p99" + suffix, next.Percentile(0.99), "ns");
      const EnumCounts& e = counts.obs.enums.count(model)
                                ? counts.obs.enums.at(model)
                                : EnumCounts();
      const double results = std::max<int64_t>(e.results, 1);
      m.Set("anyk.work_per_result" + suffix,
            static_cast<double>(e.work) / results, "count");
      m.Set("anyk.pushes_per_result" + suffix,
            static_cast<double>(e.pushes) / results, "count");
      m.Set("anyk.candidate_peak_bytes" + suffix,
            static_cast<double>(e.candidate_peak_bytes), "bytes");
    }
    set_ms("anyk.tdp_patch_us", dur("anyk.tdp_patch"), 1e3, "us");
    m.Set("anyk.groups_refolded_ratio",
          counts.obs.groups_total > 0
              ? static_cast<double>(counts.obs.groups_refolded) /
                    static_cast<double>(counts.obs.groups_total)
              : 0.0,
          "ratio");
    const Samples build_ms = dur("executor.build_artifact");
    set_ms("executor.build_artifact_ms", build_ms, 1e6, "ms");
    set_ms("executor.new_enumeration_us", dur("executor.new_enumeration"), 1e3,
           "us");
    set_ms("serving.open_us", dur("serving.open"), 1e3, "us");
    auto ratio = [](uint64_t hits, uint64_t misses) {
      return hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses);
    };
    m.Set("serving.plan_cache_hit_ratio",
          ratio(plan_after.hits - plan_before.hits,
                plan_after.misses - plan_before.misses),
          "ratio");
    m.Set("serving.artifact_cache_hit_ratio",
          ratio(art_after.hits - art_before.hits,
                art_after.misses - art_before.misses),
          "ratio");
    m.Set("serving.artifacts_built", static_cast<double>(counts.artifacts_built),
          "count");
    m.Set("serving.artifacts_patched",
          static_cast<double>(counts.artifacts_patched), "count");
    m.Set("serving.queue_wait_us.p50", traced.queue_wait_us.Median(), "us");
    m.Set("serving.queue_wait_us.p99", traced.queue_wait_us.Percentile(0.99),
          "us");
    m.Set("serving.slice_service_us.p50", traced.slice_service_us.Median(),
          "us");
    m.Set("serving.requests_shed",
          static_cast<double>(bench.engine->NumRequestsShed()), "count");
    set_ms("data.apply_delta_us", dur("data.apply_delta"), 1e3, "us");
    set_ms("data.snapshot_us", dur("data.snapshot"), 1e3, "us");

    // Tracing overhead: the traced half's request latency against the
    // untraced half's, same engine and query stream.
    m.Set("trace.overhead_pct",
          (traced.ttk_ms.Median() / untraced.ttk_ms.Median() - 1.0) * 100.0,
          "%");
    m.Set("trace.ttf_accounted_ratio",
          IsCold(o.workload) ? accounted.Median()
                             : 0.0,
          "ratio");

    // Cross-check the benchmark's outside timings against the library's
    // own histograms over the same window.
    int disagreements = 0;
    auto xcheck = [&](const char* name, double outside_ns,
                      const topkjoin::HistogramSnapshot& inside) {
      const double in = static_cast<double>(inside.Percentile(0.5));
      const double r = in > 0 ? outside_ns / in : 0.0;
      if (inside.empty() || r < 0.75 || r > 1.25) {
        ++disagreements;
        std::fprintf(stderr,
                     "xcheck %s: outside p50 %.0f ns vs library p50 %.0f ns "
                     "(n=%llu)\n",
                     name, outside_ns, in,
                     static_cast<unsigned long long>(inside.count));
      }
    };
    xcheck("executor.compile_ns", build_ms.Median(),
           HistogramDiff(replay_before, replay_after, "executor.compile_ns"));
    Samples tdp_inclusive = dur("anyk.tdp_build");
    xcheck("tdp.build_ns", tdp_inclusive.Median(),
           HistogramDiff(replay_before, replay_after, "tdp.build_ns"));
    xcheck("serving.queue_wait_ns", traced.queue_wait_us.Median() * 1e3,
           HistogramDiff(serving_before, serving_after,
                         "serving.queue_wait_ns"));
    m.Set("xcheck.disagreements", disagreements, "count");

    // Spans are kept in memory and written out once, at the end.
    const std::string path = o.out_dir + "/spans-" + o.workload + ".jsonl";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      for (const Span& s : log.spans()) {
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"self_ns\":%.0f}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     s.name.c_str(), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), self.at(s.id));
      }
      std::fclose(f);
    }
  }
  result->attempted = tally.attempted.load();
  result->failed = tally.failed.load();
  if (o.trace) {
    m.Set("failed_ratio",
          static_cast<double>(result->failed) /
              static_cast<double>(std::max<int64_t>(result->attempted, 1)),
          "ratio");
  }
  return true;
}

}  // namespace perfbench
