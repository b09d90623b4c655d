#include "src/anyk/union_anyk.h"

#include <utility>

namespace topkjoin {

struct UnionAnyK::Impl {
  struct Head {
    RankedResult result;
    size_t source = 0;
  };
  struct HeadOrder {
    bool operator()(const Head& a, const Head& b) const {
      // Min-queue on the full cost order: primary double, then the
      // component vector, so LEX streams from different case plans
      // merge in exact lexicographic order, not primary-only.
      return RankedCostLess(b.result, a.result);
    }
  };

  std::vector<std::unique_ptr<RankedIterator>> inputs;
  std::priority_queue<Head, std::vector<Head>, HeadOrder> heads;

  void Refill(size_t source) {
    auto r = inputs[source]->Next();
    if (r.has_value()) {
      heads.push(Head{std::move(*r), source});
    }
  }
};

UnionAnyK::UnionAnyK(std::vector<std::unique_ptr<RankedIterator>> inputs)
    : impl_(std::make_unique<Impl>()) {
  impl_->inputs = std::move(inputs);
  for (size_t i = 0; i < impl_->inputs.size(); ++i) impl_->Refill(i);
}

UnionAnyK::~UnionAnyK() = default;

int64_t UnionAnyK::WorkUnits() const {
  int64_t total = 0;
  for (const auto& input : impl_->inputs) total += input->WorkUnits();
  return total;
}

PipelineCounters UnionAnyK::Counters() const {
  PipelineCounters total;
  for (const auto& input : impl_->inputs) {
    const PipelineCounters c = input->Counters();
    total.frontier_pushes += c.frontier_pushes;
    total.heap_extractions += c.heap_extractions;
    total.candidate_pool_bytes += c.candidate_pool_bytes;
  }
  return total;
}

std::optional<RankedResult> UnionAnyK::Next() {
  if (impl_->heads.empty()) return std::nullopt;
  Impl::Head head = impl_->heads.top();
  impl_->heads.pop();
  impl_->Refill(head.source);
  return std::move(head.result);
}

}  // namespace topkjoin
