// Copyright 2026 The ConsensusDB Authors

#include "service/precompute_cache.h"

#include <utility>

namespace cpdb {

namespace {

int64_t DoublesBytes(const std::vector<double>& values) {
  return static_cast<int64_t>(sizeof(std::vector<double>)) +
         static_cast<int64_t>(values.size() * sizeof(double));
}

}  // namespace

PrecomputeCache::PrecomputeCache(int64_t byte_budget)
    : cache_(byte_budget, ValueBytes) {}

// Size-based like the sibling caches' charges: deterministic in the value's
// shape, so eviction decisions replay identically across runs.
int64_t PrecomputeCache::ValueBytes(const Value& value) {
  if (const auto* ranks = std::get_if<std::vector<double>>(&value)) {
    return DoublesBytes(*ranks);
  }
  const Result<TopKResult>& answer = std::get<Result<TopKResult>>(value);
  return static_cast<int64_t>(sizeof(Result<TopKResult>)) +
         (answer.ok() ? static_cast<int64_t>(answer->keys.size() *
                                             sizeof(KeyId))
                      : 0);
}

template <typename T>
std::shared_ptr<const T> PrecomputeCache::Get(
    Kind kind, StructKey struct_key, int k, const std::function<T()>& compute) {
  std::shared_ptr<const Value> value = cache_.GetOrCompute(
      Key(struct_key.value(), static_cast<int>(kind), k),
      [&compute] { return Value(compute()); });
  // An aliasing handle: it owns the whole entry and points at its one
  // alternative, so it survives eviction exactly like the entry's own.
  return std::shared_ptr<const T>(value, &std::get<T>(*value));
}

std::shared_ptr<const Result<TopKResult>> PrecomputeCache::KendallMean(
    StructKey struct_key, int k,
    const std::function<Result<TopKResult>()>& compute) {
  return Get(kKendallMean, struct_key, k, compute);
}

std::shared_ptr<const Result<TopKResult>> PrecomputeCache::SymDiffMedian(
    StructKey struct_key, int k,
    const std::function<Result<TopKResult>()>& compute) {
  return Get(kSymDiffMedian, struct_key, k, compute);
}

std::shared_ptr<const std::vector<double>> PrecomputeCache::ExpectedRanks(
    StructKey struct_key,
    const std::function<std::vector<double>()>& compute) {
  return Get(kExpectedRanks, struct_key, /*k=*/0, compute);
}

}  // namespace cpdb
