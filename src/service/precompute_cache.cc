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
  if (const QMatrix* q = std::get_if<QMatrix>(&value)) {
    int64_t bytes = static_cast<int64_t>(sizeof(QMatrix));
    for (const std::vector<double>& row : *q) bytes += DoublesBytes(row);
    return bytes;
  }
  if (const auto* ranks = std::get_if<std::vector<double>>(&value)) {
    return DoublesBytes(*ranks);
  }
  const Result<TopKResult>& median = std::get<Result<TopKResult>>(value);
  return static_cast<int64_t>(sizeof(Result<TopKResult>)) +
         (median.ok() ? static_cast<int64_t>(median->keys.size() *
                                             sizeof(KeyId))
                      : 0);
}

template <size_t kKind, typename T>
std::shared_ptr<const T> PrecomputeCache::Get(
    StructKey struct_key, int k, const std::function<T()>& compute) {
  std::shared_ptr<const Value> value = cache_.GetOrCompute(
      Key(struct_key.value(), static_cast<int>(kKind), k),
      [&compute] { return Value(std::in_place_index<kKind>, compute()); });
  // An aliasing handle: it owns the whole entry and points at its one
  // alternative, so it survives eviction exactly like the entry's own.
  return std::shared_ptr<const T>(value, &std::get<kKind>(*value));
}

std::shared_ptr<const PrecomputeCache::QMatrix> PrecomputeCache::KendallQ(
    StructKey struct_key, int k, const std::function<QMatrix()>& compute) {
  return Get<0>(struct_key, k, compute);
}

std::shared_ptr<const Result<TopKResult>> PrecomputeCache::SymDiffMedian(
    StructKey struct_key, int k,
    const std::function<Result<TopKResult>()>& compute) {
  return Get<1>(struct_key, k, compute);
}

std::shared_ptr<const std::vector<double>> PrecomputeCache::ExpectedRanks(
    StructKey struct_key,
    const std::function<std::vector<double>()>& compute) {
  return Get<2>(struct_key, /*k=*/0, compute);
}

}  // namespace cpdb
