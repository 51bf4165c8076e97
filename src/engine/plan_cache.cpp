#include "engine/plan_cache.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace jigsaw::engine {

PlanCache::PlanCache(std::size_t capacity_bytes, int shards) {
  shards = std::max(shards, 1);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = capacity_bytes / static_cast<std::size_t>(shards);
}

std::uint64_t PlanCache::mix(const CacheKey& key) {
  // splitmix64 finalizer over the xor of the two halves: cheap, and it
  // spreads shard selection and bucket placement whatever the structure
  // of the two input hashes.
  std::uint64_t x = key.matrix_hash ^ (key.options_hash * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

PlanCache::Shard& PlanCache::shard_for(const CacheKey& key) {
  return *shards_[static_cast<std::size_t>(mix(key) % shards_.size())];
}

std::shared_ptr<const CompiledMatrix> PlanCache::find(const CacheKey& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

Result<std::shared_ptr<const CompiledMatrix>> PlanCache::insert(
    const CacheKey& key, std::shared_ptr<const CompiledMatrix> value,
    std::size_t bytes) {
  if (bytes > shard_capacity_) {
    return Status(StatusCode::kCapacityExhausted,
                  "compiled artifact of " + std::to_string(bytes) +
                      " bytes exceeds the per-shard cache capacity of " +
                      std::to_string(shard_capacity_) + " bytes");
  }
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A racing compile published first; converge on its artifact.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }
  while (shard.bytes + bytes > shard_capacity_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::add("engine.cache.evictions");
  }
  shard.lru.push_front(Entry{key, std::move(value), bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  return shard.lru.front().value;
}

bool PlanCache::erase(const CacheKey& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.bytes -= it->second->bytes;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  retired_.fetch_add(1, std::memory_order_relaxed);
  obs::add("engine.cache.retired");
  return true;
}

void PlanCache::clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->index.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

CacheStats PlanCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.retired = retired_.load(std::memory_order_relaxed);
  out.capacity_bytes = shard_capacity_ * shards_.size();
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out.entries += shard->lru.size();
    out.bytes += shard->bytes;
  }
  return out;
}

}  // namespace jigsaw::engine
