#include "engine/plan_cache.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::engine {

PlanCache::PlanCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

std::uint64_t PlanCache::mix(const CacheKey& key) {
  // splitmix64 finalizer over the xor of the two halves: cheap, and it
  // spreads bucket placement whatever the structure of the two input
  // hashes.
  std::uint64_t x = key.matrix_hash ^ (key.options_hash * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::shared_ptr<const CompiledMatrix> PlanCache::find(const CacheKey& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

Result<std::shared_ptr<const CompiledMatrix>> PlanCache::insert(
    const CacheKey& key, std::shared_ptr<const CompiledMatrix> value,
    std::size_t bytes) {
  JIGSAW_TRACE_SCOPE("engine", "engine.cache.insert");
  static obs::Histogram& seconds =
      obs::histogram("engine.cache.insert_seconds");
  const obs::ScopedTimer timer(seconds);
  if (bytes > capacity_bytes_) {
    return Status(StatusCode::kCapacityExhausted,
                  "compiled artifact of " + std::to_string(bytes) +
                      " bytes exceeds the cache capacity of " +
                      std::to_string(capacity_bytes_) + " bytes");
  }
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A racing compile published first; converge on its artifact.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }
  while (bytes_ + bytes > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::add("engine.cache.evictions");
  }
  lru_.push_front(Entry{key, std::move(value), bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  return lru_.front().value;
}

bool PlanCache::erase(const CacheKey& key, const CompiledMatrix* value) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->value.get() != value) return false;
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
  retired_.fetch_add(1, std::memory_order_relaxed);
  obs::add("engine.cache.retired");
  return true;
}

void PlanCache::clear() {
  MutexLock lock(mu_);
  index_.clear();
  lru_.clear();
  bytes_ = 0;
}

CacheStats PlanCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.retired = retired_.load(std::memory_order_relaxed);
  out.capacity_bytes = capacity_bytes_;
  MutexLock lock(mu_);
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace jigsaw::engine
