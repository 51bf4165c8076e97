// LRU cache of compiled matrices, the amortization heart of the serving
// engine.
//
// The cache is keyed by (matrix content hash, options hash) — NOT by
// plan_fingerprint, deliberately: the fingerprint is a digest of the
// reorder *output*, so computing it requires running the very
// preprocessing a cache hit exists to skip. The content hash identifies
// the same input instead; the fingerprint is still recorded on the
// artifact (CompiledMatrix::plan_fingerprint) as its identity for
// diagnostics and cross-process comparison.
//
// Capacity is bounded in bytes (JigsawFormat::Footprint-derived artifact
// sizes) over one LRU list behind one mutex; eviction is
// least-recently-used first. Only compile and update touch the cache — a
// submit executes a handle it already holds — so no request waits on the
// lock.
// Hit/miss/eviction counts are kept in atomics owned by the cache (usable
// with metrics disabled) and mirrored into the obs registry by the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace jigsaw::engine {

struct CompiledMatrix;

/// Identity of a compile request: content hash of the sparse operand plus
/// a hash of every option that can change the artifact.
struct CacheKey {
  std::uint64_t matrix_hash = 0;
  std::uint64_t options_hash = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.matrix_hash == b.matrix_hash && a.options_hash == b.options_hash;
  }
};

/// Point-in-time cache counters. hits/misses/evictions are cumulative;
/// entries/bytes are current occupancy.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries retired by erase() — generations superseded by
  /// Engine::update, as opposed to capacity evictions.
  std::uint64_t retired = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t capacity_bytes = 0;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity_bytes);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached artifact and refreshes its recency, or nullptr.
  /// Counts a hit or a miss.
  std::shared_ptr<const CompiledMatrix> find(const CacheKey& key);

  /// Inserts `value` (whose resident size is `bytes`), evicting
  /// least-recently-used entries until it fits. Returns the canonical
  /// entry under the key: when a racing compile already published one,
  /// that earlier artifact is returned and `value` is dropped, so every
  /// caller converges on one shared artifact. Fails with
  /// kCapacityExhausted when `bytes` alone exceeds the whole capacity
  /// (nothing is evicted in that case).
  [[nodiscard]] Result<std::shared_ptr<const CompiledMatrix>> insert(
      const CacheKey& key, std::shared_ptr<const CompiledMatrix> value,
      std::size_t bytes);

  /// Removes exactly `key`, leaving every other entry's recency and
  /// residency untouched — how Engine::update retires a superseded
  /// generation without invalidating unrelated keys. Returns whether the
  /// key was present; handed-out shared_ptrs stay valid.
  bool erase(const CacheKey& key);

  /// Drops every entry (counters are kept; handed-out shared_ptrs stay
  /// valid — the cache only releases its references).
  void clear();

  CacheStats stats() const;

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CompiledMatrix> value;
    std::size_t bytes = 0;
  };
  struct KeyHash {
    std::size_t operator()(const CacheKey& key) const {
      return static_cast<std::size_t>(mix(key));
    }
  };
  static std::uint64_t mix(const CacheKey& key);

  const std::size_t capacity_bytes_;
  mutable Mutex mu_;
  std::list<Entry> lru_ GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index_
      GUARDED_BY(mu_);
  std::size_t bytes_ GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> retired_{0};
};

}  // namespace jigsaw::engine
