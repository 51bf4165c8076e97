// jigsaw::Engine — the unified serving facade over the whole pipeline.
//
// The library's layers grew bottom-up: multi_granularity_reorder →
// JigsawFormat → jigsaw_plan/jigsaw_run for the trusted path,
// checked_compile's panel degradation for the degrade-don't-die tier,
// hybrid_plan/hybrid_compute for the §4.7 mixed-unit extension. A serving
// system needs exactly one entry point:
//
//   Engine engine;
//   auto handle = engine.compile(a, options);        // expensive, cached
//   auto future = engine.submit(handle.value(), b);  // cheap, concurrent
//   DenseMatrix<float> c = future.get().value();
//
// compile() runs reorder → format build → kernel plan → hybrid routing
// once and returns an immutable CompiledMatrix; identical requests (same
// matrix content, same options) are served from a sharded LRU cache
// without re-running any preprocessing. submit() executes one RHS against
// the shared read-only artifact on a fixed worker pool
// (common/parallel.hpp), so independent batches run concurrently.
// ExecutionPolicy picks the route once, at compile time:
//
//   kRaw      the trusted jigsaw_plan/jigsaw_run path; a matrix that
//             fails the §4.3 reorder is a typed kReorderFailed error;
//   kChecked  (the kAuto default) the checked tier: compiles at
//             block_tile, failed panels degrade onto the hybrid
//             dense-TC/CUDA-core pipes, the answer stays exact;
//   kHybrid   the §4.7 density router for every matrix, failed or not.
//
// Everything the engine returns crosses an untrusted serving boundary, so
// errors are Status/Result values (never exceptions): kInvalidArgument
// for shape/option violations, kReorderFailed as above, kInternal for a
// format that fails its own validation, kCapacityExhausted when an
// artifact cannot fit the cache bound.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "core/checked.hpp"
#include "engine/plan_cache.hpp"

namespace jigsaw::engine {

using core::EngineOptions;
using core::ExecutionPolicy;
using jigsaw::DenseMatrix;
using jigsaw::fp16_t;

struct EngineConfig {
  /// Total byte budget of the compiled-artifact cache, split evenly
  /// across the shards. Artifact sizes are measured footprints
  /// (JigsawFormat::Footprint plus retained operands).
  std::size_t cache_capacity_bytes = 256ull << 20;
  int cache_shards = 8;
  /// Worker threads executing submit()ted requests; <= 0 uses the
  /// hardware concurrency.
  int worker_threads = 0;
  /// Simulated device all executions are costed against.
  gpusim::CostModel cost_model{};
};

/// One batch of point mutations against the source operand of an
/// updatable artifact (EngineOptions::Compile::updatable). Changed
/// values, newly-nonzero entries, and zeroed entries (value 0) all use
/// the same spelling; entries whose value already matches the operand
/// bit-for-bit are no-ops.
struct SparseDelta {
  struct Entry {
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    fp16_t value{};
  };
  std::vector<Entry> entries;

  std::size_t size() const { return entries.size(); }
  void set(std::uint32_t row, std::uint32_t col, float value) {
    entries.push_back(Entry{row, col, fp16_t(value)});
  }
};

struct Lineage;

/// Immutable product of Engine::compile — what its route's execution
/// reads and nothing more (see plan and format()). Shared read-only
/// across worker threads.
struct CompiledMatrix {
  std::uint64_t matrix_hash = 0;   ///< FNV-1a of the operand content
  /// options_content_hash of the resolved options (core::resolve).
  std::uint64_t options_hash = 0;
  /// Identity of the reorder output: core::plan_fingerprint of the one
  /// reorder the route executes (the SpTC subset's on the hybrid route);
  /// under kRaw V4, the three candidates' fingerprints folded in order.
  /// Comparable across processes and planner generations; diagnostics
  /// only, the cache keys on content instead (see plan_cache.hpp).
  std::uint64_t plan_fingerprint = 0;
  /// The resolved options (core::resolve) this was built with, which are
  /// exactly what its route read: policy is never kAuto.
  ExecutionPolicy policy = ExecutionPolicy::kChecked;
  EngineOptions::Compile options;
  std::size_t rows = 0, cols = 0;

  /// kRaw: the trusted-path plan at options.version, one reorder and
  /// format per BLOCK_TILE candidate (V4 carries three); core::jigsaw_select
  /// picks among plan.formats once per RHS width and memoizes the choice
  /// on the plan. An undegraded kChecked artifact keeps its one reorder
  /// in plan.reorders and no format here.
  core::JigsawPlan plan;
  /// Always empty: every artifact's metadata follows its route, and the
  /// member stays only because the benchmark program still spells it.
  core::JigsawFormat naive_format;
  /// The format an undegraded kChecked artifact executes, in the §3.4.3
  /// interleaved layout; empty on every other route. Read it through
  /// format().
  core::JigsawFormat interleaved_format;
  /// Set when the artifact routes any column off the SpTC path: always
  /// under kHybrid, under kChecked only when the reorder degraded.
  std::optional<core::HybridPlan> hybrid;
  core::DegradationReport degradation;
  bool degraded = false;
  /// The operand is retained when `hybrid` is set (the dense-TC /
  /// CUDA-core pipes read their columns from the original matrix) or the
  /// artifact is updatable (Engine::update applies deltas to it).
  DenseMatrix<fp16_t> lhs;

  double compile_seconds = 0.0;   ///< measured, cache misses only
  std::size_t footprint_bytes = 0;  ///< resident size charged to the cache

  /// Monotonic position within an updatable lineage: 0 for a fresh
  /// compile, +1 per successful Engine::update that produced this
  /// artifact. Surfaced through the jigsaw.engine.update.* metrics.
  std::uint64_t generation = 0;
  /// Set on updatable artifacts: the shared RCU cell Engine::update
  /// publishes successor generations through (see Lineage). Every
  /// generation of one compile holds the same cell.
  std::shared_ptr<Lineage> lineage;

  /// The format a request executes on the kChecked and hybrid routes
  /// (the hybrid pipes' SpTC subset on the latter). kRaw has no single
  /// one: jigsaw_select picks among plan.formats per RHS width, and this
  /// returns an empty format.
  const core::JigsawFormat& format() const {
    return hybrid.has_value() ? hybrid->format : interleaved_format;
  }
};

/// RCU publication cell shared by every generation of one updatable
/// compile. Readers (Engine::latest on the submit path) copy the head
/// weak_ptr under head_mu — a critical section of one refcount bump, with
/// promotion and every artifact access outside the lock; no reader
/// registration, and the shared_ptr refcount of the artifact a reader is
/// holding IS the grace period, so a superseded generation is freed
/// exactly when its last in-flight request finishes. (Not
/// std::atomic<std::weak_ptr>: libstdc++'s _Sp_atomic is itself a
/// spinlock, and in GCC 12 its load() unlocks with a relaxed fetch_sub —
/// no release edge over _M_ptr, which ThreadSanitizer rightly reports. A
/// named mutex with the same-sized critical section costs the same and
/// is analyzable.) Engine::update is the only writer and serializes on
/// writer_mu; it takes head_mu only for the final pointer swap, never
/// while replanning. The head is weak to break the cycle with
/// CompiledMatrix::lineage; the Engine that published it owns the newest
/// generation strongly (Engine::heads_), so neither cache eviction nor
/// clear_cache rolls latest() back. latest() falls back to the caller's
/// own handle only once that Engine is destroyed.
struct Lineage {
  /// Snapshot of the published head; promote outside the lock.
  [[nodiscard]] std::weak_ptr<const CompiledMatrix> head() const
      EXCLUDES(head_mu) {
    MutexLock lock(head_mu);
    return head_;
  }

  /// Publishes the next generation (writer side; the linearization point
  /// of Engine::update).
  void publish(std::weak_ptr<const CompiledMatrix> next) EXCLUDES(head_mu) {
    MutexLock lock(head_mu);
    head_ = std::move(next);
  }

  Mutex writer_mu;

 private:
  mutable Mutex head_mu;
  std::weak_ptr<const CompiledMatrix> head_ GUARDED_BY(head_mu);
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Compiles (or fetches from cache) the serving artifact for `a`.
  /// Typed failures: kInvalidArgument (empty operand, bad BLOCK_TILE),
  /// kReorderFailed (kRaw policy and no candidate reorder succeeded),
  /// kInternal (a freshly built format failed validation),
  /// kCapacityExhausted (artifact larger than a cache shard).
  [[nodiscard]] Result<std::shared_ptr<const CompiledMatrix>> compile(
      const DenseMatrix<fp16_t>& a, const EngineOptions& options = {});

  /// Enqueues one RHS against a compiled artifact on the worker pool. The
  /// RHS is taken by value (moved into the job); the artifact is shared
  /// read-only. The future resolves to the exact product or a typed
  /// error; worker threads never throw.
  std::future<Result<DenseMatrix<float>>> submit(
      std::shared_ptr<const CompiledMatrix> handle, DenseMatrix<fp16_t> b,
      EngineOptions::Run run = {});

  /// Synchronous execution on the caller's thread (submit without the
  /// pool — same routing, same errors).
  [[nodiscard]] Result<DenseMatrix<float>> execute(
      const CompiledMatrix& handle, const DenseMatrix<fp16_t>& b,
      const EngineOptions::Run& run = {}) const;

  /// Simulated kernel report of executing this artifact against an
  /// n-column RHS, at the compiled version (options.version; plan.version
  /// under kRaw). Raw artifacts report the BLOCK_TILE candidate
  /// jigsaw_select memoizes for (n, run) — the one execute runs with the
  /// same width and run options; degraded/hybrid artifacts report the
  /// fused three-pipe kernel.
  gpusim::KernelReport cost(const CompiledMatrix& handle, std::size_t n,
                            const EngineOptions::Run& run = {}) const;

  /// Applies a SparseDelta to an updatable artifact's source operand,
  /// re-plans only the BLOCK_TILE row panels the delta touches (the
  /// incremental panel path: core::reorder_panels +
  /// JigsawFormat::rebuild_panels), and publishes the result as the next
  /// generation through the artifact's Lineage: in-flight submits finish
  /// on the generation they started with, Engine::latest returns the new
  /// one. The delta is applied against the lineage's current head (not
  /// necessarily `handle`), so callers may keep updating through a stale
  /// handle. Degraded/hybrid artifacts and deltas that defeat the
  /// incremental plan fall back to a full recompile internally — still
  /// published atomically, still bit-identical to a fresh compile of the
  /// mutated matrix. Failure atomicity: on any error (kInvalidArgument
  /// for a non-updatable handle or out-of-range entries, kReorderFailed
  /// under kRaw, kCapacityExhausted when the new generation cannot fit
  /// its cache shard, kInternal) the previous generation stays published,
  /// cached, and serving, bit-identically untouched.
  [[nodiscard]] Result<std::shared_ptr<const CompiledMatrix>> update(
      const std::shared_ptr<const CompiledMatrix>& handle,
      const SparseDelta& delta);

  /// Latest published generation of the handle's lineage — one brief
  /// head-pointer copy, safe to call per request on the submit hot path.
  /// Non-updatable handles (and a lineage whose publishing Engine has
  /// been destroyed) return the handle itself.
  [[nodiscard]] static std::shared_ptr<const CompiledMatrix> latest(
      const std::shared_ptr<const CompiledMatrix>& handle);

  CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }
  const EngineConfig& config() const { return config_; }
  int worker_count() const { return pool_.size(); }

 private:
  /// Builds the artifact of `resolved` (core::resolve's result).
  [[nodiscard]] Result<std::shared_ptr<CompiledMatrix>> compile_artifact(
      const DenseMatrix<fp16_t>& a, const EngineOptions& resolved,
      const CacheKey& key) const;

  /// Builds the successor artifact for `update`: incremental panel splice
  /// when the base's plan permits, full recompile fallback otherwise.
  /// Generation/lineage stamping happens in update().
  [[nodiscard]] Result<std::shared_ptr<CompiledMatrix>> update_artifact(
      const CompiledMatrix& base, const DenseMatrix<fp16_t>& a2,
      const std::vector<bool>& row_dirty) const;

  /// Shared artifact tail and the one format enforcer: validates every
  /// format the artifact carries (format(), or plan.formats under kRaw),
  /// computes the resident footprint (retaining the operand for
  /// hybrid/updatable artifacts) and sets plan_fingerprint.
  [[nodiscard]] Status finalize_artifact(CompiledMatrix& cm,
                                         const DenseMatrix<fp16_t>& a) const;

  /// Makes `head` its lineage's strongly owned head, and retires every
  /// lineage nothing outside heads_ can reach any more: its head is held
  /// only here and no other generation holds its cell, so no caller can
  /// pass it to latest() or update() again.
  void own_head(std::shared_ptr<const CompiledMatrix> head)
      EXCLUDES(heads_mu_);

  EngineConfig config_;
  PlanCache cache_;
  Mutex heads_mu_;
  /// Published head of every lineage this engine has updated. The plan
  /// cache may evict or clear a head; this table keeps it alive.
  std::unordered_map<const Lineage*, std::shared_ptr<const CompiledMatrix>>
      heads_ GUARDED_BY(heads_mu_);
  ThreadPool pool_;
};

/// Content hash (FNV-1a over shape and element bits) — the cache's
/// matrix identity. Exposed for tests.
std::uint64_t matrix_content_hash(const DenseMatrix<fp16_t>& a);

/// The cache's options identity: a hash of every leaf of `resolved`
/// (core::resolve's result) but ReorderOptions::max_threads — plans are
/// thread-count invariant — and ReorderOptions::tile, which resolve sets
/// from block_tile. Run options never affect the artifact. Exposed for
/// tests.
std::uint64_t options_content_hash(const EngineOptions& resolved);

}  // namespace jigsaw::engine

namespace jigsaw {
using engine::CacheStats;
using engine::CompiledMatrix;
using engine::Engine;
using engine::EngineConfig;
using engine::SparseDelta;  // NOLINT(misc-unused-using-decls)
using core::EngineOptions;    // NOLINT(misc-unused-using-decls)
using core::ExecutionPolicy;  // NOLINT(misc-unused-using-decls)
}  // namespace jigsaw
