#include "engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/error.hpp"
#include "core/format_limits.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::engine {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

// xxHash64's primes.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

/// xxHash64's round: a bijection of `lane` for a fixed word and of `word`
/// for a fixed lane, so one changed word always changes its lane.
std::uint64_t hash_round(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/// Folds one more 64-bit value into a finished lane sum; a bijection of
/// `h` for a fixed value, and of the value for a fixed `h`.
std::uint64_t hash_fold(std::uint64_t h, std::uint64_t v) {
  return std::rotl(h ^ hash_round(0, v), 27) * kPrime1 + kPrime4;
}

/// xxHash64's avalanche, a bijection.
std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// matrix_content_hash's term for the operand's shape.
std::uint64_t shape_term(std::size_t rows, std::size_t cols) {
  return avalanche(hash_fold(hash_fold(kPrime5, rows), cols));
}

/// matrix_content_hash's term for row `r` of `a`. Four independent lanes
/// run over the row's 8-byte words (four entries each), so the multiplies
/// of neighbouring words overlap; the row's last cols % 4 entries and its
/// index fold in after. Every step after a word's round is a bijection of
/// the state, so changing any one entry, ±0 included, changes the term.
std::uint64_t row_term(const DenseMatrix<fp16_t>& a, std::size_t r) {
  constexpr std::size_t kEntriesPerWord = sizeof(std::uint64_t) /
                                          sizeof(fp16_t);
  const std::size_t cols = a.cols();
  const fp16_t* row = a.data() + r * cols;
  const std::size_t words = cols / kEntriesPerWord;
  const auto word = [row](std::size_t w) {
    std::uint64_t v;
    std::memcpy(&v, row + w * kEntriesPerWord, sizeof v);
    return v;
  };
  std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    for (std::size_t i = 0; i < 4; ++i) {
      lane[i] = hash_round(lane[i], word(w + i));
    }
  }
  for (std::size_t i = 0; w + i < words; ++i) {
    lane[i] = hash_round(lane[i], word(w + i));
  }
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                    std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  std::uint64_t tail = 0;
  for (std::size_t i = words * kEntriesPerWord; i < cols; ++i) {
    tail = (tail << 16) | row[i].bits();
  }
  return avalanche(hash_fold(hash_fold(h, tail), r));
}

obs::Histogram& hash_seconds() {
  static obs::Histogram& seconds = obs::histogram("engine.hash_seconds");
  return seconds;
}

/// matrix_content_hash(after), from `before`'s hash `h` when the two
/// differ only in `rows`: swaps each listed row's term, so it reads
/// 2 x rows.size() rows instead of the matrix.
std::uint64_t rehash_rows(std::uint64_t h, const DenseMatrix<fp16_t>& before,
                          const DenseMatrix<fp16_t>& after,
                          const std::vector<std::uint32_t>& rows) {
  JIGSAW_TRACE_SCOPE("engine", "engine.hash");
  const obs::ScopedTimer timer(hash_seconds());
  for (const std::uint32_t r : rows) {
    h += row_term(after, r) - row_term(before, r);
  }
  return h;
}

void apply_epilogue(DenseMatrix<float>& c, const core::Epilogue& epilogue) {
  if (!epilogue.active()) return;
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      c(r, j) = epilogue.apply(c(r, j), r);
    }
  }
}

std::size_t footprint_of(const core::JigsawFormat& f) {
  return f.memory_footprint().total();
}

/// BLOCK_TILE row panels containing at least one of the ascending
/// `dirty_rows` — the panels Engine::update re-plans; every other panel's
/// plan and format segments are reused verbatim.
std::vector<std::size_t> dirty_panels_of(
    const std::vector<std::uint32_t>& dirty_rows, int block_tile) {
  const auto bt = static_cast<std::size_t>(block_tile);
  std::vector<std::size_t> dirty;
  for (const std::uint32_t r : dirty_rows) {
    if (dirty.empty() || dirty.back() != r / bt) dirty.push_back(r / bt);
  }
  return dirty;
}

/// The kRaw route's one failure test: some BLOCK_TILE candidate passed
/// the §4.3 reorder.
bool any_candidate_reordered(const core::JigsawPlan& plan) {
  return std::any_of(plan.reorders.begin(), plan.reorders.end(),
                     [](const core::ReorderResult& r) { return r.success(); });
}

}  // namespace

std::uint64_t matrix_content_hash(const DenseMatrix<fp16_t>& a) {
  JIGSAW_TRACE_SCOPE("engine", "engine.hash");
  const obs::ScopedTimer timer(hash_seconds());
  std::uint64_t h = shape_term(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) h += row_term(a, r);
  return h;
}

std::uint64_t options_content_hash(const EngineOptions& resolved) {
  // Every leaf is bound by name, so a new option field does not build
  // until it is hashed here or left out with its reason.
  const auto& [policy, compile] = resolved;
  const auto& [version, block_tile, reorder, updatable] = compile;
  const auto& [tile, search, eviction_limit_per_tile, seed, rescue_attempts,
               max_threads] = reorder;
  const auto& [bank_conflict_aware] = search;
  // Left out: reorder.tile, which resolve sets from block_tile, and
  // max_threads, because plans are thread-count invariant.
  [[maybe_unused]] const auto& [block_tile_m] = tile;
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(policy));
  fnv_mix(h, static_cast<std::uint64_t>(version));
  fnv_mix(h, static_cast<std::uint64_t>(block_tile));
  // updatable changes the artifact (retained operand, lineage cell), so
  // updatable and non-updatable compiles of one matrix never share an
  // entry — an update retiring its old generation cannot evict the
  // read-only artifact other callers keep hitting.
  fnv_mix(h, static_cast<std::uint64_t>(updatable));
  fnv_mix(h, static_cast<std::uint64_t>(bank_conflict_aware));
  fnv_mix(h, static_cast<std::uint64_t>(eviction_limit_per_tile));
  fnv_mix(h, seed);
  fnv_mix(h, static_cast<std::uint64_t>(rescue_attempts));
  return h;
}

Engine::Engine(EngineConfig config)
    : config_(config),
      cache_(config.cache_capacity_bytes),
      pool_(config.worker_threads) {}

Result<std::shared_ptr<const CompiledMatrix>> Engine::compile(
    const DenseMatrix<fp16_t>& a, const EngineOptions& options) {
  JIGSAW_TRACE_SCOPE("engine", "engine.compile");
  if (a.rows() == 0 || a.cols() == 0) {
    return Status(StatusCode::kInvalidArgument, "A is empty");
  }
  const int bt = options.compile.block_tile;
  if (!core::block_tile_valid(bt)) {
    return Status(StatusCode::kInvalidArgument,
                  "BLOCK_TILE must be 16, 32 or 64, got " + std::to_string(bt));
  }
  const EngineOptions resolved = core::resolve(options);
  const CacheKey key{matrix_content_hash(a), options_content_hash(resolved)};
  if (auto hit = cache_.find(key)) {
    obs::add("engine.cache.hits");
    return hit;
  }
  obs::add("engine.cache.misses");

  auto artifact = compile_artifact(a, resolved, key);
  if (!artifact.ok()) return artifact.status();
  auto inserted = cache_.insert(key, artifact.value(),
                                artifact.value()->footprint_bytes);
  if (!inserted.ok()) return inserted.status();
  obs::gauge_set("engine.cache.bytes",
                 static_cast<double>(cache_.stats().bytes));
  return inserted;
}

Result<std::shared_ptr<CompiledMatrix>> Engine::compile_artifact(
    const DenseMatrix<fp16_t>& a, const EngineOptions& resolved,
    const CacheKey& key) const {
  const auto t0 = std::chrono::steady_clock::now();
  auto cm = std::make_shared<CompiledMatrix>();
  cm->matrix_hash = key.matrix_hash;
  cm->options_hash = key.options_hash;
  cm->policy = resolved.policy;
  cm->options = resolved.compile;
  cm->rows = a.rows();
  cm->cols = a.cols();

  // Route selection happens here, once: the artifact records it and
  // execute() just follows. Exceptions from the trusted tier (contract
  // bugs) are converted to kInternal at this boundary.
  try {
    switch (cm->policy) {
      case ExecutionPolicy::kAuto:  // resolved away; unreachable
      case ExecutionPolicy::kChecked: {
        core::CheckedArtifact art = core::checked_compile(a, cm->options);
        cm->degraded = art.hybrid.has_value();
        cm->degradation = std::move(art.degradation);
        if (cm->degraded) {
          cm->hybrid = std::move(art.hybrid);
        } else {
          cm->plan.version = cm->options.version;
          cm->interleaved_format = core::JigsawFormat::build(
              a, art.reorder, core::MetadataLayout::kInterleaved);
          cm->plan.reorders.push_back(std::move(art.reorder));
        }
        break;
      }
      case ExecutionPolicy::kHybrid:
        cm->hybrid = core::hybrid_plan(a, cm->options);
        break;
      case ExecutionPolicy::kRaw:
        cm->plan = core::jigsaw_plan(a, cm->options);
        if (!any_candidate_reordered(cm->plan)) {
          return Status(
              StatusCode::kReorderFailed,
              "raw policy: no BLOCK_TILE candidate reordered successfully "
              "(§4.3); recompile with ExecutionPolicy::kChecked to degrade "
              "instead");
        }
        break;
    }
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("compile raised: ") + e.what());
  }
  if (cm->hybrid.has_value() || cm->options.updatable) {
    // The hybrid pipes read their columns from the original operand, and
    // Engine::update applies deltas against it: either way the artifact
    // keeps its own copy.
    cm->lhs = a;
  }
  Status finalized = finalize_artifact(*cm);
  if (!finalized.ok()) return finalized;
  if (cm->options.updatable) {
    // Fresh lineage cell with this generation-0 artifact as its head. A
    // racing compile of the same key converges on whichever artifact the
    // cache published first, lineage and all; the loser's cell is simply
    // dropped with its artifact.
    cm->lineage = std::make_shared<Lineage>();
    cm->lineage->publish(std::weak_ptr<const CompiledMatrix>(cm));
  }
  cm->compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  obs::observe("engine.compile_seconds", cm->compile_seconds);
  return cm;
}

Status Engine::finalize_artifact(CompiledMatrix& cm) const {
  // Every format the artifact carries is validated here, once, and
  // charged against the cache bound. It carries exactly what its route
  // executes: the kRaw candidates jigsaw_select picks among, otherwise
  // the one format() (the SpTC subset of the hybrid pipes on that route).
  std::vector<const core::JigsawFormat*> formats;
  for (const core::JigsawFormat& f : cm.plan.formats) formats.push_back(&f);
  if (cm.policy != ExecutionPolicy::kRaw) formats.push_back(&cm.format());
  std::size_t bytes = 0;
  for (const core::JigsawFormat* f : formats) {
    Status valid = f->validate();
    if (!valid.ok()) {
      return Status(StatusCode::kInternal,
                    "freshly built format failed validation: " +
                        valid.to_string());
    }
    bytes += footprint_of(*f);
  }

  if (cm.hybrid.has_value()) {
    for (const core::PanelRouting& r : cm.hybrid->routing) {
      bytes += (r.dense_columns.size() + r.cuda_columns.size()) *
               sizeof(std::uint32_t);
    }
  }
  // A retained operand (hybrid or updatable) stays resident with the
  // artifact and is charged to the cache.
  bytes += cm.lhs.size() * sizeof(fp16_t);
  cm.footprint_bytes = bytes;

  // Every SpTC route carries at least one reorder; the kRaw V4 candidates
  // fold in order, and a single reorder keeps its own fingerprint.
  if (cm.hybrid.has_value()) {
    cm.plan_fingerprint = core::plan_fingerprint(cm.hybrid->reorder);
  } else {
    cm.plan_fingerprint = core::plan_fingerprint(cm.plan.reorders.front());
    for (std::size_t i = 1; i < cm.plan.reorders.size(); ++i) {
      fnv_mix(cm.plan_fingerprint,
              core::plan_fingerprint(cm.plan.reorders[i]));
    }
  }
  return Status::Ok();
}

Result<std::shared_ptr<CompiledMatrix>> Engine::update_artifact(
    const CompiledMatrix& base, DenseMatrix<fp16_t> a2,
    const std::vector<std::uint32_t>& dirty_rows, const CacheKey& key) const {
  const EngineOptions resolved{base.policy, base.options};

  // Degraded/hybrid bases route columns off the SpTC path per panel; that
  // routing is not representable by a panel splice, so their successor is
  // a full recompile — bit-identical to a fresh compile of the mutated
  // matrix and published just as atomically.
  const bool incremental =
      !base.plan.reorders.empty() &&
      ((base.policy == ExecutionPolicy::kChecked && !base.degraded) ||
       base.policy == ExecutionPolicy::kRaw);
  if (!incremental) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.full_recompiles");
    return compile_artifact(a2, resolved, key);
  }

  auto cm = std::make_shared<CompiledMatrix>();
  cm->matrix_hash = key.matrix_hash;
  cm->options_hash = key.options_hash;
  cm->policy = base.policy;
  cm->options = base.options;
  cm->rows = a2.rows();
  cm->cols = a2.cols();

  std::size_t panels_replanned = 0;
  try {
    // Re-plan every reorder the route executes (kRaw V4 carries three
    // BLOCK_TILE candidates, the other SpTC routes one) under the recorded
    // options at its own BLOCK_TILE. Per-panel seeds derive from (seed,
    // panel index), so re-planning only the dirty panels is bit-identical
    // to a from-scratch compile.
    cm->plan.version = base.options.version;
    for (std::size_t i = 0; i < base.plan.reorders.size(); ++i) {
      core::ReorderOptions ropts = base.options.reorder;
      ropts.tile = base.plan.reorders[i].tile;
      core::ReorderResult reorder = base.plan.reorders[i];
      const std::vector<std::size_t> dirty =
          dirty_panels_of(dirty_rows, reorder.tile.block_tile_m);
      core::reorder_panels(a2, ropts, dirty, reorder);
      panels_replanned += dirty.size();
      if (base.policy == ExecutionPolicy::kRaw) {
        cm->plan.formats.push_back(
            base.plan.formats[i].rebuild_panels(a2, reorder, dirty));
      } else if (std::any_of(reorder.panels.begin(), reorder.panels.end(),
                             [&](const core::PanelReorder& p) {
                               return core::panel_failed(p, a2.cols());
                             })) {
        // The delta pushed a panel off the SpTC path; the checked tier
        // would degrade it onto the hybrid pipes, which the splice cannot
        // represent — recompile from scratch instead.
        // jigsaw-lint: allow(obs-name): named after the serving API
        // surface (engine.update), not an obs subsystem.
        obs::add("jigsaw.engine.update.full_recompiles");
        return compile_artifact(a2, resolved, key);
      } else {
        cm->degradation.panels_total = reorder.panels.size();
        cm->degradation.reorder_evictions = reorder.total_evictions();
        cm->interleaved_format =
            base.format().rebuild_panels(a2, reorder, dirty);
      }
      cm->plan.reorders.push_back(std::move(reorder));
    }
    if (base.policy == ExecutionPolicy::kRaw &&
        !any_candidate_reordered(cm->plan)) {
      return Status(
          StatusCode::kReorderFailed,
          "update: no BLOCK_TILE candidate reordered successfully after "
          "the delta (§4.3); the previous generation keeps serving — "
          "compile with ExecutionPolicy::kChecked to degrade instead");
    }
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("update raised: ") + e.what());
  }
  // a2 is read for the last time above: the new generation takes it as
  // its retained operand instead of a second copy.
  cm->lhs = std::move(a2);
  Status finalized = finalize_artifact(*cm);
  if (!finalized.ok()) return finalized;
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::add("jigsaw.engine.update.incremental");
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::add("jigsaw.engine.update.panels_replanned",
           static_cast<double>(panels_replanned));
  return cm;
}

Result<std::shared_ptr<const CompiledMatrix>> Engine::update(
    const std::shared_ptr<const CompiledMatrix>& handle,
    const SparseDelta& delta) {
  JIGSAW_TRACE_SCOPE("engine", "engine.update");
  const auto t0 = std::chrono::steady_clock::now();
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::add("jigsaw.engine.update.attempts");
  if (handle == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "update with a null CompiledMatrix handle");
  }
  if (!handle->options.updatable || handle->lineage == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "artifact was not compiled updatable; set "
                  "EngineOptions::Compile::updatable before compile()");
  }
  const std::shared_ptr<Lineage> lineage = handle->lineage;
  // One writer at a time per lineage; readers never take this lock.
  MutexLock writer(lineage->writer_mu);
  std::shared_ptr<const CompiledMatrix> base = lineage->head().lock();
  if (base == nullptr) base = handle;

  for (const SparseDelta::Entry& e : delta.entries) {
    if (e.row >= base->rows || e.col >= base->cols) {
      return Status(StatusCode::kInvalidArgument,
                    "delta entry (" + std::to_string(e.row) + ", " +
                        std::to_string(e.col) + ") outside the " +
                        std::to_string(base->rows) + "x" +
                        std::to_string(base->cols) + " operand");
    }
  }

  DenseMatrix<fp16_t> a2 = base->lhs;
  for (const SparseDelta::Entry& e : delta.entries) {
    a2(e.row, e.col) = e.value;
  }
  // A row is dirty when its final bits differ from the base's, so entries
  // that cancel out leave it clean.
  std::vector<std::uint32_t> dirty_rows;
  for (const SparseDelta::Entry& e : delta.entries) {
    if (a2(e.row, e.col).bits() != base->lhs(e.row, e.col).bits()) {
      dirty_rows.push_back(e.row);
    }
  }
  std::sort(dirty_rows.begin(), dirty_rows.end());
  dirty_rows.erase(std::unique(dirty_rows.begin(), dirty_rows.end()),
                   dirty_rows.end());
  if (dirty_rows.empty()) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.noops");
    return base;
  }

  const CacheKey key{
      rehash_rows(base->matrix_hash, base->lhs, a2, dirty_rows),
      base->options_hash};
  auto rebuilt = update_artifact(*base, std::move(a2), dirty_rows, key);
  if (!rebuilt.ok()) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.failures");
    return rebuilt.status();
  }
  std::shared_ptr<CompiledMatrix> cm = rebuilt.value();
  cm->generation = base->generation + 1;
  cm->lineage = lineage;

  // Insert the new generation's key BEFORE retiring the old one: a failed
  // insert (kCapacityExhausted) must leave the old generation both cached
  // and serving. erase() then retires exactly the superseded generation —
  // unrelated entries keep their recency.
  auto inserted = cache_.insert(key, cm, cm->footprint_bytes);
  if (!inserted.ok()) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.failures");
    return inserted.status();
  }
  // An update can turn its operand into one another lineage already has
  // cached. insert() then keeps that artifact, and this lineage still
  // publishes its own generation, which heads_ owns.
  const std::shared_ptr<const CompiledMatrix> published = cm;
  cache_.erase(CacheKey{base->matrix_hash, base->options_hash}, base.get());
  obs::gauge_set("engine.cache.bytes",
                 static_cast<double>(cache_.stats().bytes));
  // The RCU swap: new submits going through latest() see the new
  // generation from here on; in-flight executions finish on whatever
  // generation their shared_ptr pins. The engine owns the head before it
  // is published, so no eviction can drop it behind the readers' backs.
  own_head(published);
  lineage->publish(std::weak_ptr<const CompiledMatrix>(published));

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::observe("jigsaw.engine.update.latency_seconds", seconds);
  // jigsaw-lint: allow(obs-name): named after the serving API surface
  // (engine.update), not an obs subsystem.
  obs::gauge_set("jigsaw.engine.update.generation",
                 static_cast<double>(cm->generation));
  return published;
}

void Engine::own_head(std::shared_ptr<const CompiledMatrix> head) {
  // Dropped heads are destroyed after the lock is released.
  std::vector<std::shared_ptr<const CompiledMatrix>> dropped;
  MutexLock lock(heads_mu_);
  for (auto it = heads_.begin(); it != heads_.end();) {
    if (it->second.use_count() == 1 &&
        it->second->lineage.use_count() == 1) {
      dropped.push_back(std::move(it->second));
      it = heads_.erase(it);
    } else {
      ++it;
    }
  }
  std::shared_ptr<const CompiledMatrix>& slot = heads_[head->lineage.get()];
  dropped.push_back(std::move(slot));
  slot = std::move(head);
}

std::shared_ptr<const CompiledMatrix> Engine::latest(
    const std::shared_ptr<const CompiledMatrix>& handle) {
  if (handle == nullptr || handle->lineage == nullptr) return handle;
  std::shared_ptr<const CompiledMatrix> head = handle->lineage->head().lock();
  return head != nullptr ? head : handle;
}

Result<DenseMatrix<float>> Engine::execute(
    const CompiledMatrix& handle, const DenseMatrix<fp16_t>& b,
    const EngineOptions::Run& run) const {
  JIGSAW_TRACE_SCOPE("engine", "engine.execute");
  const auto t0 = std::chrono::steady_clock::now();
  if (b.rows() != handle.cols) {
    return Status(StatusCode::kInvalidArgument,
                  "SpMM shape mismatch: compiled A cols " +
                      std::to_string(handle.cols) + " vs B rows " +
                      std::to_string(b.rows()));
  }
  if (run.epilogue.bias != nullptr &&
      run.epilogue.bias->size() != handle.rows) {
    return Status(StatusCode::kInvalidArgument,
                  "epilogue bias length " +
                      std::to_string(run.epilogue.bias->size()) +
                      " vs compiled A rows " + std::to_string(handle.rows));
  }
  try {
    DenseMatrix<float> c(0, 0);
    if (handle.hybrid.has_value()) {
      c = core::hybrid_compute(*handle.hybrid, handle.lhs, b);
      // The three pipes merge unfused; apply the epilogue to the sum.
      apply_epilogue(c, run.epilogue);
    } else {
      // Both SpTC routes share one compute path: kChecked runs its one
      // format, kRaw the candidate jigsaw_select picks for this RHS width
      // (memoized on the plan, so only the first request at a width
      // walks, and before the window opens). Pre-size the output, then
      // count this thread's heap traffic across the kernel proper (its
      // OpenMP body allocates nothing; other threads' allocations are not
      // the request's). On a warmed-up worker (kernel scratch grown, pool
      // caches primed) the delta is zero — the regression tests in
      // test_engine.cpp pin that down for both routes and beside a busy
      // neighbour thread. The hybrid pipes allocate their tiles and stay
      // outside.
      const core::JigsawFormat* format = &handle.format();
      if (handle.policy == ExecutionPolicy::kRaw) {
        const core::JigsawSelection chosen = core::jigsaw_select(
            handle.plan, b.cols(), config_.cost_model, run);
        format = &handle.plan.formats[chosen.index];
      }
      c = DenseMatrix<float>(handle.rows, b.cols());
      const std::uint64_t heap_before = thread_heap_allocation_count();
      core::jigsaw_compute_into(*format, b, c, run.epilogue);
      const std::uint64_t heap_delta =
          thread_heap_allocation_count() - heap_before;
      // Cached reference: a registry lookup hashes the name and may
      // itself allocate, which would poison the window on the next call.
      static obs::Counter& submit_allocs =
          // jigsaw-lint: allow(obs-name): the counter is named after the
          // serving API surface (engine.submit), not an obs subsystem.
          obs::counter("jigsaw.engine.submit.allocations");
      submit_allocs.add(static_cast<double>(heap_delta));
    }
    obs::observe(
        "engine.execute_seconds",
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    return c;
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("execute raised: ") + e.what());
  }
}

std::future<Result<DenseMatrix<float>>> Engine::submit(
    std::shared_ptr<const CompiledMatrix> handle, DenseMatrix<fp16_t> b,
    EngineOptions::Run run) {
  obs::add("engine.submits");
  return pool_.submit(
      [this, handle = std::move(handle), b = std::move(b),
       run = std::move(run)]() -> Result<DenseMatrix<float>> {
        if (handle == nullptr) {
          return Status(StatusCode::kInvalidArgument,
                        "submit with a null CompiledMatrix handle");
        }
        return execute(*handle, b, run);
      });
}

gpusim::KernelReport Engine::cost(const CompiledMatrix& handle, std::size_t n,
                                  const EngineOptions::Run& run) const {
  if (handle.hybrid.has_value()) {
    return core::hybrid_cost(*handle.hybrid, n, config_.cost_model,
                             run.tuning);
  }
  if (handle.policy == ExecutionPolicy::kRaw) {
    return core::jigsaw_select(handle.plan, n, config_.cost_model, run).report;
  }
  return core::jigsaw_cost(handle.format(), n, handle.options.version,
                           config_.cost_model, run.tuning, run.epilogue);
}

}  // namespace jigsaw::engine
