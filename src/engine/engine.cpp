#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
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

void fnv_mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  fnv_mix(h, bits);
}

/// The layout field an undegraded kChecked artifact executes (the one
/// CompiledMatrix::format() reads off the hybrid route).
core::JigsawFormat& checked_format(CompiledMatrix& cm) {
  return cm.options.metadata_layout == core::MetadataLayout::kNaive
             ? cm.naive_format
             : cm.interleaved_format;
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

/// BLOCK_TILE row panels containing at least one dirty row — the panels
/// Engine::update re-plans; every other panel's plan and format segments
/// are reused verbatim.
std::vector<std::size_t> dirty_panels_of(const std::vector<bool>& row_dirty,
                                         int block_tile) {
  const auto bt = static_cast<std::size_t>(block_tile);
  const std::size_t rows = row_dirty.size();
  const std::size_t num_panels = (rows + bt - 1) / bt;
  std::vector<std::size_t> dirty;
  for (std::size_t p = 0; p < num_panels; ++p) {
    const std::size_t row_end = std::min((p + 1) * bt, rows);
    for (std::size_t r = p * bt; r < row_end; ++r) {
      if (row_dirty[r]) {
        dirty.push_back(p);
        break;
      }
    }
  }
  return dirty;
}

/// compile_artifact's kRaw candidate selection, shared with the update
/// path so a spliced plan picks the same BLOCK_TILE its base would.
std::pair<bool, std::size_t> choose_raw_candidate(const core::JigsawPlan& plan,
                                                  int preferred_block_tile) {
  std::size_t chosen = 0;
  bool any_success = false;
  for (std::size_t i = 0; i < plan.reorders.size(); ++i) {
    if (!plan.reorders[i].success()) continue;
    if (!any_success ||
        plan.reorders[i].tile.block_tile_m == preferred_block_tile) {
      chosen = i;
    }
    any_success = true;
  }
  return {any_success, chosen};
}

}  // namespace

std::uint64_t matrix_content_hash(const DenseMatrix<fp16_t>& a) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, a.rows());
  fnv_mix(h, a.cols());
  const fp16_t* data = a.data();
  const std::size_t n = a.rows() * a.cols();
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i].bits() & 0xffu;
    h *= kFnvPrime;
    h ^= (data[i].bits() >> 8) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t options_content_hash(const EngineOptions& options,
                                   ExecutionPolicy resolved_policy) {
  const EngineOptions::Compile& c = options.compile;
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(resolved_policy));
  fnv_mix(h, static_cast<std::uint64_t>(c.version));
  fnv_mix(h, static_cast<std::uint64_t>(c.block_tile));
  fnv_mix(h, static_cast<std::uint64_t>(c.metadata_layout));
  fnv_mix_double(h, c.dense_route_min_density);
  fnv_mix(h, c.cuda_route_max_nnz);
  // updatable changes the artifact (retained operand, lineage cell), so
  // updatable and non-updatable compiles of one matrix never share an
  // entry — an update retiring its old generation cannot evict the
  // read-only artifact other callers keep hitting.
  fnv_mix(h, static_cast<std::uint64_t>(c.updatable));
  // Every plan-affecting reorder knob. Deliberately excluded: max_threads
  // (plans are thread-count invariant), tile (every route overwrites it
  // with block_tile or the kRaw V4 candidates) and, under kRaw,
  // bank_conflict_aware (jigsaw_plan sets it from the version, which is
  // already keyed; kChecked and kHybrid read the caller's value).
  const core::ReorderOptions& r = c.reorder;
  if (resolved_policy != ExecutionPolicy::kRaw) {
    fnv_mix(h, static_cast<std::uint64_t>(r.search.bank_conflict_aware));
  }
  fnv_mix(h, static_cast<std::uint64_t>(r.eviction_limit_per_tile));
  fnv_mix(h, r.seed);
  fnv_mix(h, static_cast<std::uint64_t>(r.rescue_attempts));
  return h;
}

Engine::Engine(EngineConfig config)
    : config_(config),
      cache_(config.cache_capacity_bytes, config.cache_shards),
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
  const ExecutionPolicy policy = options.policy == ExecutionPolicy::kAuto
                                     ? ExecutionPolicy::kChecked
                                     : options.policy;
  const CacheKey key{matrix_content_hash(a),
                     options_content_hash(options, policy)};
  if (auto hit = cache_.find(key)) {
    obs::add("engine.cache.hits");
    return hit;
  }
  obs::add("engine.cache.misses");

  auto artifact = compile_artifact(a, options, policy, key);
  if (!artifact.ok()) return artifact.status();
  auto inserted = cache_.insert(key, artifact.value(),
                                artifact.value()->footprint_bytes);
  if (!inserted.ok()) return inserted.status();
  obs::gauge_set("engine.cache.bytes",
                 static_cast<double>(cache_.stats().bytes));
  return inserted;
}

Result<std::shared_ptr<CompiledMatrix>> Engine::compile_artifact(
    const DenseMatrix<fp16_t>& a, const EngineOptions& options,
    ExecutionPolicy policy, const CacheKey& key) const {
  const auto t0 = std::chrono::steady_clock::now();
  auto cm = std::make_shared<CompiledMatrix>();
  cm->matrix_hash = key.matrix_hash;
  cm->options_hash = key.options_hash;
  cm->policy = policy;
  cm->options = options.compile;
  cm->rows = a.rows();
  cm->cols = a.cols();

  // Route selection happens here, once: the artifact records it and
  // execute() just follows. Exceptions from the trusted tier (contract
  // bugs) are converted to kInternal at this boundary.
  const core::ReorderResult* primary = nullptr;
  try {
    switch (policy) {
      case ExecutionPolicy::kAuto:  // resolved by compile(); unreachable
      case ExecutionPolicy::kChecked: {
        core::CheckedArtifact art = core::checked_compile(a, options.compile);
        cm->degraded = art.hybrid.has_value();
        cm->degradation = std::move(art.degradation);
        if (cm->degraded) {
          cm->hybrid = std::move(art.hybrid);
          primary = &cm->hybrid->reorder;
        } else {
          cm->plan.version = options.compile.version;
          cm->plan.reorders.push_back(std::move(art.reorder));
          primary = &cm->plan.reorders.back();
          checked_format(*cm) = core::JigsawFormat::build(
              a, *primary, options.compile.metadata_layout);
        }
        break;
      }
      case ExecutionPolicy::kHybrid: {
        cm->hybrid = core::hybrid_plan(a, options.compile);
        primary = &cm->hybrid->reorder;
        break;
      }
      case ExecutionPolicy::kRaw: {
        cm->plan = core::jigsaw_plan(a, options.compile);
        const auto [any_success, chosen] =
            choose_raw_candidate(cm->plan, options.compile.block_tile);
        if (!any_success) {
          return Status(
              StatusCode::kReorderFailed,
              "raw policy: no BLOCK_TILE candidate reordered successfully "
              "(§4.3); recompile with ExecutionPolicy::kChecked to degrade "
              "instead");
        }
        primary = &cm->plan.reorders[chosen];
        break;
      }
    }

    JIGSAW_CHECK_MSG(primary != nullptr, "no primary reorder selected");
    cm->plan_fingerprint = core::plan_fingerprint(*primary);
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("compile raised: ") + e.what());
  }
  Status finalized = finalize_artifact(*cm, a);
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

Status Engine::finalize_artifact(CompiledMatrix& cm,
                                 const DenseMatrix<fp16_t>& a) const {
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
  if (cm.hybrid.has_value() || cm.options.updatable) {
    // The hybrid pipes read their columns from the original operand, and
    // Engine::update applies deltas against it — either way the operand
    // stays resident with the artifact and is charged to the cache.
    cm.lhs = a;
    bytes += a.rows() * a.cols() * sizeof(fp16_t);
  }
  cm.footprint_bytes = bytes;
  return Status::Ok();
}

Result<std::shared_ptr<CompiledMatrix>> Engine::update_artifact(
    const CompiledMatrix& base, const DenseMatrix<fp16_t>& a2,
    const std::vector<bool>& row_dirty) const {
  EngineOptions options;
  options.policy = base.policy;
  options.compile = base.options;
  const CacheKey key{matrix_content_hash(a2), base.options_hash};

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
    return compile_artifact(a2, options, base.policy, key);
  }

  auto cm = std::make_shared<CompiledMatrix>();
  cm->matrix_hash = key.matrix_hash;
  cm->options_hash = key.options_hash;
  cm->policy = base.policy;
  cm->options = base.options;
  cm->rows = a2.rows();
  cm->cols = a2.cols();

  const core::ReorderResult* primary = nullptr;
  std::size_t panels_replanned = 0;
  try {
    if (base.policy == ExecutionPolicy::kChecked) {
      // Replicate checked_compile's reorder options exactly: the recorded
      // result tile IS the compile's block_tile, and per-panel seeds
      // derive from (seed, panel index), so re-planning only the dirty
      // panels is bit-identical to a from-scratch checked compile.
      core::ReorderOptions ropts = base.options.reorder;
      ropts.tile = base.plan.reorders[0].tile;
      core::ReorderResult reorder = base.plan.reorders[0];
      const std::vector<std::size_t> dirty =
          dirty_panels_of(row_dirty, reorder.tile.block_tile_m);
      core::reorder_panels(a2, ropts, dirty, reorder);
      panels_replanned += dirty.size();
      if (std::any_of(reorder.panels.begin(), reorder.panels.end(),
                      [&](const core::PanelReorder& p) {
                        return core::panel_failed(p, a2.cols());
                      })) {
        // The delta pushed a panel off the SpTC path; the checked tier
        // would degrade it onto the hybrid pipes, which the splice cannot
        // represent — recompile from scratch instead.
        // jigsaw-lint: allow(obs-name): named after the serving API
        // surface (engine.update), not an obs subsystem.
        obs::add("jigsaw.engine.update.full_recompiles");
        return compile_artifact(a2, options, base.policy, key);
      }
      cm->degradation.panels_total = reorder.panels.size();
      cm->degradation.reorder_evictions = reorder.total_evictions();
      cm->plan.version = base.options.version;
      cm->plan.reorders.push_back(std::move(reorder));
      primary = &cm->plan.reorders.back();
      checked_format(*cm) = base.format().rebuild_panels(a2, *primary, dirty);
    } else {
      // kRaw: splice every BLOCK_TILE candidate (V4 carries three), then
      // re-run the candidate selection against the updated plans.
      const core::KernelFeatures feats =
          core::KernelFeatures::for_version(base.options.version);
      cm->plan.version = base.options.version;
      for (std::size_t i = 0; i < base.plan.reorders.size(); ++i) {
        core::ReorderOptions ropts = base.options.reorder;
        ropts.tile = base.plan.reorders[i].tile;
        ropts.search.bank_conflict_aware = feats.padded_smem;
        core::ReorderResult reorder = base.plan.reorders[i];
        const std::vector<std::size_t> dirty =
            dirty_panels_of(row_dirty, reorder.tile.block_tile_m);
        core::reorder_panels(a2, ropts, dirty, reorder);
        panels_replanned += dirty.size();
        cm->plan.formats.push_back(
            base.plan.formats[i].rebuild_panels(a2, reorder, dirty));
        cm->plan.reorders.push_back(std::move(reorder));
      }
      const auto [any_success, chosen] =
          choose_raw_candidate(cm->plan, base.options.block_tile);
      if (!any_success) {
        return Status(
            StatusCode::kReorderFailed,
            "update: no BLOCK_TILE candidate reordered successfully after "
            "the delta (§4.3); the previous generation keeps serving — "
            "compile with ExecutionPolicy::kChecked to degrade instead");
      }
      primary = &cm->plan.reorders[chosen];
    }
    JIGSAW_CHECK_MSG(primary != nullptr, "no primary reorder selected");
    cm->plan_fingerprint = core::plan_fingerprint(*primary);
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal,
                  std::string("update raised: ") + e.what());
  }
  Status finalized = finalize_artifact(*cm, a2);
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
  std::vector<bool> row_dirty(base->rows, false);
  bool changed = false;
  for (const SparseDelta::Entry& e : delta.entries) {
    if (a2(e.row, e.col).bits() == e.value.bits()) continue;  // no-op entry
    a2(e.row, e.col) = e.value;
    row_dirty[e.row] = true;
    changed = true;
  }
  if (!changed) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.noops");
    return base;
  }

  auto rebuilt = update_artifact(*base, a2, row_dirty);
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
  // and serving. erase() then retires exactly the superseded key —
  // unrelated entries keep their recency.
  const CacheKey new_key{cm->matrix_hash, cm->options_hash};
  auto inserted = cache_.insert(new_key, cm, cm->footprint_bytes);
  if (!inserted.ok()) {
    // jigsaw-lint: allow(obs-name): named after the serving API surface
    // (engine.update), not an obs subsystem.
    obs::add("jigsaw.engine.update.failures");
    return inserted.status();
  }
  std::shared_ptr<const CompiledMatrix> published = inserted.value();
  cache_.erase(CacheKey{base->matrix_hash, base->options_hash});
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
      // count heap traffic across the kernel proper. On a warmed-up
      // worker (arena grown, pool caches primed) the delta is zero — the
      // regression test in test_engine.cpp pins that down for both
      // routes. The hybrid pipes allocate their tiles and stay outside.
      const core::JigsawFormat* format = &handle.format();
      if (handle.policy == ExecutionPolicy::kRaw) {
        const core::JigsawSelection chosen = core::jigsaw_select(
            handle.plan, b.cols(), config_.cost_model, run);
        format = &handle.plan.formats[chosen.index];
      }
      c = DenseMatrix<float>(handle.rows, b.cols());
      const std::uint64_t heap_before = heap_allocation_count();
      core::jigsaw_compute_into(*format, b, c, run.epilogue);
      const std::uint64_t heap_delta =
          heap_allocation_count() - heap_before;
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
