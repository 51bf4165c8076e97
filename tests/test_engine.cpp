// Serving engine (src/engine): the unified compile/submit facade, the
// fingerprint-keyed LRU plan cache, and concurrent execution on
// the worker pool. The acceptance contract of the tier:
//   * a same-content recompile is a cache hit — the same CompiledMatrix
//     pointer comes back and no second reorder runs (proved through the
//     obs "reorder.plans" counter); two compiles share an entry exactly
//     when their options resolve equal (core::resolve), and options that
//     resolve equal build equal artifacts;
//   * eviction honors the capacity-bytes bound, LRU first;
//   * concurrent submits are bit-identical to single-thread execution
//     and allclose to the dense reference (differential-harness sweep);
//   * compile under a reorder fault follows the policy: kRaw returns a
//     typed kReorderFailed, kChecked degrades onto the hybrid pipes and
//     stays exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/checked.hpp"
#include "dlmc/suite.hpp"
#include "engine/engine.hpp"
#include "matrix/reference.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jigsaw::engine {
namespace {

struct SweepCase {
  std::size_t m, k;
  int sparsity_pct;
  std::size_t v;
  std::uint64_t seed;
};

/// Subset of the differential-harness ladder (tests/test_differential.cpp):
/// sparsity rungs crossed with vector widths plus a ragged shape.
const std::vector<SweepCase>& sweep_cases() {
  static const std::vector<SweepCase> kCases = {
      {64, 128, 70, 2, 11},  {64, 128, 80, 2, 21},  {128, 256, 80, 4, 22},
      {64, 128, 90, 8, 31},  {128, 256, 98, 8, 42}, {56, 100, 85, 2, 51},
      {100, 130, 92, 4, 52},
  };
  return kCases;
}

DenseMatrix<fp16_t> lhs_for(const SweepCase& c) {
  return dlmc::make_lhs({c.m, c.k}, c.sparsity_pct / 100.0, c.v, c.seed)
      .values();
}

DenseMatrix<fp16_t> sample_lhs(std::uint64_t seed = 11) {
  return dlmc::make_lhs({64, 128}, 0.8, 4, seed).values();
}

/// Reorder-breaking matrix: at BLOCK_TILE 16, panel 0 holds an all-ones
/// 16x16 block (every row has 16 nonzeros — structurally impossible under
/// 2:4) plus one straggler column; panel 1 is trivially compliant.
DenseMatrix<fp16_t> adversarial_matrix() {
  DenseMatrix<fp16_t> a(32, 32);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) a(r, c) = fp16_t(1.0f);
  }
  a(5, 24) = fp16_t(2.0f);  // nnz 1 in the panel -> CUDA-core fallback
  for (std::size_t r = 0; r < 16; ++r) {
    a(16 + r, r) = fp16_t(0.5f + 0.03125f * static_cast<float>(r));
  }
  return a;
}

double counter_value(const char* name) {
  return obs::counter(name).value();
}

/// Every format a request on this artifact's route executes: kRaw picks
/// among the plan's candidates, the hybrid route runs the SpTC subset in
/// hybrid->format, an undegraded kChecked artifact runs format().
std::vector<const core::JigsawFormat*> executed_formats(
    const CompiledMatrix& cm) {
  std::vector<const core::JigsawFormat*> out;
  if (cm.policy == ExecutionPolicy::kRaw) {
    for (const core::JigsawFormat& f : cm.plan.formats) out.push_back(&f);
  } else if (cm.hybrid.has_value()) {
    out.push_back(&cm.hybrid->format);
  } else {
    out.push_back(&cm.format());
  }
  return out;
}

/// Number of non-empty formats anywhere in the artifact.
std::size_t carried_formats(const CompiledMatrix& cm) {
  std::size_t n = (cm.naive_format.rows() != 0) +
                  (cm.interleaved_format.rows() != 0) + cm.plan.formats.size();
  if (cm.hybrid.has_value()) n += cm.hybrid->format.rows() != 0;
  return n;
}

// ---- Cache identity -------------------------------------------------------

TEST(EngineCache, RecompileIsAHitWithNoSecondReorder) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  Engine engine;
  const auto a = sample_lhs();

  auto first = engine.compile(a);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const double reorders_after_first = counter_value("reorder.plans");
  EXPECT_GT(reorders_after_first, 0.0);

  // Same content, same options — by a separate (copied) matrix object, so
  // the hit is keyed on content, not identity.
  const DenseMatrix<fp16_t> copy = a;
  auto second = engine.compile(copy);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get())
      << "cache hit must return the same CompiledMatrix";
  EXPECT_EQ(counter_value("reorder.plans"), reorders_after_first)
      << "a cache hit must not re-run the reorder";
  EXPECT_EQ(counter_value("engine.cache.hits"), 1.0);
  EXPECT_EQ(counter_value("engine.cache.misses"), 1.0);

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, first.value()->footprint_bytes);
  obs::set_metrics_enabled(false);
}

TEST(EngineCache, DifferentOptionsAndContentMissSeparately) {
  Engine engine;
  const auto a = sample_lhs(11);

  auto base = engine.compile(a);
  ASSERT_TRUE(base.ok());

  EngineOptions other;
  other.compile.reorder.seed = 99;  // plan-affecting knob -> new artifact
  auto reseeded = engine.compile(a, other);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(base.value().get(), reseeded.value().get());

  auto different = engine.compile(sample_lhs(12));
  ASSERT_TRUE(different.ok());
  EXPECT_NE(base.value().get(), different.value().get());

  EXPECT_EQ(engine.cache_stats().entries, 3u);
  EXPECT_EQ(engine.cache_stats().misses, 3u);
}

TEST(EngineCache, ReorderTileDoesNotSplitTheCache) {
  // core::resolve sets reorder.tile from block_tile (or the kRaw V4
  // candidates), so a compile that differs only in reorder.tile is the
  // same artifact.
  Engine engine;
  const auto a = sample_lhs();
  EngineOptions options;
  auto first = engine.compile(a, options);
  options.compile.reorder.tile.block_tile_m = 16;
  auto second = engine.compile(a, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(engine.cache_stats().entries, 1u);
}

TEST(EngineCache, RawBankConflictFlagDoesNotSplitTheCache) {
  // core::resolve sets reorder.search.bank_conflict_aware from the kernel
  // version on kRaw, so two kRaw compiles that differ only in the caller's
  // flag are the same artifact.
  Engine engine;
  const auto a = dlmc::make_lhs({256, 256}, 0.8, 4, 7).values();
  EngineOptions options;
  options.policy = ExecutionPolicy::kRaw;
  options.compile.version = core::KernelVersion::kV4;
  auto first = engine.compile(a, options);
  options.compile.reorder.search.bank_conflict_aware =
      !options.compile.reorder.search.bank_conflict_aware;
  auto second = engine.compile(a, options);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(engine.cache_stats().entries, 1u);
}

// ---- Compile stages -------------------------------------------------------

/// Spans named `name` that start and end inside [begin, end].
std::size_t spans_within(const std::vector<obs::TraceEvent>& events,
                         std::string_view name, std::uint64_t begin,
                         std::uint64_t end) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const auto& e) {
        return e.name == name && e.start_ns >= begin &&
               e.start_ns + e.duration_ns <= end;
      }));
}

std::size_t spans_named(const std::vector<obs::TraceEvent>& events,
                        std::string_view name) {
  return spans_within(events, name, 0, UINT64_MAX);
}

TEST(EngineTrace, ColdCompileRecordsOneSpanPerStage) {
  // A compile splits into content hash, reorder, format build,
  // validation and cache insert; a warm compile only hashes.
  obs::reset_metrics();
  obs::reset_trace();
  obs::set_enabled(true);
  Engine engine;
  const auto a = sample_lhs();
  EngineOptions options;
  options.policy = ExecutionPolicy::kChecked;
  ASSERT_TRUE(engine.compile(a, options).ok());
  const std::vector<obs::TraceEvent> cold = obs::trace_snapshot();
  obs::reset_trace();
  ASSERT_TRUE(engine.compile(a, options).ok());
  const std::vector<obs::TraceEvent> warm = obs::trace_snapshot();
  obs::set_enabled(false);
  obs::reset_trace();

  ASSERT_EQ(spans_named(cold, "engine.compile"), 1u);
  const auto compile =
      std::find_if(cold.begin(), cold.end(), [](const auto& e) {
        return std::string_view(e.name) == "engine.compile";
      });
  const std::uint64_t begin = compile->start_ns;
  const std::uint64_t end = begin + compile->duration_ns;
  for (const char* stage : {"engine.hash", "reorder.plan", "format.build",
                            "format.validate", "engine.cache.insert"}) {
    EXPECT_EQ(spans_named(cold, stage), 1u) << stage;
    EXPECT_EQ(spans_within(cold, stage, begin, end), 1u) << stage;
  }

  EXPECT_EQ(spans_named(warm, "engine.compile"), 1u);
  EXPECT_EQ(spans_named(warm, "engine.hash"), 1u);
  EXPECT_EQ(spans_named(warm, "reorder.plan"), 0u);

  // Each new stage histogram observes once per call.
  EXPECT_EQ(obs::histogram("engine.hash_seconds").count(), 2u);
  EXPECT_EQ(obs::histogram("format.validate_seconds").count(), 1u);
  EXPECT_EQ(obs::histogram("engine.cache.insert_seconds").count(), 1u);
}

TEST(EngineTrace, IncrementalUpdateRecordsOneSpanPerStage) {
  // An incremental update rehashes its dirty rows, validates the one
  // spliced format and inserts the new generation, each once inside
  // engine.update, and plans nothing from scratch.
  EngineOptions options;
  options.policy = ExecutionPolicy::kChecked;
  options.compile.updatable = true;
  Engine engine;
  const auto a = sample_lhs();
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  SparseDelta delta;
  delta.set(1, 2, 0.75f);
  delta.set(1, 3, -0.5f);
  obs::reset_metrics();
  obs::reset_trace();
  obs::set_enabled(true);
  auto updated = engine.update(compiled.value(), delta);
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  obs::set_enabled(false);
  obs::reset_trace();
  ASSERT_TRUE(updated.ok()) << updated.status().to_string();

  ASSERT_EQ(spans_named(events, "engine.update"), 1u);
  const auto update =
      std::find_if(events.begin(), events.end(), [](const auto& e) {
        return std::string_view(e.name) == "engine.update";
      });
  const std::uint64_t begin = update->start_ns;
  const std::uint64_t end = begin + update->duration_ns;
  for (const char* stage :
       {"engine.hash", "format.validate", "engine.cache.insert"}) {
    EXPECT_EQ(spans_named(events, stage), 1u) << stage;
    EXPECT_EQ(spans_within(events, stage, begin, end), 1u) << stage;
  }
  EXPECT_EQ(spans_named(events, "reorder.plan"), 0u);
  EXPECT_EQ(obs::histogram("engine.hash_seconds").count(), 1u);
  EXPECT_EQ(obs::histogram("format.validate_seconds").count(), 1u);
}

// ---- Eviction and the byte bound ------------------------------------------

TEST(EngineCache, EvictionHonorsTheCapacityBound) {
  const auto a = sample_lhs(1);
  Engine probe;
  auto probed = probe.compile(a);
  ASSERT_TRUE(probed.ok());
  const std::size_t artifact_bytes = probed.value()->footprint_bytes;

  // Room for two artifacts of this shape. Every matrix below has the
  // same shape and sparsity, so the footprints are nearly identical.
  EngineConfig config;
  config.cache_capacity_bytes = artifact_bytes * 5 / 2;
  Engine engine(config);

  auto first = engine.compile(sample_lhs(1));
  auto second = engine.compile(sample_lhs(2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.cache_stats().evictions, 0u);
  EXPECT_LE(engine.cache_stats().bytes, engine.cache_stats().capacity_bytes);

  // Third artifact exceeds the bound -> the least-recently-used (first)
  // entry must go.
  auto third = engine.compile(sample_lhs(3));
  ASSERT_TRUE(third.ok());
  EXPECT_GE(engine.cache_stats().evictions, 1u);
  EXPECT_LE(engine.cache_stats().bytes, engine.cache_stats().capacity_bytes);

  // The survivor is still a hit; the evicted one recompiles as a miss.
  const std::uint64_t hits_before = engine.cache_stats().hits;
  auto second_again = engine.compile(sample_lhs(2));
  ASSERT_TRUE(second_again.ok());
  EXPECT_EQ(second_again.value().get(), second.value().get());
  EXPECT_EQ(engine.cache_stats().hits, hits_before + 1);

  const std::uint64_t misses_before = engine.cache_stats().misses;
  auto first_again = engine.compile(sample_lhs(1));
  ASSERT_TRUE(first_again.ok());
  EXPECT_NE(first_again.value().get(), first.value().get());
  EXPECT_EQ(engine.cache_stats().misses, misses_before + 1);
}

TEST(EngineCache, OversizedArtifactIsCapacityExhausted) {
  EngineConfig config;
  config.cache_capacity_bytes = 64;  // smaller than any real artifact
  Engine engine(config);
  auto compiled = engine.compile(sample_lhs());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kCapacityExhausted);
}

TEST(EngineCache, AdmitsAnArtifactUnderTheWholeBudget) {
  // The bound is one budget: an artifact is refused only when it alone
  // exceeds the whole capacity, never a fraction of it.
  const auto a = sample_lhs();
  Engine probe;
  auto probed = probe.compile(a);
  ASSERT_TRUE(probed.ok());
  EngineConfig config;
  config.cache_capacity_bytes = 2 * probed.value()->footprint_bytes;
  Engine engine(config);
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  EXPECT_EQ(engine.cache_stats().entries, 1u);
}

TEST(EngineCache, ClearDropsEntriesButKeepsHandlesAlive) {
  Engine engine;
  const auto a = sample_lhs();
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok());
  engine.clear_cache();
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  EXPECT_EQ(engine.cache_stats().bytes, 0u);
  // The handed-out artifact still executes.
  const auto b = dlmc::make_rhs(a.cols(), 8, 3);
  auto result = engine.execute(*compiled.value(), b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(allclose(result.value(), reference_gemm(a, b), a.cols()));
}

// ---- Typed errors at the boundary -----------------------------------------

TEST(EngineErrors, EmptyMatrixAndBadTileAreInvalidArgument) {
  Engine engine;
  EXPECT_EQ(engine.compile(DenseMatrix<fp16_t>()).status().code(),
            StatusCode::kInvalidArgument);
  EngineOptions options;
  options.compile.block_tile = 48;
  EXPECT_EQ(engine.compile(sample_lhs(), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineErrors, WrongShapeSubmitResolvesToInvalidArgument) {
  Engine engine;
  const auto a = sample_lhs();
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok());
  auto future =
      engine.submit(compiled.value(), dlmc::make_rhs(a.cols() + 16, 8, 3));
  EXPECT_EQ(future.get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.submit(nullptr, dlmc::make_rhs(a.cols(), 8, 3))
                .get()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---- Compile under fault: policy routing ----------------------------------

TEST(EnginePolicy, RawPolicyReturnsTypedReorderFailure) {
  Engine engine;
  EngineOptions options;
  options.policy = ExecutionPolicy::kRaw;
  options.compile.version = core::KernelVersion::kV1;  // single candidate
  options.compile.block_tile = 16;
  options.compile.reorder.rescue_attempts = 0;
  auto compiled = engine.compile(adversarial_matrix(), options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kReorderFailed);
}

TEST(EnginePolicy, CheckedPolicyDegradesTheSameFaultAndStaysExact) {
  Engine engine;
  EngineOptions options;
  options.policy = ExecutionPolicy::kChecked;
  options.compile.block_tile = 16;
  const auto a = adversarial_matrix();
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const CompiledMatrix& handle = *compiled.value();
  EXPECT_TRUE(handle.degraded);
  ASSERT_TRUE(handle.hybrid.has_value());
  const core::DegradationReport& deg = handle.degradation;
  EXPECT_EQ(deg.panels_degraded, 1u);
  EXPECT_EQ(deg.panels_total, 2u);
  // The failed panel's 16 dense columns go to the dense tensor core, the
  // single-nonzero straggler to the CUDA cores.
  EXPECT_EQ(deg.fallback_dense_columns, 16u);
  EXPECT_EQ(deg.fallback_cuda_columns, 1u);
  ASSERT_EQ(deg.notes.size(), 1u);
  EXPECT_NE(deg.notes[0].find("panel 0"), std::string::npos);

  const auto b = dlmc::make_rhs(a.cols(), 16, 7);
  auto result = engine.submit(compiled.value(), b).get();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(allclose(result.value(), reference_gemm(a, b), a.cols()));
}

// ---- The checked tier: Engine's argument checks, core's degradation step --

TEST(CheckedRun, RejectsBadArguments) {
  // Under kChecked every argument check is Engine's: an empty A, a
  // BLOCK_TILE outside {16, 32, 64}, a B whose rows miss A's columns and
  // an epilogue bias whose length misses A's rows (on the hybrid route
  // too) come back as typed kInvalidArgument.
  const DenseMatrix<fp16_t> a(32, 32);
  Engine engine;
  EngineOptions options;
  options.policy = ExecutionPolicy::kChecked;
  EXPECT_EQ(engine.compile(DenseMatrix<fp16_t>(), options).status().code(),
            StatusCode::kInvalidArgument);
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  EXPECT_EQ(engine.execute(*compiled.value(), dlmc::make_rhs(31, 8, 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EngineOptions hybrid = options;
  hybrid.policy = ExecutionPolicy::kHybrid;
  auto hybrid_compiled = engine.compile(a, hybrid);
  ASSERT_TRUE(hybrid_compiled.ok()) << hybrid_compiled.status().to_string();
  ASSERT_TRUE(hybrid_compiled.value()->hybrid.has_value());
  const auto rhs = dlmc::make_rhs(32, 8, 1);
  for (const auto& handle : {compiled.value(), hybrid_compiled.value()}) {
    for (const std::size_t len : {a.rows() - 1, a.rows() + 1}) {
      const std::vector<float> bias(len, 1.0f);
      EngineOptions::Run run;
      run.epilogue.bias = &bias;
      EXPECT_EQ(engine.execute(*handle, rhs, run).status().code(),
                StatusCode::kInvalidArgument)
          << core::to_string(handle->policy) << " bias length " << len;
      EXPECT_EQ(engine.submit(handle, rhs, run).get().status().code(),
                StatusCode::kInvalidArgument)
          << core::to_string(handle->policy) << " bias length " << len;
    }
  }
  options.compile.block_tile = 24;
  EXPECT_EQ(engine.compile(a, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckedRun, ReorderFailureDegradesToHybridAndStaysExact) {
  const auto a = adversarial_matrix();
  const auto b = dlmc::make_rhs(a.cols(), 16, 7);
  EngineOptions::Compile compile;
  compile.block_tile = 16;

  // Sanity: the plain tier really cannot hold this panel in the SpTC path.
  core::ReorderOptions ropts;
  ropts.tile.block_tile_m = 16;
  ASSERT_FALSE(core::multi_granularity_reorder(a, ropts).success());

  const core::CheckedArtifact art = core::checked_compile(a, compile);
  ASSERT_TRUE(art.hybrid.has_value());
  const core::DegradationReport& deg = art.degradation;
  EXPECT_TRUE(deg.degraded());
  EXPECT_EQ(deg.panels_total, 2u);
  EXPECT_EQ(deg.panels_degraded, 1u);
  EXPECT_EQ(deg.fallback_dense_columns, 16u);
  EXPECT_EQ(deg.fallback_cuda_columns, 1u);
  ASSERT_EQ(deg.notes.size(), 1u);
  EXPECT_NE(deg.notes[0].find("panel 0"), std::string::npos);
  // The SpTC subset left once the failed panel's columns leave is a
  // valid format...
  const Status valid = art.hybrid->format.validate();
  EXPECT_TRUE(valid.ok()) << valid.to_string();

  // ...and the product is exact despite the panel leaving the SpTC path.
  const DenseMatrix<float> c = core::hybrid_compute(*art.hybrid, a, b);
  EXPECT_TRUE(allclose(c, reference_gemm(a, b), a.cols()));
}

TEST(CheckedRun, DegradedCompileReordersOnce) {
  // A degraded compile re-plans only its failed panels, under the filter
  // that drops their columns. The reference is the two-pass result: a
  // filtered reorder of the whole matrix.
  const auto a = adversarial_matrix();
  EngineOptions options;
  options.compile.block_tile = 16;
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  Engine engine;
  auto compiled = engine.compile(a, options);
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  EXPECT_EQ(counter_value("reorder.plans"), 1.0);

  const CompiledMatrix& handle = *compiled.value();
  ASSERT_TRUE(handle.hybrid.has_value());
  core::ReorderOptions ropts;
  ropts.tile.block_tile_m = 16;
  std::vector<bool> degraded;
  for (const core::PanelReorder& panel :
       core::multi_granularity_reorder(a, ropts).panels) {
    degraded.push_back(core::panel_failed(panel, a.cols()));
  }
  const core::ReorderResult two_pass = core::multi_granularity_reorder(
      a, ropts, [&degraded](std::size_t panel, std::uint32_t) {
        return !degraded[panel];
      });
  EXPECT_EQ(core::plan_fingerprint(handle.hybrid->reorder),
            core::plan_fingerprint(two_pass));
  const core::JigsawFormat reference =
      core::JigsawFormat::build(a, two_pass);
  const core::JigsawFormat& format = handle.hybrid->format;
  EXPECT_EQ(format.panels().size(), reference.panels().size());
  EXPECT_EQ(format.col_idx_array(), reference.col_idx_array());
  EXPECT_EQ(format.block_col_idx_array(), reference.block_col_idx_array());
  EXPECT_EQ(format.metadata(), reference.metadata());
  ASSERT_EQ(format.values().size(), reference.values().size());
  for (std::size_t i = 0; i < format.values().size(); ++i) {
    ASSERT_EQ(format.values()[i].bits(), reference.values()[i].bits()) << i;
  }
}

TEST(EnginePolicy, CleanMatrixBuildsOneFormatAndStaysUndegraded) {
  // The default (checked) route builds exactly the one format it
  // executes: the degradation step builds no SpTC format of its own.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  Engine engine;
  const auto a = sample_lhs();
  auto compiled = engine.compile(a);
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  EXPECT_EQ(counter_value("format.builds"), 1.0);

  const CompiledMatrix& handle = *compiled.value();
  EXPECT_EQ(handle.policy, ExecutionPolicy::kChecked);
  EXPECT_FALSE(handle.degraded);
  EXPECT_FALSE(handle.hybrid.has_value());
  EXPECT_EQ(handle.degradation.panels_degraded, 0u);
  EXPECT_GT(handle.degradation.panels_total, 0u);

  const auto b = dlmc::make_rhs(a.cols(), 16, 5);
  auto result = engine.execute(handle, b);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(allclose(result.value(), reference_gemm(a, b), a.cols()));
  EXPECT_GT(engine.cost(handle, b.cols()).duration_us, 0.0);
}

TEST(EnginePolicy, EachRouteCarriesExactlyTheFormatsItExecutes) {
  // One compile per route builds, validates and charges only what its
  // execution reads; the cache charge is those formats plus the retained
  // operand and the hybrid routing vectors.
  struct Route {
    const char* name;
    ExecutionPolicy policy;
    core::KernelVersion version;
    bool degrade;  // adversarial_matrix() at BLOCK_TILE 16
    double builds;
  };
  const Route routes[] = {
      {"checked", ExecutionPolicy::kChecked, core::KernelVersion::kV4, false,
       1.0},
      {"checked-degraded", ExecutionPolicy::kChecked, core::KernelVersion::kV4,
       true, 1.0},
      {"hybrid", ExecutionPolicy::kHybrid, core::KernelVersion::kV4, false,
       1.0},
      {"raw-v1", ExecutionPolicy::kRaw, core::KernelVersion::kV1, false, 1.0},
      {"raw-v4", ExecutionPolicy::kRaw, core::KernelVersion::kV4, false, 3.0},
  };
  for (const Route& route : routes) {
    SCOPED_TRACE(route.name);
    EngineOptions options;
    options.policy = route.policy;
    options.compile.version = route.version;
    if (route.degrade) options.compile.block_tile = 16;
    const auto a = route.degrade ? adversarial_matrix() : sample_lhs();
    obs::reset_metrics();
    obs::set_metrics_enabled(true);
    Engine engine;
    auto compiled = engine.compile(a, options);
    obs::set_metrics_enabled(false);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    const CompiledMatrix& cm = *compiled.value();
    EXPECT_EQ(counter_value("format.builds"), route.builds);
    EXPECT_EQ(cm.degraded, route.degrade);

    const std::vector<const core::JigsawFormat*> executed = executed_formats(cm);
    EXPECT_EQ(carried_formats(cm), executed.size());
    EXPECT_EQ(cm.lhs.rows() != 0, cm.hybrid.has_value());  // not updatable
    std::size_t bytes = cm.lhs.rows() * cm.lhs.cols() * sizeof(fp16_t);
    for (const core::JigsawFormat* f : executed) {
      EXPECT_EQ(f->rows(), a.rows());
      bytes += f->memory_footprint().total();
    }
    if (cm.hybrid.has_value()) {
      for (const core::PanelRouting& r : cm.hybrid->routing) {
        bytes += (r.dense_columns.size() + r.cuda_columns.size()) *
                 sizeof(std::uint32_t);
      }
    }
    EXPECT_EQ(cm.footprint_bytes, bytes);

    if (route.policy != ExecutionPolicy::kRaw) {
      EXPECT_EQ(&cm.format(), executed[0]);
      const Status valid = cm.format().validate();
      EXPECT_TRUE(valid.ok()) << valid.to_string();
    }
  }
}

TEST(EnginePolicy, HybridAndRawRoutesMatchTheReference) {
  Engine engine;
  const auto a = sample_lhs();
  const auto b = dlmc::make_rhs(a.cols(), 16, 5);
  const auto ref = reference_gemm(a, b);
  for (const ExecutionPolicy policy :
       {ExecutionPolicy::kRaw, ExecutionPolicy::kChecked,
        ExecutionPolicy::kHybrid}) {
    EngineOptions options;
    options.policy = policy;
    auto compiled = engine.compile(a, options);
    ASSERT_TRUE(compiled.ok())
        << core::to_string(policy) << ": " << compiled.status().to_string();
    EXPECT_EQ(compiled.value()->policy, policy);
    auto result = engine.submit(compiled.value(), b).get();
    ASSERT_TRUE(result.ok()) << core::to_string(policy);
    EXPECT_TRUE(allclose(result.value(), ref, a.cols()))
        << core::to_string(policy);
  }
  // Three policies -> three distinct cache entries (policy is part of the
  // options hash).
  EXPECT_EQ(engine.cache_stats().entries, 3u);
}

/// The two routes that reach the hybrid pipes: kHybrid, and kChecked on a
/// matrix whose reorder degrades.
struct HybridRouteCase {
  const char* name;
  ExecutionPolicy policy;
  DenseMatrix<fp16_t> a;
};

std::vector<HybridRouteCase> hybrid_route_cases() {
  std::vector<HybridRouteCase> cases;
  cases.push_back({"hybrid", ExecutionPolicy::kHybrid, sample_lhs()});
  cases.push_back(
      {"degraded", ExecutionPolicy::kChecked, adversarial_matrix()});
  return cases;
}

TEST(EnginePolicy, HybridRouteExecuteWalksNothing) {
  // The hybrid route (kHybrid, or kChecked after degradation) computes
  // through hybrid_compute alone: an execute runs no cost walk, while
  // Engine::cost still walks the SpTC subset once. The product is
  // hybrid_compute's.
  for (const HybridRouteCase& c : hybrid_route_cases()) {
    SCOPED_TRACE(c.name);
    Engine engine;
    EngineOptions options;
    options.policy = c.policy;
    options.compile.block_tile = 16;
    auto compiled = engine.compile(c.a, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    const CompiledMatrix& handle = *compiled.value();
    ASSERT_TRUE(handle.hybrid.has_value());
    const auto b = dlmc::make_rhs(c.a.cols(), 16, 5);

    obs::reset_metrics();
    obs::set_metrics_enabled(true);
    const double w0 = counter_value("kernel.v4.cost_walks");
    auto result = engine.execute(handle, b);
    const double w1 = counter_value("kernel.v4.cost_walks");
    (void)engine.cost(handle, b.cols());
    const double w2 = counter_value("kernel.v4.cost_walks");
    obs::set_metrics_enabled(false);
    EXPECT_EQ(w1 - w0, 0.0) << "execute walked";
    EXPECT_EQ(w2 - w1, 1.0) << "cost walks the SpTC subset once";

    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(result.value() ==
                core::hybrid_compute(*handle.hybrid, handle.lhs, b));
  }
}

TEST(EnginePolicy, HybridRouteCostIsHybridCost) {
  // Engine::cost on the hybrid route is hybrid_cost of the artifact's plan
  // at the request width, bit for bit, on both routes that reach it.
  for (const HybridRouteCase& c : hybrid_route_cases()) {
    SCOPED_TRACE(c.name);
    Engine engine;
    EngineOptions options;
    options.policy = c.policy;
    options.compile.block_tile = 16;
    auto compiled = engine.compile(c.a, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    const CompiledMatrix& handle = *compiled.value();
    ASSERT_TRUE(handle.hybrid.has_value());
    for (const std::size_t n : {1u, 64u, 4096u}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const gpusim::KernelReport got = engine.cost(handle, n);
      const gpusim::KernelReport want =
          core::hybrid_cost(*handle.hybrid, n, engine.config().cost_model);
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.name, "hybrid_bt16");
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.duration_cycles),
                std::bit_cast<std::uint64_t>(want.duration_cycles))
          << got.duration_cycles << " vs " << want.duration_cycles;
    }
  }
}

TEST(EnginePolicy, RawRouteChoosesOncePerWidth) {
  // kRaw execute and cost share the plan's memoized BLOCK_TILE choice:
  // the first request at a width walks the three V4 candidates, later
  // executes and costs at that width walk none, and product and report
  // stay bitwise those of a fresh jigsaw_run.
  Engine engine;
  const auto a = sample_lhs();
  EngineOptions options;
  options.policy = ExecutionPolicy::kRaw;
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const CompiledMatrix& handle = *compiled.value();
  for (const std::size_t n : {16u, 48u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto b = dlmc::make_rhs(a.cols(), n, 5);
    obs::reset_metrics();
    obs::set_metrics_enabled(true);
    auto first = engine.execute(handle, b);
    const double w1 = counter_value("kernel.v4.cost_walks");
    auto second = engine.execute(handle, b);
    const gpusim::KernelReport report = engine.cost(handle, n);
    const double w2 = counter_value("kernel.v4.cost_walks");
    obs::set_metrics_enabled(false);
    EXPECT_EQ(w1, 3.0);
    EXPECT_EQ(w2 - w1, 0.0);

    const core::JigsawRunResult fresh =
        core::jigsaw_run(core::jigsaw_plan(a, options.compile), b,
                         engine.config().cost_model);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_TRUE(first.value() == *fresh.c);
    EXPECT_TRUE(second.value() == *fresh.c);
    EXPECT_EQ(report.duration_cycles, fresh.report.duration_cycles);
    EXPECT_EQ(report.name, fresh.report.name);
  }
}

// ---- Steady-state allocation behavior -------------------------------------

TEST(EngineSteadyState, WarmedUpSubmitsAllocateNothing) {
  // The zero-allocation contract of the serving path: after a worker's
  // kernel scratch has grown to the request shape and the pool's caches
  // are primed, the kernel proper (the window
  // `jigsaw.engine.submit.allocations` counts) must touch the heap zero
  // times per submit — on the default route and on kRaw V4, whose
  // memoized BLOCK_TILE choice is made before the window opens.
  for (const ExecutionPolicy policy :
       {ExecutionPolicy::kAuto, ExecutionPolicy::kRaw}) {
    SCOPED_TRACE(core::to_string(policy));
    obs::reset_metrics();
    obs::set_metrics_enabled(true);
    EngineConfig config;
    config.worker_threads = 1;  // one worker -> one scratch -> deterministic
    Engine engine(config);

    const auto a = lhs_for({128, 256, 80, 4, 22});
    const auto b = dlmc::make_rhs(256, 64, 7);
    EngineOptions options;
    options.policy = policy;
    auto compiled = engine.compile(a, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();

    // Warm-up: grows the worker's scratch, primes thread-pool and obs
    // caches.
    for (int i = 0; i < 3; ++i) {
      auto warm = engine.submit(compiled.value(), b).get();
      ASSERT_TRUE(warm.ok()) << warm.status().to_string();
    }
    // The window covers this route: the cold submit grew the scratch in
    // it.
    const double before = counter_value("jigsaw.engine.submit.allocations");
    EXPECT_GT(before, 0.0);
    for (int i = 0; i < 5; ++i) {
      auto result = engine.submit(compiled.value(), b).get();
      ASSERT_TRUE(result.ok()) << result.status().to_string();
    }
    const double delta =
        counter_value("jigsaw.engine.submit.allocations") - before;
    EXPECT_EQ(delta, 0.0)
        << "steady-state submits performed " << delta << " heap allocations";
    obs::set_metrics_enabled(false);
  }
}

TEST(EngineSteadyState, NeighbourAllocationsStayOutOfTheWindow) {
  // The window counts the worker's own allocations: another thread that
  // allocates all through the warm submits must leave the delta at 0.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  EngineConfig config;
  config.worker_threads = 1;
  Engine engine(config);
  const auto a = lhs_for({128, 256, 80, 4, 22});
  const auto b = dlmc::make_rhs(256, 64, 7);
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.submit(compiled.value(), b).get().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> neighbour_allocations{0};
  std::thread neighbour([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // A direct call, which the compiler may not elide as it may a
      // new-expression.
      ::operator delete(::operator new(64));
      neighbour_allocations.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (neighbour_allocations.load() < 1000) std::this_thread::yield();

  const double before = counter_value("jigsaw.engine.submit.allocations");
  const std::uint64_t neighbour_before = neighbour_allocations.load();
  // At least 20 submits, and more until the neighbour has allocated
  // during them: on a loaded host it can sit descheduled through a whole
  // burst, and the window is tested only while the two overlap.
  int submits = 0;
  while (submits < 20 || (neighbour_allocations.load() == neighbour_before &&
                          submits < 20000)) {
    auto result = engine.submit(compiled.value(), b).get();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ++submits;
  }
  const std::uint64_t neighbour_during =
      neighbour_allocations.load() - neighbour_before;
  const double delta =
      counter_value("jigsaw.engine.submit.allocations") - before;
  stop = true;
  neighbour.join();
  obs::set_metrics_enabled(false);
  EXPECT_GT(neighbour_during, 0u);
  EXPECT_EQ(delta, 0.0) << "the window charged " << delta
                        << " of the neighbour's " << neighbour_during
                        << " allocations to the submits";
}

TEST(EngineSteadyState, AllocationCounterTracksColdSubmits) {
  // Counterpart guard: the counter is live, not a constant zero — the
  // first (cold) submit grows the worker's scratch inside the counted
  // window.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  EngineConfig config;
  config.worker_threads = 1;
  Engine engine(config);

  const auto a = lhs_for({64, 128, 80, 2, 21});
  const auto b = dlmc::make_rhs(128, 32, 9);
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  auto first = engine.submit(compiled.value(), b).get();
  ASSERT_TRUE(first.ok());
  EXPECT_GT(counter_value("jigsaw.engine.submit.allocations"), 0.0)
      << "cold submit should have grown the worker scratch in-window";
  obs::set_metrics_enabled(false);
}

// ---- Concurrency ----------------------------------------------------------

TEST(EngineConcurrency, EightThreadSubmitsAreBitIdenticalToSingleThread) {
  EngineConfig config;
  config.worker_threads = 8;
  Engine engine(config);

  for (const SweepCase& c : sweep_cases()) {
    const auto a = lhs_for(c);
    const auto b = dlmc::make_rhs(c.k, 32, c.seed + 500);
    auto compiled = engine.compile(a);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();

    // Single-thread result on the caller's thread.
    auto single = engine.execute(*compiled.value(), b);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE(allclose(single.value(), reference_gemm(a, b), a.cols()));

    // Eight concurrent submits of the same request must be bitwise equal
    // to the single-thread product (shared read-only artifact, exact
    // functional path — no nondeterminism allowed).
    std::vector<std::future<Result<DenseMatrix<float>>>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(engine.submit(compiled.value(), b));
    }
    for (auto& f : futures) {
      auto result = f.get();
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_TRUE(result.value() == single.value())
          << "concurrent submit diverged from single-thread execution";
    }
  }
}

TEST(EngineConcurrency, MixedMatricesInFlightStayIsolated) {
  EngineConfig config;
  config.worker_threads = 4;
  Engine engine(config);

  struct InFlight {
    DenseMatrix<fp16_t> a, b;
    std::future<Result<DenseMatrix<float>>> future;
  };
  std::vector<InFlight> jobs;
  for (const SweepCase& c : sweep_cases()) {
    auto a = lhs_for(c);
    auto b = dlmc::make_rhs(c.k, 16, c.seed + 900);
    auto compiled = engine.compile(a);
    ASSERT_TRUE(compiled.ok());
    auto future = engine.submit(compiled.value(), b);
    jobs.push_back({std::move(a), std::move(b), std::move(future)});
  }
  for (auto& job : jobs) {
    auto result = job.future.get();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(allclose(result.value(), reference_gemm(job.a, job.b),
                         job.a.cols()));
  }
}

// ---- Options surface ------------------------------------------------------

/// Changes leaf `leaf` of `c` away from its value and returns its name, or
/// returns nullptr past the last leaf. The structured bindings name every
/// leaf of EngineOptions::Compile, so a new field does not build until it
/// is listed here.
const char* change_leaf(EngineOptions::Compile& c, int leaf) {
  auto& [version, block_tile, reorder, updatable] = c;
  auto& [tile, search, eviction_limit_per_tile, seed, rescue_attempts,
         max_threads] = reorder;
  auto& [block_tile_m] = tile;
  auto& [bank_conflict_aware] = search;
  switch (leaf) {
    case 0:
      version = version == core::KernelVersion::kV3 ? core::KernelVersion::kV1
                                                    : core::KernelVersion::kV3;
      return "version";
    case 1: block_tile = 32; return "block_tile";
    case 2: block_tile_m = 16; return "reorder.tile";
    case 3:
      bank_conflict_aware = !bank_conflict_aware;
      return "reorder.search.bank_conflict_aware";
    case 4:
      eviction_limit_per_tile = 4;
      return "reorder.eviction_limit_per_tile";
    case 5: seed = 99; return "reorder.seed";
    case 6: rescue_attempts = 0; return "reorder.rescue_attempts";
    case 7: max_threads = 1; return "reorder.max_threads";
    case 8: updatable = !updatable; return "updatable";
    default: return nullptr;
  }
}

/// The cache key's equality: the resolved options, except that
/// max_threads never splits the cache (plans are thread-count invariant).
bool same_key(const EngineOptions& x, const EngineOptions& y) {
  EngineOptions rx = core::resolve(x), ry = core::resolve(y);
  rx.compile.reorder.max_threads = ry.compile.reorder.max_threads = 0;
  return rx == ry;
}

/// Two artifacts agree on everything a caller reads: the executed formats
/// byte for byte, the hybrid routing, the identity, size and cost, and the
/// product at N=32.
void expect_same_artifact(const Engine& ex, const CompiledMatrix& x,
                          const Engine& ey, const CompiledMatrix& y) {
  EXPECT_EQ(x.degraded, y.degraded);
  EXPECT_EQ(x.plan_fingerprint, y.plan_fingerprint);
  EXPECT_EQ(x.footprint_bytes, y.footprint_bytes);
  const auto fx = executed_formats(x), fy = executed_formats(y);
  ASSERT_EQ(fx.size(), fy.size());
  for (std::size_t i = 0; i < fx.size(); ++i) {
    EXPECT_EQ(fx[i]->values(), fy[i]->values());
    EXPECT_EQ(fx[i]->metadata(), fy[i]->metadata());
    EXPECT_EQ(fx[i]->col_idx_array(), fy[i]->col_idx_array());
    EXPECT_EQ(fx[i]->block_col_idx_array(), fy[i]->block_col_idx_array());
  }
  ASSERT_EQ(x.hybrid.has_value(), y.hybrid.has_value());
  if (x.hybrid.has_value()) {
    ASSERT_EQ(x.hybrid->routing.size(), y.hybrid->routing.size());
    for (std::size_t p = 0; p < x.hybrid->routing.size(); ++p) {
      const core::PanelRouting& rx = x.hybrid->routing[p];
      const core::PanelRouting& ry = y.hybrid->routing[p];
      EXPECT_EQ(rx.dense_columns, ry.dense_columns);
      EXPECT_EQ(rx.cuda_columns, ry.cuda_columns);
      EXPECT_EQ(rx.cuda_nnz, ry.cuda_nnz);
    }
  }
  for (const std::size_t n : {1u, 32u}) {
    const gpusim::KernelReport cx = ex.cost(x, n), cy = ey.cost(y, n);
    EXPECT_EQ(cx.name, cy.name) << "n=" << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cx.duration_cycles),
              std::bit_cast<std::uint64_t>(cy.duration_cycles))
        << "n=" << n;
  }
  const auto b = dlmc::make_rhs(x.cols, 32, 5);
  auto px = ex.execute(x, b), py = ey.execute(y, b);
  ASSERT_TRUE(px.ok() && py.ok());
  EXPECT_TRUE(px.value() == py.value());
}

/// Fingerprints of every reorder the route's builder makes when called
/// directly with the caller's compile section, as nn, the benches and the
/// examples call it.
std::vector<std::uint64_t> direct_build(const DenseMatrix<fp16_t>& a,
                                        const EngineOptions& options) {
  std::vector<std::uint64_t> out;
  switch (core::resolve(options).policy) {
    case ExecutionPolicy::kRaw:
      for (const core::ReorderResult& r :
           core::jigsaw_plan(a, options.compile).reorders) {
        out.push_back(core::plan_fingerprint(r));
      }
      break;
    case ExecutionPolicy::kHybrid:
      out.push_back(core::plan_fingerprint(
          core::hybrid_plan(a, options.compile).reorder));
      break;
    default: {
      const core::CheckedArtifact art =
          core::checked_compile(a, options.compile);
      out.push_back(core::plan_fingerprint(
          art.hybrid.has_value() ? art.hybrid->reorder : art.reorder));
    }
  }
  return out;
}

TEST(EngineOptionsSurface, CacheSplitsExactlyWhereResolvedOptionsDiffer) {
  // For each route and each Compile leaf changed alone: two compiles in
  // one Engine share an entry exactly when core::resolve makes their
  // options equal (max_threads aside); options that resolve equal build
  // equal artifacts, through the engine and through the route's builder
  // called directly; resolve pins exactly the leaves docs/API.md lists for
  // the route; and resolve is idempotent.
  struct KeyRoute {
    const char* name;
    ExecutionPolicy policy;
    core::KernelVersion version;
    std::vector<std::string> pinned;  // the table in docs/API.md
  };
  const KeyRoute routes[] = {
      {"auto", ExecutionPolicy::kAuto, core::KernelVersion::kV4,
       {"reorder.tile"}},
      {"checked", ExecutionPolicy::kChecked, core::KernelVersion::kV4,
       {"reorder.tile"}},
      {"hybrid", ExecutionPolicy::kHybrid, core::KernelVersion::kV4,
       {"version", "reorder.tile"}},
      {"raw-v1", ExecutionPolicy::kRaw, core::KernelVersion::kV1,
       {"reorder.tile", "reorder.search.bank_conflict_aware"}},
      {"raw-v4", ExecutionPolicy::kRaw, core::KernelVersion::kV4,
       {"block_tile", "reorder.tile", "reorder.search.bank_conflict_aware"}},
  };
  const DenseMatrix<fp16_t> matrices[] = {
      sample_lhs(), adversarial_matrix(),
      dlmc::make_lhs({256, 256}, 0.8, 4, 7).values()};
  std::vector<std::uint64_t> default_hashes;
  for (const KeyRoute& route : routes) {
    SCOPED_TRACE(route.name);
    EngineOptions base;
    base.policy = route.policy;
    base.compile.version = route.version;
    EXPECT_TRUE(core::resolve(core::resolve(base)) == core::resolve(base));
    default_hashes.push_back(options_content_hash(core::resolve(base)));
    for (int leaf = 0;; ++leaf) {
      EngineOptions changed = base;
      const char* name = change_leaf(changed.compile, leaf);
      if (name == nullptr) {
        EXPECT_EQ(leaf, 9);  // one case per leaf change_leaf binds
        break;
      }
      SCOPED_TRACE(name);
      const EngineOptions resolved = core::resolve(changed);
      EXPECT_TRUE(core::resolve(resolved) == resolved);
      const bool pinned = resolved == core::resolve(base);
      EXPECT_EQ(pinned, std::find(route.pinned.begin(), route.pinned.end(),
                                  name) != route.pinned.end());
      const bool shared = same_key(base, changed);
      EXPECT_EQ(options_content_hash(resolved) ==
                    options_content_hash(core::resolve(base)),
                shared);

      for (const DenseMatrix<fp16_t>& a : matrices) {
        if (shared) {
          EXPECT_EQ(direct_build(a, base), direct_build(a, changed));
        }
        Engine engine;
        auto first = engine.compile(a, base);
        auto second = engine.compile(a, changed);
        if (!first.ok() || !second.ok()) {
          // kRaw cannot reorder adversarial_matrix(): nothing is cached.
          if (shared) {
            EXPECT_EQ(first.status().code(), second.status().code());
          }
          continue;
        }
        EXPECT_EQ(first.value().get() == second.value().get(), shared);
        EXPECT_EQ(engine.cache_stats().entries, shared ? 1u : 2u);
        if (!shared) continue;
        Engine ex, ey;
        auto x = ex.compile(a, base);
        auto y = ey.compile(a, changed);
        ASSERT_TRUE(x.ok() && y.ok());
        expect_same_artifact(ex, *x.value(), ey, *y.value());
      }
    }
  }
  // kAuto is kChecked; every other route keys apart.
  EXPECT_EQ(default_hashes[0], default_hashes[1]);
  std::sort(default_hashes.begin() + 1, default_hashes.end());
  EXPECT_EQ(std::unique(default_hashes.begin() + 1, default_hashes.end()),
            default_hashes.end());
}

TEST(EngineOptionsSurface, MatrixHashIsContentBased) {
  const auto a = sample_lhs(11);
  const DenseMatrix<fp16_t> copy = a;
  EXPECT_EQ(matrix_content_hash(a), matrix_content_hash(copy));
  auto mutated = a;
  mutated(0, 0) = fp16_t(float(mutated(0, 0)) + 1.0f);
  EXPECT_NE(matrix_content_hash(a), matrix_content_hash(mutated));

  // Flipping any one bit of any entry changes the hash. 5x7 is 35
  // entries: eight full 4-entry words, then a 3-entry tail.
  DenseMatrix<fp16_t> m(5, 7);
  Rng rng(3);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
  }
  const std::uint64_t h = matrix_content_hash(m);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const fp16_t kept = m.data()[i];
    for (int bit = 0; bit < 16; ++bit) {
      m.data()[i] = fp16_t::from_bits(
          static_cast<std::uint16_t>(kept.bits() ^ (1u << bit)));
      EXPECT_NE(matrix_content_hash(m), h) << "entry " << i << " bit " << bit;
    }
    m.data()[i] = kept;
  }

  // Shape participates even when the payload bytes agree.
  std::vector<std::uint64_t> shaped;
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{2, 8},
                                   {8, 2}, {4, 4}, {1, 16}}) {
    DenseMatrix<fp16_t> s(rows, cols);
    std::copy_n(m.data(), s.size(), s.data());
    shaped.push_back(matrix_content_hash(s));
  }
  std::sort(shaped.begin(), shaped.end());
  EXPECT_EQ(std::unique(shaped.begin(), shaped.end()), shaped.end());

  // +0 and -0 hash apart, in a full word and in the tail.
  for (const std::size_t i : {std::size_t{5}, std::size_t{33}}) {
    DenseMatrix<fp16_t> pos(5, 7), neg(5, 7);
    neg.data()[i] = fp16_t::from_bits(0x8000);
    EXPECT_NE(matrix_content_hash(pos), matrix_content_hash(neg)) << i;
  }
}

}  // namespace
}  // namespace jigsaw::engine
