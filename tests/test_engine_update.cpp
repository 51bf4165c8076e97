// Engine::update — the streaming-weight-update tier.
//
// The contract under test:
//   * Differential: for random delta sequences, the incrementally updated
//     artifact is indistinguishable from a from-scratch compile of the
//     mutated matrix — bitwise-identical products, equal plan
//     fingerprints, equal format payloads — across V0–V4 (kRaw V0–V2
//     splice the naive metadata layout, the rest the interleaved one) and
//     all three execution policies. This is what makes the
//     panel-scoped splice (core::reorder_panels +
//     JigsawFormat::rebuild_panels) trustworthy: it is a pure
//     optimization, never a semantic fork.
//   * RCU generation semantics: Engine::latest follows the lineage head,
//     old handles keep serving their own generation, the plan cache
//     retires exactly the superseded key, and neither clear_cache nor
//     eviction rolls latest() back (the engine owns the head).
//   * Failure atomicity: an update that fails mid-replan (reorder failure
//     under kRaw, cache capacity exhaustion) returns a typed Status and
//     leaves the old generation published, cached, and bit-identical.
//
// Every RNG seed in this file is pinned — the delta sequences are part of
// the regression surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "dlmc/suite.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace jigsaw::engine {
namespace {

bool bit_identical(const DenseMatrix<float>& x, const DenseMatrix<float>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (x(r, c) != y(r, c)) return false;
    }
  }
  return true;
}

/// A realistic fine-tuning batch: a mix of changed existing values, newly
/// nonzero entries, and zeroed entries at pinned-random positions.
/// Applied to `mirror` as well so the test tracks the ground-truth
/// operand content alongside the engine.
SparseDelta random_delta(Rng& rng, DenseMatrix<fp16_t>& mirror,
                         std::size_t entries) {
  SparseDelta delta;
  for (std::size_t i = 0; i < entries; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(mirror.rows()));
    const auto c = static_cast<std::uint32_t>(rng.next_below(mirror.cols()));
    float v;
    if (!mirror(r, c).is_zero() && rng.bernoulli(0.25)) {
      v = 0.0f;  // zero an existing entry
    } else {
      v = rng.uniform(0.25f, 1.0f);  // change or add
    }
    delta.set(r, c, v);
    mirror(r, c) = fp16_t(v);
  }
  return delta;
}

/// The reorder-breaking pattern from tests/test_engine.cpp: an all-ones
/// 16x16 block plus one straggler column. The block alone splits into
/// exactly two column tiles (32 padded cols == the 16-aligned K of a
/// 32-wide matrix, still §4.3-success); the straggler pushes row 5 to 17
/// nonzeros, forcing a third tile — 48 > 32, unrecoverable failure.
SparseDelta adversarial_delta() {
  SparseDelta delta;
  for (std::uint32_t r = 0; r < 16; ++r) {
    for (std::uint32_t c = 0; c < 16; ++c) delta.set(r, c, 1.0f);
  }
  delta.set(5, 24, 2.0f);
  return delta;
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

struct PolicyCase {
  ExecutionPolicy policy;
  const char* name;
};

const std::vector<PolicyCase>& policies() {
  static const std::vector<PolicyCase> kPolicies = {
      {ExecutionPolicy::kRaw, "raw"},
      {ExecutionPolicy::kChecked, "checked"},
      {ExecutionPolicy::kHybrid, "hybrid"},
  };
  return kPolicies;
}

// ---- Differential: incremental == from-scratch ----------------------------

TEST(EngineUpdateDifferential, MatchesFromScratchCompileAcrossTheMatrix) {
  const std::vector<core::KernelVersion> versions = {
      core::KernelVersion::kV0, core::KernelVersion::kV1,
      core::KernelVersion::kV2, core::KernelVersion::kV3,
      core::KernelVersion::kV4};
  constexpr std::size_t kDeltaSteps = 2;
  constexpr std::size_t kDeltaEntries = 24;

  for (const PolicyCase& pc : policies()) {
    for (const core::KernelVersion version : versions) {
      SCOPED_TRACE(::testing::Message()
                   << pc.name << " v" << static_cast<int>(version));
      EngineOptions options;
      options.policy = pc.policy;
      options.compile.version = version;
      options.compile.updatable = true;

      // 96 rows: 2 panels at the default BLOCK_TILE 64, 6 at the V4
      // candidate BLOCK_TILE 16 — deltas leave some panels clean.
      DenseMatrix<fp16_t> mirror =
          dlmc::make_lhs({96, 128}, 0.85, 4, 7001).values();
      Engine engine;
      auto compiled = engine.compile(mirror, options);
      ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
      auto current = compiled.value();
      EXPECT_EQ(current->generation, 0u);
      EXPECT_TRUE(current->options.updatable);

      // The fourth component keeps the delta seeds of the cases that
      // once also ran under the naive layout.
      Rng rng(mix_seed(
          7002, static_cast<std::uint64_t>(pc.policy),
          static_cast<std::uint64_t>(version),
          static_cast<std::uint64_t>(core::MetadataLayout::kInterleaved)));
      const auto b = dlmc::make_rhs(mirror.cols(), 32, 7003);
      for (std::size_t step = 1; step <= kDeltaSteps; ++step) {
        const SparseDelta delta =
            random_delta(rng, mirror, kDeltaEntries);
        auto updated = engine.update(current, delta);
        ASSERT_TRUE(updated.ok()) << updated.status().to_string();
        current = updated.value();
        EXPECT_EQ(current->generation, step);

        // From-scratch compile of the mutated matrix in a fresh engine
        // (no cache sharing possible).
        Engine fresh;
        auto scratch = fresh.compile(mirror, options);
        ASSERT_TRUE(scratch.ok()) << scratch.status().to_string();
        const CompiledMatrix& s = *scratch.value();

        EXPECT_EQ(current->matrix_hash, s.matrix_hash);
        EXPECT_EQ(current->plan_fingerprint, s.plan_fingerprint);
        EXPECT_EQ(current->degraded, s.degraded);
        const auto got = executed_formats(*current);
        const auto want = executed_formats(s);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i]->values(), want[i]->values());
          EXPECT_EQ(got[i]->metadata(), want[i]->metadata());
          EXPECT_EQ(got[i]->col_idx_array(), want[i]->col_idx_array());
          EXPECT_EQ(got[i]->block_col_idx_array(),
                    want[i]->block_col_idx_array());
        }

        auto via_update = engine.execute(*current, b);
        auto via_scratch = fresh.execute(s, b);
        ASSERT_TRUE(via_update.ok()) << via_update.status().to_string();
        ASSERT_TRUE(via_scratch.ok()) << via_scratch.status().to_string();
        EXPECT_TRUE(bit_identical(via_update.value(), via_scratch.value()));
      }
    }
  }
}

TEST(EngineUpdateDifferential, CheckedAndRawTakeTheIncrementalPath) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  for (const ExecutionPolicy policy :
       {ExecutionPolicy::kChecked, ExecutionPolicy::kRaw}) {
    EngineOptions options;
    options.policy = policy;
    options.compile.updatable = true;
    DenseMatrix<fp16_t> mirror = dlmc::make_lhs({96, 128}, 0.85, 4, 7101).values();
    Engine engine;
    auto compiled = engine.compile(mirror, options);
    ASSERT_TRUE(compiled.ok());

    const double incremental_before =
        // jigsaw-lint: allow(obs-name): engine.cpp names these after the serving API surface.
        obs::counter("jigsaw.engine.update.incremental").value();
    Rng rng(7102);
    auto updated =
        engine.update(compiled.value(), random_delta(rng, mirror, 16));
    ASSERT_TRUE(updated.ok()) << updated.status().to_string();
    // jigsaw-lint: allow(obs-name): engine.cpp names these after the serving API surface.
    EXPECT_GT(obs::counter("jigsaw.engine.update.incremental").value(),
              incremental_before);
    // A 16-entry delta cannot dirty every panel of a 96-row matrix at
    // every BLOCK_TILE candidate; some splice work must have been saved.
    EXPECT_GT(obs::counter("reorder.panel_replans").value(), 0.0);
  }
  // Hybrid artifacts cannot be spliced — they take the documented full
  // recompile fallback and still produce a correct next generation.
  EngineOptions options;
  options.policy = ExecutionPolicy::kHybrid;
  options.compile.updatable = true;
  DenseMatrix<fp16_t> mirror = dlmc::make_lhs({96, 128}, 0.85, 4, 7103).values();
  Engine engine;
  auto compiled = engine.compile(mirror, options);
  ASSERT_TRUE(compiled.ok());
  const double full_before =
      // jigsaw-lint: allow(obs-name): engine.cpp names these after the serving API surface.
      obs::counter("jigsaw.engine.update.full_recompiles").value();
  Rng rng(7104);
  auto updated =
      engine.update(compiled.value(), random_delta(rng, mirror, 16));
  ASSERT_TRUE(updated.ok()) << updated.status().to_string();
  // jigsaw-lint: allow(obs-name): engine.cpp names these after the serving API surface.
  EXPECT_GT(obs::counter("jigsaw.engine.update.full_recompiles").value(),
            full_before);
  obs::set_metrics_enabled(false);
}

TEST(EngineUpdateDifferential, EachRouteSplicesOnlyTheFormatsItExecutes) {
  // An incremental update splices each format its route executes once and
  // builds none; a hybrid update recompiles, building its one format.
  struct Route {
    const char* name;
    ExecutionPolicy policy;
    core::KernelVersion version;
    std::uint64_t rebuilds;
    double builds;
  };
  const Route routes[] = {
      {"checked", ExecutionPolicy::kChecked, core::KernelVersion::kV4, 1, 0.0},
      {"raw-v1", ExecutionPolicy::kRaw, core::KernelVersion::kV1, 1, 0.0},
      {"raw-v4", ExecutionPolicy::kRaw, core::KernelVersion::kV4, 3, 0.0},
      {"hybrid", ExecutionPolicy::kHybrid, core::KernelVersion::kV4, 0, 1.0},
  };
  for (const Route& route : routes) {
    SCOPED_TRACE(route.name);
    EngineOptions options;
    options.policy = route.policy;
    options.compile.version = route.version;
    options.compile.updatable = true;
    DenseMatrix<fp16_t> mirror =
        dlmc::make_lhs({96, 128}, 0.85, 4, 7101).values();
    Engine engine;
    auto compiled = engine.compile(mirror, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    Rng rng(7102);
    const SparseDelta delta = random_delta(rng, mirror, 16);
    obs::reset_metrics();
    obs::set_metrics_enabled(true);
    auto updated = engine.update(compiled.value(), delta);
    obs::set_metrics_enabled(false);
    ASSERT_TRUE(updated.ok()) << updated.status().to_string();
    EXPECT_EQ(obs::histogram("format.rebuild_seconds").count(),
              route.rebuilds);
    EXPECT_EQ(obs::counter("format.builds").value(), route.builds);
  }
}

// ---- Generation / RCU semantics -------------------------------------------

TEST(EngineUpdate, LatestFollowsTheLineageAndOldHandlesKeepServing) {
  EngineOptions options;
  options.compile.updatable = true;
  DenseMatrix<fp16_t> mirror = dlmc::make_lhs({64, 128}, 0.8, 4, 7201).values();
  Engine engine;
  auto gen0 = engine.compile(mirror, options).value();
  const auto b = dlmc::make_rhs(mirror.cols(), 16, 7202);
  auto product0 = engine.execute(*gen0, b);
  ASSERT_TRUE(product0.ok());

  const std::uint64_t retired_before = engine.cache_stats().retired;
  Rng rng(7203);
  auto updated = engine.update(gen0, random_delta(rng, mirror, 12));
  ASSERT_TRUE(updated.ok());
  const auto gen1 = updated.value();

  // The swap: latest() through the stale handle sees generation 1; the
  // stale handle itself still serves its own (pinned) generation.
  EXPECT_EQ(gen1->generation, 1u);
  EXPECT_EQ(Engine::latest(gen0).get(), gen1.get());
  EXPECT_EQ(Engine::latest(gen1).get(), gen1.get());
  auto product0_again = engine.execute(*gen0, b);
  ASSERT_TRUE(product0_again.ok());
  EXPECT_TRUE(bit_identical(product0.value(), product0_again.value()));
  auto product1 = engine.execute(*gen1, b);
  ASSERT_TRUE(product1.ok());
  EXPECT_FALSE(bit_identical(product0.value(), product1.value()));

  // Exactly the superseded key was retired; the new generation is the
  // cached entry (a recompile of the mutated content is a hit).
  EXPECT_EQ(engine.cache_stats().retired, retired_before + 1);
  const std::uint64_t hits_before = engine.cache_stats().hits;
  auto recompiled = engine.compile(mirror, options);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_EQ(recompiled.value().get(), gen1.get());
  EXPECT_EQ(engine.cache_stats().hits, hits_before + 1);

  // Updating through the stale gen0 handle applies on top of the lineage
  // head, not the stale content.
  auto updated2 = engine.update(gen0, random_delta(rng, mirror, 12));
  ASSERT_TRUE(updated2.ok());
  EXPECT_EQ(updated2.value()->generation, 2u);
  EXPECT_EQ(updated2.value()->matrix_hash, matrix_content_hash(mirror));
}

TEST(EngineUpdate, ClearedCacheNeverRollsLatestBack) {
  // The writer drops the generation update returned and the cache is
  // cleared, so no caller and no cache entry holds the head any more:
  // latest() must still name generation 1, not fall back to gen0.
  EngineOptions options;
  options.compile.updatable = true;
  DenseMatrix<fp16_t> mirror = dlmc::make_lhs({64, 128}, 0.8, 4, 7211).values();
  Engine engine;
  auto gen0 = engine.compile(mirror, options).value();
  Rng rng(7212);
  ASSERT_TRUE(engine.update(gen0, random_delta(rng, mirror, 12)).ok());
  engine.clear_cache();
  ASSERT_EQ(engine.cache_stats().entries, 0u);

  const auto head = Engine::latest(gen0);
  EXPECT_EQ(head->generation, 1u);
  EXPECT_EQ(head->matrix_hash, matrix_content_hash(mirror));
  const auto b = dlmc::make_rhs(mirror.cols(), 16, 7213);
  Engine reference;
  auto fresh = reference.compile(mirror, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
  auto expected = reference.execute(*fresh.value(), b);
  auto served = engine.execute(*head, b);
  ASSERT_TRUE(expected.ok() && served.ok());
  EXPECT_TRUE(bit_identical(served.value(), expected.value()));
}

TEST(EngineUpdate, UnreachableLineageIsRetiredByTheNextUpdate) {
  // Once every handle of a lineage is gone and the cache no longer holds
  // its head, the engine's strong head is the lineage's last owner; the
  // next update through any lineage frees it.
  EngineOptions options;
  options.compile.updatable = true;
  Engine engine;
  Rng rng(7221);
  DenseMatrix<fp16_t> first = dlmc::make_lhs({64, 128}, 0.8, 4, 7222).values();
  std::weak_ptr<const CompiledMatrix> first_head;
  {
    auto gen0 = engine.compile(first, options).value();
    ASSERT_TRUE(engine.update(gen0, random_delta(rng, first, 12)).ok());
    first_head = Engine::latest(gen0);
  }
  engine.clear_cache();
  EXPECT_FALSE(first_head.expired());  // only the engine holds it now

  DenseMatrix<fp16_t> second =
      dlmc::make_lhs({64, 128}, 0.8, 4, 7223).values();
  auto other = engine.compile(second, options).value();
  ASSERT_TRUE(engine.update(other, random_delta(rng, second, 12)).ok());
  EXPECT_TRUE(first_head.expired());
  EXPECT_EQ(Engine::latest(other)->generation, 1u);
}

TEST(EngineUpdate, NonUpdatableHandleIsInvalidArgument) {
  Engine engine;
  const auto a = dlmc::make_lhs({64, 128}, 0.8, 4, 7301).values();
  auto compiled = engine.compile(a);
  ASSERT_TRUE(compiled.ok());
  SparseDelta delta;
  delta.set(0, 0, 1.0f);
  auto updated = engine.update(compiled.value(), delta);
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Engine::latest(compiled.value()).get(), compiled.value().get());
}

TEST(EngineUpdate, OutOfRangeEntryIsInvalidArgument) {
  EngineOptions options;
  options.compile.updatable = true;
  Engine engine;
  const auto a = dlmc::make_lhs({64, 128}, 0.8, 4, 7302).values();
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok());
  SparseDelta delta;
  delta.entries.push_back({64, 0, fp16_t(1.0f)});  // row == rows
  auto updated = engine.update(compiled.value(), delta);
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineUpdate, NoopDeltaReturnsTheSameGeneration) {
  EngineOptions options;
  options.compile.updatable = true;
  Engine engine;
  const auto a = dlmc::make_lhs({64, 128}, 0.8, 4, 7303).values();
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok());
  // Rewrite an existing entry with its current value plus an empty delta.
  SparseDelta delta;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    if (!a(0, c).is_zero()) {
      delta.entries.push_back(
          {0, static_cast<std::uint32_t>(c), a(0, c)});
      break;
    }
  }
  auto updated = engine.update(compiled.value(), delta);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated.value().get(), compiled.value().get());
  EXPECT_EQ(updated.value()->generation, 0u);
  auto empty = engine.update(compiled.value(), SparseDelta{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().get(), compiled.value().get());
}

// ---- Failure atomicity ----------------------------------------------------

TEST(EngineUpdateFaults, FailedReorderLeavesTheOldGenerationServing) {
  // kRaw at fixed BLOCK_TILE 16 with rescue disabled: the adversarial
  // delta makes panel 0 structurally impossible under 2:4, so the replan
  // fails with a typed kReorderFailed mid-update.
  EngineOptions options;
  options.policy = ExecutionPolicy::kRaw;
  options.compile.version = core::KernelVersion::kV1;
  options.compile.block_tile = 16;
  options.compile.reorder.rescue_attempts = 0;
  options.compile.updatable = true;

  DenseMatrix<fp16_t> a(32, 32);
  for (std::size_t r = 0; r < 32; ++r) {
    a(r, r % 32) = fp16_t(0.5f + 0.015625f * static_cast<float>(r));
  }
  Engine engine;
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const auto gen0 = compiled.value();

  const auto b = dlmc::make_rhs(a.cols(), 16, 7401);
  auto before = engine.execute(*gen0, b);
  ASSERT_TRUE(before.ok());
  const CacheStats stats_before = engine.cache_stats();

  auto updated = engine.update(gen0, adversarial_delta());
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kReorderFailed);

  // Old generation: still the lineage head, still cached, bit-identical.
  EXPECT_EQ(Engine::latest(gen0).get(), gen0.get());
  EXPECT_EQ(gen0->generation, 0u);
  EXPECT_EQ(engine.cache_stats().entries, stats_before.entries);
  EXPECT_EQ(engine.cache_stats().retired, stats_before.retired);
  auto after = engine.execute(*gen0, b);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(bit_identical(before.value(), after.value()));

  // The lineage recovers: a benign delta still produces generation 1.
  SparseDelta benign;
  benign.set(0, 5, 0.75f);
  auto recovered = engine.update(gen0, benign);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value()->generation, 1u);
}

TEST(EngineUpdateFaults, CapacityExhaustionKeepsTheOldGenerationCached) {
  EngineOptions options;
  options.compile.updatable = true;
  // 98% sparse: most columns carry no nonzero at all, so the compiled
  // format covers well under the 8-tile-per-panel ceiling.
  const auto a = dlmc::make_lhs({64, 128}, 0.98, 4, 7501).values();

  // Probe the artifact footprint, then rebuild an engine whose single
  // shard fits generation 0 exactly — a delta that widens the format
  // cannot be inserted.
  std::size_t gen0_bytes = 0;
  {
    Engine probe;
    auto compiled = probe.compile(a, options);
    ASSERT_TRUE(compiled.ok());
    gen0_bytes = compiled.value()->footprint_bytes;
  }
  EngineConfig config;
  config.cache_capacity_bytes = gen0_bytes;
  config.cache_shards = 1;
  Engine engine(config);
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const auto gen0 = compiled.value();

  const auto b = dlmc::make_rhs(a.cols(), 16, 7502);
  auto before = engine.execute(*gen0, b);
  ASSERT_TRUE(before.ok());

  // Resurrect up to 24 dead columns, spread one nonzero per (row % 16) so
  // no panel-0 row densifies past 2:4 feasibility: the panel gains live
  // column tiles (more headers, more packed values) while staying
  // §4.3-compliant — the strictly larger successor format cannot fit the
  // exact-fit shard.
  SparseDelta grow;
  for (std::uint32_t c = 0; c < 128 && grow.size() < 24; ++c) {
    bool dead = true;
    for (std::uint32_t r = 0; r < 64 && dead; ++r) dead = a(r, c).is_zero();
    if (dead) {
      grow.set(static_cast<std::uint32_t>(grow.size()) % 16, c, 1.0f);
    }
  }
  ASSERT_GE(grow.size(), 8u)
      << "fixture needs dead columns to resurrect; adjust the seed";

  auto updated = engine.update(gen0, grow);
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kCapacityExhausted);

  // The old generation is still the cached entry AND the lineage head.
  EXPECT_EQ(Engine::latest(gen0).get(), gen0.get());
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  EXPECT_EQ(engine.cache_stats().retired, 0u);
  auto recompiled = engine.compile(a, options);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_EQ(recompiled.value().get(), gen0.get());
  auto after = engine.execute(*gen0, b);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(bit_identical(before.value(), after.value()));
}

}  // namespace
}  // namespace jigsaw::engine
