// Concurrency stress for jigsaw::Engine, built to run under
// ThreadSanitizer (scripts/run_sanitized.sh thread): >= 8 threads
// hammering compile / submit / execute / update / clear_cache against one
// shared engine whose cache is sized to evict constantly. The assertions
// are deliberately simple — every call succeeds and every product is
// bit-identical to the single-threaded answer of the generation it ran
// against — because the interesting failures here are the ones TSan
// reports, not wrong numerics. Every RNG seed is pinned so a TSan report
// replays from the same schedule-independent inputs (ctest label:
// stress).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <iterator>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "core/kernel.hpp"
#include "dlmc/suite.hpp"
#include "engine/engine.hpp"
#include "matrix/reference.hpp"

namespace jigsaw::engine {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kItersPerThread = 5;
constexpr std::size_t kRhsCols = 8;

struct Workload {
  DenseMatrix<fp16_t> a;
  DenseMatrix<fp16_t> b;
  DenseMatrix<float> expected;  ///< single-threaded engine product
};

bool bit_identical(const DenseMatrix<float>& x, const DenseMatrix<float>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (x(r, c) != y(r, c)) return false;
    }
  }
  return true;
}

/// Builds the shared workloads and their single-threaded ground truth.
std::vector<Workload> make_workloads(Engine& engine) {
  const std::vector<std::uint64_t> seeds = {11, 21, 31, 41};
  std::vector<Workload> work;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Workload w;
    w.a = dlmc::make_lhs({64, 128}, 0.8 + 0.04 * static_cast<double>(i % 3),
                         i % 2 == 0 ? 4 : 2, seeds[i])
              .values();
    w.b = dlmc::make_rhs(w.a.cols(), kRhsCols, seeds[i] + 500);
    auto compiled = engine.compile(w.a);
    EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
    if (!compiled.ok()) continue;
    auto product = engine.execute(*compiled.value(), w.b);
    EXPECT_TRUE(product.ok()) << product.status().to_string();
    if (!product.ok()) continue;
    w.expected = std::move(product).value();
    work.push_back(std::move(w));
  }
  return work;
}

TEST(EngineStress, ConcurrentCompileSubmitEvict) {
  // Ground truth from a roomy engine, then the stress engine: a cache
  // sized to three quarters of the four artifacts, so concurrent compiles
  // continuously insert and evict.
  Engine reference_engine;
  const std::vector<Workload> work = make_workloads(reference_engine);
  ASSERT_EQ(work.size(), 4u);

  EngineConfig config;
  config.cache_capacity_bytes =
      3 * reference_engine.cache_stats().bytes / work.size();
  config.worker_threads = 4;
  Engine engine(config);

  std::atomic<int> failures{0};
  std::atomic<std::size_t> submits{0};
  auto hammer = [&](std::size_t tid) {
    for (std::size_t i = 0; i < kItersPerThread; ++i) {
      const Workload& w = work[(tid + i) % work.size()];
      auto compiled = engine.compile(w.a);
      if (!compiled.ok()) {
        ++failures;
        continue;
      }
      // Alternate the two execution entry points; both must agree with
      // the single-threaded product bit for bit.
      if ((tid + i) % 2 == 0) {
        auto future = engine.submit(compiled.value(), w.b);
        auto result = future.get();
        if (!result.ok() || !bit_identical(result.value(), w.expected)) {
          ++failures;
        }
        ++submits;
      } else {
        auto result = engine.execute(*compiled.value(), w.b);
        if (!result.ok() || !bit_identical(result.value(), w.expected)) {
          ++failures;
        }
      }
      // A third of the threads also hammer whole-cache eviction, racing
      // clear against in-flight compiles and handed-out artifacts.
      if (tid % 3 == 0 && i % 2 == 1) engine.clear_cache();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(hammer, t);
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(submits.load(), 0u);
  // The tiny cache must have actually cycled: with clear_cache() racing
  // compiles, the engine cannot have served everything from one resident
  // artifact set.
  const CacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.misses, work.size()) << "stress never exercised eviction";
  EXPECT_GT(stats.evictions, 0u) << "the cache never filled";
}

TEST(EngineStress, SameKeyCompiledFromEveryThread) {
  // All threads compile the identical (content, options) key at once:
  // the cache's miss/insert race must converge without torn
  // state, and every returned artifact must serve correct products.
  Engine engine;
  const auto a = dlmc::make_lhs({64, 128}, 0.85, 4, 7).values();
  const auto b = dlmc::make_rhs(a.cols(), kRhsCols, 507);
  const auto ref = reference_gemm(a, b);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        auto compiled = engine.compile(a);
        if (!compiled.ok()) {
          ++failures;
          continue;
        }
        auto result = engine.submit(compiled.value(), b).get();
        if (!result.ok() ||
            !allclose(result.value(), ref, a.cols())) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Steady state: exactly one artifact resident, everything else hits.
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  EXPECT_GT(engine.cache_stats().hits, 0u);
}

TEST(EngineStress, ScratchReuseAcrossShapeChangingSubmits) {
  // Each pool worker's thread owns the kernel's per-thread scratch (the
  // float-staged B and the panel base table), which every submit on that
  // worker reuses and grows only when a request needs more; the risk
  // under concurrency is stale-capacity reuse — request A's scratch shape
  // bleeding into request B on the same worker. Hammer one small pool
  // with interleaved shapes (different k, n, and m) from many client
  // threads and require every product bit-identical to its ground truth.
  // Under TSan this also proves no thread touches another's scratch.
  Engine reference_engine;
  std::vector<Workload> work = make_workloads(reference_engine);
  // A deliberately bigger RHS so consecutive submits on one worker swing
  // the scratch's float-staged B between very different sizes.
  {
    Workload wide;
    wide.a = dlmc::make_lhs({128, 256}, 0.9, 4, 91).values();
    wide.b = dlmc::make_rhs(wide.a.cols(), 96, 591);
    auto compiled = reference_engine.compile(wide.a);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    auto product = reference_engine.execute(*compiled.value(), wide.b);
    ASSERT_TRUE(product.ok()) << product.status().to_string();
    wide.expected = std::move(product).value();
    work.push_back(std::move(wide));
  }
  ASSERT_EQ(work.size(), 5u);

  EngineConfig config;
  config.worker_threads = 2;  // few workers -> heavy per-thread reuse
  Engine engine(config);
  std::vector<std::shared_ptr<const CompiledMatrix>> handles;
  for (const Workload& w : work) {
    auto compiled = engine.compile(w.a);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    handles.push_back(compiled.value());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kItersPerThread; ++i) {
        const std::size_t pick = (t * kItersPerThread + i) % work.size();
        auto result = engine.submit(handles[pick], work[pick].b).get();
        if (!result.ok() ||
            !bit_identical(result.value(), work[pick].expected)) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineStress, ConcurrentRawSubmitsShareOneChoiceMemo) {
  // Four client threads submit to one kRaw V4 artifact at three RHS
  // widths at once, so the plan's memo of BLOCK_TILE choices takes racing
  // misses (both may walk; one entry per width is kept) and concurrent
  // hits. Every product must be bitwise the serial jigsaw_run of a fresh
  // plan of the same matrix.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kWidths[] = {16, 32, 64};
  const auto a = dlmc::make_lhs({128, 256}, 0.85, 4, 61).values();
  EngineOptions options;
  options.policy = ExecutionPolicy::kRaw;
  EngineConfig config;
  config.worker_threads = 4;
  Engine engine(config);

  std::vector<DenseMatrix<fp16_t>> rhs;
  std::vector<DenseMatrix<float>> expected;
  for (const std::size_t n : kWidths) {
    rhs.push_back(dlmc::make_rhs(a.cols(), n, 600 + n));
    core::JigsawRunResult serial =
        core::jigsaw_run(core::jigsaw_plan(a, options.compile), rhs.back(),
                         engine.config().cost_model);
    expected.push_back(std::move(*serial.c));
  }
  auto compiled = engine.compile(a, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kItersPerThread; ++i) {
        const std::size_t w = (t + i) % std::size(kWidths);
        auto result = engine.submit(compiled.value(), rhs[w]).get();
        if (!result.ok() || !bit_identical(result.value(), expected[w])) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineStress, ConcurrentUpdateSubmitClear) {
  // The RCU swap under fire: one writer streams a pinned delta sequence
  // through Engine::update while reader threads submit through
  // Engine::latest and a third of them hammer clear_cache. The invariant
  // is the §RCU contract itself — whatever generation a reader's handle
  // names, the product is bit-identical to the single-threaded ground
  // truth of exactly that generation, never a torn mix of two.
  constexpr std::size_t kGenerations = 6;
  constexpr std::size_t kDeltaEntries = 12;

  // Pinned delta sequence and per-generation ground truth, computed
  // single-threaded before any concurrency starts.
  DenseMatrix<fp16_t> mirror = dlmc::make_lhs({64, 128}, 0.9, 4, 61).values();
  const auto b = dlmc::make_rhs(mirror.cols(), kRhsCols, 561);
  EngineOptions options;
  options.compile.updatable = true;

  std::vector<SparseDelta> deltas;
  std::vector<DenseMatrix<float>> expected;
  {
    Engine reference;
    auto compiled = reference.compile(mirror, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    auto product = reference.execute(*compiled.value(), b);
    ASSERT_TRUE(product.ok()) << product.status().to_string();
    expected.push_back(std::move(product).value());
  }
  Rng rng(62);
  for (std::size_t g = 1; g <= kGenerations; ++g) {
    SparseDelta delta;
    for (std::size_t i = 0; i < kDeltaEntries; ++i) {
      const auto r = static_cast<std::uint32_t>(rng.next_below(mirror.rows()));
      const auto c = static_cast<std::uint32_t>(rng.next_below(mirror.cols()));
      const float v = rng.uniform(0.25f, 1.0f);
      delta.set(r, c, v);
      mirror(r, c) = fp16_t(v);
    }
    deltas.push_back(std::move(delta));
    Engine reference;
    auto compiled = reference.compile(mirror, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    auto product = reference.execute(*compiled.value(), b);
    ASSERT_TRUE(product.ok()) << product.status().to_string();
    expected.push_back(std::move(product).value());
  }

  // Room for a few generations: update's insert-then-retire and the
  // readers' clear_cache keep the cache cycling while handles stay pinned
  // by their own refcounts.
  Engine probe;
  auto probed = probe.compile(dlmc::make_lhs({64, 128}, 0.9, 4, 61).values(),
                              options);
  ASSERT_TRUE(probed.ok()) << probed.status().to_string();
  EngineConfig config;
  config.cache_capacity_bytes = 4 * probed.value()->footprint_bytes;
  config.worker_threads = 4;
  Engine engine(config);
  auto compiled = engine.compile(dlmc::make_lhs({64, 128}, 0.9, 4, 61).values(),
                                 options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const auto gen0 = compiled.value();

  std::atomic<int> failures{0};
  auto writer = [&] {
    auto current = gen0;
    for (const SparseDelta& delta : deltas) {
      auto updated = engine.update(current, delta);
      if (!updated.ok()) {
        ++failures;
        return;
      }
      current = updated.value();
    }
  };
  auto reader = [&](std::size_t tid) {
    for (std::size_t i = 0; i < kItersPerThread * 2; ++i) {
      const auto handle = Engine::latest(gen0);
      const std::uint64_t g = handle->generation;
      Result<DenseMatrix<float>> result =
          (tid + i) % 2 == 0 ? engine.submit(handle, b).get()
                             : engine.execute(*handle, b);
      if (!result.ok() || g >= expected.size() ||
          !bit_identical(result.value(), expected[g])) {
        ++failures;
      }
      if (tid % 3 == 0 && i % 3 == 2) engine.clear_cache();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  threads.emplace_back(writer);
  for (std::size_t t = 1; t < kThreads; ++t) threads.emplace_back(reader, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Engine::latest(gen0)->generation, kGenerations);
  // A stale handle still serves its own pinned generation after the dust
  // settles.
  auto old_product = engine.execute(*gen0, b);
  ASSERT_TRUE(old_product.ok()) << old_product.status().to_string();
  EXPECT_TRUE(bit_identical(old_product.value(), expected[0]));
}

}  // namespace
}  // namespace jigsaw::engine
