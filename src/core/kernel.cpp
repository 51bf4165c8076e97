// jigsaw-lint: hot-path — the execute path lives here; container
// construction inside this file must justify itself with an allow().
#include "core/kernel.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sptc/ldmatrix.hpp"
#include "sptc/shapes.hpp"
#include "sptc/mma_sp.hpp"

namespace jigsaw::core {

const char* to_string(KernelVersion v) {
  switch (v) {
    case KernelVersion::kV0: return "v0";
    case KernelVersion::kV1: return "v1";
    case KernelVersion::kV2: return "v2";
    case KernelVersion::kV3: return "v3";
    case KernelVersion::kV4: return "v4";
  }
  return "?";
}

const char* to_string(ExecutionPolicy p) {
  switch (p) {
    case ExecutionPolicy::kAuto: return "auto";
    case ExecutionPolicy::kRaw: return "raw";
    case ExecutionPolicy::kChecked: return "checked";
    case ExecutionPolicy::kHybrid: return "hybrid";
  }
  return "?";
}

KernelFeatures KernelFeatures::for_version(KernelVersion v) {
  KernelFeatures f;
  const int n = static_cast<int>(v);
  f.padded_smem = n >= 1;
  f.deep_pipeline = n >= 2;
  f.interleaved_metadata = n >= 3;
  f.tile_tuning = n >= 4;
  return f;
}

EngineOptions resolve(const EngineOptions& options) {
  EngineOptions r = options;
  EngineOptions::Compile& c = r.compile;
  if (r.policy == ExecutionPolicy::kAuto) r.policy = ExecutionPolicy::kChecked;
  if (r.policy == ExecutionPolicy::kRaw) {
    const KernelFeatures feats = KernelFeatures::for_version(c.version);
    // V0 ships without any bank-conflict countermeasure, including the
    // conflict-aware group selection inside the reorder (§3.4.1).
    c.reorder.search.bank_conflict_aware = feats.padded_smem;
    if (feats.tile_tuning) c.block_tile = EngineOptions::Compile{}.block_tile;
  } else if (r.policy == ExecutionPolicy::kHybrid) {
    // hybrid_cost walks the SpTC subset at V4, and hybrid_plan always
    // builds it interleaved.
    c.version = KernelVersion::kV4;
  }
  c.reorder.tile.block_tile_m = c.block_tile;
  return r;
}

JigsawPlan jigsaw_plan(const DenseMatrix<fp16_t>& a,
                       const EngineOptions::Compile& compile) {
  JIGSAW_TRACE_SCOPE("kernel", "kernel.plan");
  const auto t0 = std::chrono::steady_clock::now();
  const EngineOptions::Compile options =
      resolve({ExecutionPolicy::kRaw, compile}).compile;
  const KernelFeatures feats = KernelFeatures::for_version(options.version);

  JigsawPlan plan;
  plan.version = options.version;

  // Fixed candidate set — no heap scratch for a three-element list.
  std::array<int, 3> block_tiles{};
  std::size_t num_block_tiles = 0;
  if (feats.tile_tuning) {
    block_tiles = {16, 32, 64};
    num_block_tiles = 3;
  } else {
    block_tiles[0] = options.block_tile;
    num_block_tiles = 1;
  }
  const MetadataLayout layout = feats.interleaved_metadata
                                    ? MetadataLayout::kInterleaved
                                    : MetadataLayout::kNaive;
  for (std::size_t i = 0; i < num_block_tiles; ++i) {
    ReorderOptions ropts = options.reorder;
    ropts.tile.block_tile_m = block_tiles[i];
    ReorderResult reorder = multi_granularity_reorder(a, ropts);
    plan.formats.push_back(JigsawFormat::build(a, reorder, layout));
    plan.reorders.push_back(std::move(reorder));
  }

  plan.preprocess_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (obs::metrics_enabled()) {
    obs::add("kernel.plans");
    obs::observe("kernel.plan_seconds", plan.preprocess_seconds);
  }
  return plan;
}

float Epilogue::apply(float x, std::size_t row) const {
  if (bias != nullptr) {
    JIGSAW_ASSERT(row < bias->size());
    x += (*bias)[row];
  }
  switch (activation) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      x = x > 0.0f ? x : 0.0f;
      break;
    case Activation::kGelu: {
      // tanh approximation, the form inference kernels fuse.
      const float u =
          0.7978845608f * (x + 0.044715f * x * x * x);
      x = 0.5f * x * (1.0f + std::tanh(u));
      break;
    }
  }
  return x;
}

namespace {

/// Widest RHS column panel, and the default: the per-thread accumulator
/// tile stays a fixed stack buffer (16 x 256 floats = 16 KiB), and each
/// (slice, pair) tile is decoded once per panel, so a call with N <= 256
/// decodes every tile once (bench_spmm numbers in docs/PERFORMANCE.md).
constexpr std::size_t kMaxPanelCols = 256;
/// Accumulator columns a row keeps in registers while its nonzero slots
/// stream past: four SSE (two AVX) registers. Wider blocks spill on SSE.
constexpr std::size_t kLanes = 16;

}  // namespace

void jigsaw_compute_into(const JigsawFormat& f, const DenseMatrix<fp16_t>& b,
                         DenseMatrix<float>& c, const Epilogue& epilogue,
                         std::size_t panel_cols) {
  JIGSAW_TRACE_SCOPE("kernel", "kernel.compute");
  JIGSAW_CHECK_MSG(f.cols() == b.rows(), "SpMM shape mismatch: A cols "
                                             << f.cols() << " vs B rows "
                                             << b.rows());
  JIGSAW_CHECK_MSG(c.rows() == f.rows() && c.cols() == b.cols(),
                   "output shape mismatch: got " << c.rows() << "x" << c.cols()
                                                 << ", want " << f.rows()
                                                 << "x" << b.cols());
  const std::size_t m = f.rows(), n = b.cols(), k = f.cols();
  const int bt = f.tile_config().block_tile_m;
  const int slices = f.row_slices_per_panel();
  const std::size_t num_panels = f.panels().size();
  const std::size_t npw =
      std::clamp<std::size_t>(panel_cols == 0 ? kMaxPanelCols : panel_cols, 1,
                              kMaxPanelCols);

  // Per-call scratch from the calling thread's arena: released (capacity
  // kept) on scope exit, so a warmed-up serving thread allocates nothing.
  Arena& arena = thread_scratch_arena();
  ArenaScope scratch(arena);

  // Stage the whole RHS as float once (every binary16 is exactly
  // representable, so per-element conversion order cannot matter). Row k
  // is kept all +0.0f: the decoder maps virtual padding positions to it,
  // so every row a slot gathers is in bounds. This replaces the
  // per-(r, c, j) out-of-line half->float conversions that dominated the
  // scalar kernel.
  float* bf = scratch.alloc<float>((k + 1) * n);
  parallel_for(static_cast<std::int64_t>(k), [&](std::int64_t r) {
    const fp16_t* src = b.data() + static_cast<std::size_t>(r) * n;
    float* dst = bf + static_cast<std::size_t>(r) * n;
    for (std::size_t j = 0; j < n; ++j) dst[j] = static_cast<float>(src[j]);
  });
  std::fill(bf + k * n, bf + (k + 1) * n, 0.0f);

  // Per-panel flat-array bases, filled in one O(panels) sweep so the
  // per-tile decode is O(1).
  auto* bases = scratch.alloc<JigsawFormat::PanelBases>(num_panels);
  f.panel_bases({bases, num_panels});

  parallel_for(static_cast<std::int64_t>(num_panels), [&](std::int64_t pi) {
    const auto p = static_cast<std::uint32_t>(pi);
    const std::uint32_t pairs = f.panels()[p].mma_pairs();
    const JigsawFormat::PanelBases& pb = bases[pi];

    // Fixed per-thread staging; all of it lives on the worker's stack.
    float acc[kMmaTile * kMaxPanelCols];
    JigsawFormat::NonzeroSlots slots;

    // RHS panel batching: the column-panel loop sits above the row-tile
    // (slice) loop, so each decoded A tile is applied to the full resident
    // B panel before moving on, and B is streamed panel-by-panel instead
    // of being re-fetched per 8-wide chunk.
    for (std::size_t n0 = 0; n0 < n; n0 += npw) {
      const std::size_t nw = std::min(npw, n - n0);
      for (int s = 0; s < slices; ++s) {
        const std::size_t row0 = static_cast<std::size_t>(pi) * bt +
                                 static_cast<std::size_t>(s) * kMmaTile;
        if (row0 >= m) break;
        const std::size_t mrows = std::min<std::size_t>(kMmaTile, m - row0);
        std::fill(acc, acc + kMmaTile * nw, 0.0f);

        for (std::uint32_t pair = 0; pair < pairs; ++pair) {
          if (pair + 1 < pairs) {
            // Pipeline deepening (§3.4): pull the next pair's values and
            // metadata while this one computes.
            const std::size_t next =
                (static_cast<std::size_t>(s) * pairs + pair + 1);
            JIGSAW_PREFETCH(f.values().data() + pb.values +
                            next * f.values_per_pair());
            JIGSAW_PREFETCH(f.metadata().data() + pb.metadata +
                            next * f.metadata_words_per_pair());
          }
          // Only the nonzero slots: a ±0 slot adds nothing and never
          // reads its B row.
          f.decode_nonzero_slots(p, static_cast<std::uint32_t>(s), pair, pb,
                                 slots);

          // The mma.sp accumulation. Per output element (r, j) the term
          // order is (pair ascending, compressed column ascending) —
          // identical to the scalar kernel, so results are bitwise equal.
          // Each row's slots stream past kLanes accumulators held in
          // registers, so a slot costs its B row, not a load and store of
          // the accumulator row; the last nw % kLanes columns take the
          // same terms one slot at a time.
          for (std::size_t r = 0; r < kMmaTile; ++r) {
            float* arow = acc + r * nw;
            const std::size_t first = slots.row_begin[r];
            const std::size_t last = slots.row_begin[r + 1];
            if (first == last) continue;
            std::size_t j0 = 0;
            for (; j0 + kLanes <= nw; j0 += kLanes) {
              float lane[kLanes];
              std::copy_n(arow + j0, kLanes, lane);
              for (std::size_t i = first; i < last; ++i) {
                const float av = slots.value[i];
                const float* brow =
                    bf + std::size_t{slots.b_row[i]} * n + n0 + j0;
                for (std::size_t j = 0; j < kLanes; ++j) {
                  lane[j] += av * brow[j];
                }
              }
              std::copy_n(lane, kLanes, arow + j0);
            }
            for (std::size_t i = first; i < last && j0 < nw; ++i) {
              const float av = slots.value[i];
              const float* brow = bf + std::size_t{slots.b_row[i]} * n + n0;
              JIGSAW_PRAGMA_SIMD
              for (std::size_t j = j0; j < nw; ++j) {
                arow[j] += av * brow[j];
              }
            }
          }
        }

        for (std::size_t r = 0; r < mrows; ++r) {
          float* crow = c.data() + (row0 + r) * n + n0;
          const float* arow = acc + r * nw;
          if (epilogue.active()) {
            for (std::size_t j = 0; j < nw; ++j) {
              crow[j] = epilogue.apply(arow[j], row0 + r);
            }
          } else {
            for (std::size_t j = 0; j < nw; ++j) crow[j] = arow[j];
          }
        }
      }
    }
  });
}

DenseMatrix<float> jigsaw_compute(const JigsawFormat& f,
                                  const DenseMatrix<fp16_t>& b,
                                  const Epilogue& epilogue) {
  // jigsaw-lint: allow(hot-path-alloc): the output buffer itself
  DenseMatrix<float> c(f.rows(), b.cols());
  jigsaw_compute_into(f, b, c, epilogue);
  return c;
}

namespace {

/// Per-panel structural measurements accumulated by the cost walk.
struct PanelWalk {
  gpusim::KernelCounters per_block;  ///< counters of one (panel, n-block)
  double b_gmem_bytes = 0;           ///< gathered B bytes per block
  double a_gmem_bytes = 0;           ///< format bytes per block
  double mma_sp_issues = 0;          ///< mma.sp instructions per block
  double ldmatrix_issues = 0;        ///< ldmatrix instructions per block
};

PanelWalk walk_panel(const JigsawFormat& f, std::uint32_t p,
                     const KernelFeatures& feats, const JigsawTuning& tuning,
                     const gpusim::ArchSpec& arch) {
  const JigsawFormat::PanelHeader& panel = f.panels()[p];
  const int slices = f.row_slices_per_panel();
  const std::uint32_t pairs = panel.mma_pairs();
  const std::uint32_t row_stride_halfs =
      kBlockTileN + (feats.padded_smem ? kSmemRowPadHalfs : 0);

  PanelWalk walk;
  gpusim::KernelCounters& c = walk.per_block;
  gpusim::SmemTracker bfrag(arch);

  for (std::uint32_t pair = 0; pair < pairs; ++pair) {
    // ---- Staging: B rows gathered through col_idx into shared memory.
    std::uint32_t real_rows = 0;
    for (int half = 0; half < 2; ++half) {
      const std::uint32_t t = 2 * pair + static_cast<std::uint32_t>(half);
      if (t >= panel.tile_count) continue;
      real_rows += f.tiles()[panel.tile_offset + t].col_count;
    }
    const double b_bytes =
        static_cast<double>(real_rows) * kBlockTileN * sizeof(fp16_t);
    walk.b_gmem_bytes += b_bytes;
    // Full 32-row staging is written to shared memory (virtual rows are
    // zero-filled), 128 B per transaction.
    c.smem_store_transactions += 32.0 * kBlockTileN * sizeof(fp16_t) / 128.0;
    c.instructions += b_bytes / 512.0;  // cp.async: 16 B per thread

    // ---- Staging: A-side format data (values, metadata, indices).
    const double a_bytes =
        slices * (f.values_per_pair() * sizeof(fp16_t) +
                  f.metadata_words_per_pair() * sizeof(std::uint32_t) +
                  2.0 * kMmaTile * sizeof(std::uint32_t)) +  // block_col_idx
        32.0 * sizeof(std::uint32_t);                        // col_idx
    walk.a_gmem_bytes += a_bytes;
    c.smem_store_transactions += a_bytes / 128.0;
    c.instructions += a_bytes / 512.0;

    for (int s = 0; s < slices; ++s) {
      // ---- A fragments: one ldmatrix.x4 over the Z-swizzled compressed
      // tile per warp; the layout is conflict-free by construction.
      c.smem_load_transactions += 4.0 * kWarpsPerBlock;
      c.instructions += 1.0 * kWarpsPerBlock;
      walk.ldmatrix_issues += 1.0 * kWarpsPerBlock;

      // ---- B fragments: ldmatrix.x4 following the per-slice column
      // permutation; conflicts measured on the real addresses. All four
      // warps and both n-chunks share the conflict structure (they read
      // the same rows at shifted column segments).
      std::array<std::uint32_t, 32> addr{};
      for (int l = 0; l < sptc::kTileLogicalCols; ++l) {
        const std::uint32_t t =
            2 * pair + static_cast<std::uint32_t>(l / kMmaTile);
        std::uint32_t pos;
        if (t < panel.tile_count) {
          pos = f.block_col_idx(p, static_cast<std::uint32_t>(s), t,
                                static_cast<std::uint32_t>(l % kMmaTile));
        } else {
          pos = static_cast<std::uint32_t>(l % kMmaTile);
        }
        const std::uint32_t row =
            static_cast<std::uint32_t>(l / kMmaTile) * kMmaTile + pos;
        addr[static_cast<std::size_t>(l)] =
            row * row_stride_halfs * static_cast<std::uint32_t>(sizeof(fp16_t));
      }
      const auto before_t = bfrag.load_transactions();
      const auto before_c = bfrag.conflicts();
      sptc::ldmatrix_x4(addr, bfrag);
      const double dt = static_cast<double>(bfrag.load_transactions() -
                                            before_t);
      const double dc = static_cast<double>(bfrag.conflicts() - before_c);
      const double replicas = 2.0 * kWarpsPerBlock;  // n-chunks x warps
      c.smem_load_transactions += dt * replicas;
      c.smem_bank_conflicts += dc * replicas;
      c.instructions += 2.0 * kWarpsPerBlock;  // the ldmatrix issues
      walk.ldmatrix_issues += 2.0 * kWarpsPerBlock;

      // ---- Metadata loads (§3.4.3). Naive: one half-warp load plus
      // predication per (warp, slice, pair). Interleaved: one lane-indexed
      // load feeds two consecutive pairs.
      if (feats.interleaved_metadata) {
        c.smem_load_transactions += 0.5 * kWarpsPerBlock;
        c.instructions += 0.5 * kWarpsPerBlock;
      } else {
        // Half-warp load, replayed as two phases, plus predication around
        // the idle lanes and the serialized dependency on the mma.
        c.smem_load_transactions += 2.0 * kWarpsPerBlock;
        c.instructions +=
            (1.0 + tuning.naive_metadata_insts_per_mma) * kWarpsPerBlock;
        c.short_scoreboard_warp_cycles +=
            tuning.naive_metadata_stall * kWarpsPerBlock;
      }

      // ---- The mma.sp issues: two per warp (16-wide warp N tile).
      c.instructions += 2.0 * kWarpsPerBlock;
      walk.mma_sp_issues += 2.0 * kWarpsPerBlock;
      c.sptc_macs += 2.0 * kWarpsPerBlock *
                     static_cast<double>(sptc::kJigsawMma.macs());
    }

    // ---- Loop bookkeeping, pipeline barrier, and exposed latency.
    c.instructions += tuning.loop_insts_per_kstep_per_warp * kWarpsPerBlock;
    c.barriers += 1.0;
    const double stall = feats.deep_pipeline
                             ? tuning.deep_pipeline_stall_per_kstep
                             : tuning.shallow_pipeline_stall_per_kstep;
    c.long_scoreboard_warp_cycles += stall * kWarpsPerBlock;
  }

  // Short-scoreboard stalls scale with the shared-memory pressure this
  // block generated (conflict replays included).
  c.short_scoreboard_warp_cycles +=
      tuning.short_stall_per_smem_transaction *
      (c.smem_load_transactions + c.smem_store_transactions);

  // ---- Epilogue: C tile written straight to global memory (fp16).
  const double c_bytes = static_cast<double>(f.tile_config().block_tile_m) *
                         kBlockTileN * sizeof(fp16_t);
  c.dram_write_bytes += c_bytes;
  c.instructions += c_bytes / 512.0;
  return walk;
}

/// One parallel sweep over every panel's structural cost walk. Shared by
/// jigsaw_cost and jigsaw_cost_event so the (expensive, ldmatrix-replaying)
/// walk happens once per cost query, not once per consumer.
std::vector<PanelWalk> compute_panel_walks(const JigsawFormat& f,
                                           const KernelFeatures& feats,
                                           const JigsawTuning& tuning,
                                           const gpusim::ArchSpec& arch) {
  // jigsaw-lint: allow(hot-path-alloc): cold cost-walk scratch, one per query
  std::vector<PanelWalk> walks(f.panels().size());
  parallel_for(static_cast<std::int64_t>(walks.size()), [&](std::int64_t p) {
    walks[static_cast<std::size_t>(p)] = walk_panel(
        f, static_cast<std::uint32_t>(p), feats, tuning, arch);
  });
  return walks;
}

/// Folds precomputed panel walks into the analytic kernel report (totals,
/// DRAM/L2 reuse split, epilogue cost, launch config, obs counters).
gpusim::KernelReport cost_from_walks(const JigsawFormat& f,
                                     const std::vector<PanelWalk>& walks,
                                     std::size_t n, KernelVersion version,
                                     const gpusim::CostModel& cost_model,
                                     const JigsawTuning& tuning,
                                     const Epilogue& epilogue) {
  const std::size_t num_panels = f.panels().size();
  const std::size_t nblocks_per_panel = (n + kBlockTileN - 1) / kBlockTileN;

  gpusim::KernelCounters total;
  double b_reads = 0, a_reads = 0;
  double mma_sp_issues = 0, ldmatrix_issues = 0;
  for (const PanelWalk& w : walks) {
    gpusim::KernelCounters per_panel = w.per_block;
    per_panel.scale(static_cast<double>(nblocks_per_panel));
    total += per_panel;
    b_reads += w.b_gmem_bytes * static_cast<double>(nblocks_per_panel);
    a_reads += w.a_gmem_bytes * static_cast<double>(nblocks_per_panel);
    mma_sp_issues += w.mma_sp_issues * static_cast<double>(nblocks_per_panel);
    ldmatrix_issues +=
        w.ldmatrix_issues * static_cast<double>(nblocks_per_panel);
  }

  // Global-memory reuse: each distinct B byte and each panel's format data
  // is fetched from DRAM once; repeats hit L2.
  const double b_unique =
      static_cast<double>(f.cols()) * static_cast<double>(n) * sizeof(fp16_t);
  const double b_dram = std::min(b_reads, b_unique);
  double a_unique = 0;
  for (const PanelWalk& w : walks) a_unique += w.a_gmem_bytes;
  total.dram_read_bytes += b_dram + a_unique;
  total.l2_read_bytes += (b_reads - b_dram) + (a_reads - a_unique);

  if (epilogue.active()) {
    // Fused epilogue: a couple of CUDA-core ops per output element plus
    // one pass over the bias vector; no extra C traffic (it is fused into
    // the register write-back).
    const double outputs =
        static_cast<double>(f.rows()) * static_cast<double>(n);
    const double ops_per_element =
        (epilogue.bias != nullptr ? 1.0 : 0.0) +
        (epilogue.activation == Epilogue::Activation::kGelu
             ? 8.0
             : (epilogue.activation == Epilogue::Activation::kRelu ? 1.0
                                                                   : 0.0));
    total.cuda_macs += outputs * ops_per_element;
    total.instructions += outputs * ops_per_element / 64.0;
    if (epilogue.bias != nullptr) {
      total.dram_read_bytes += static_cast<double>(f.rows()) * 4.0;
    }
  }

  gpusim::LaunchConfig launch;
  launch.blocks = num_panels * nblocks_per_panel;
  launch.threads_per_block = kThreadsPerBlock;
  launch.smem_per_block = f.tile_config().smem_bytes();
  launch.regs_per_thread = tuning.regs_per_thread;

  // jigsaw-lint: allow(hot-path-alloc): cold report labelling
  std::string name = std::string("jigsaw_") + to_string(version) + "_bt" +
                     std::to_string(f.tile_config().block_tile_m);
  gpusim::KernelReport report =
      cost_model.estimate(std::move(name), total, launch);

  if (obs::metrics_enabled()) {
    // Per-version cost-walk counters: grid-wide totals of the structural
    // quantities the ablation (§4.4) argues about.
    // jigsaw-lint: allow(hot-path-alloc): cold, metrics-enabled-only block
    const std::string prefix = std::string("kernel.") + to_string(version);
    obs::add(prefix + ".cost_walks");
    obs::add(prefix + ".mma_sp_issues", mma_sp_issues);
    obs::add(prefix + ".ldmatrix_issues", ldmatrix_issues);
    obs::add(prefix + ".smem_bank_conflicts", total.smem_bank_conflicts);
    obs::add(prefix + ".stall_cycles", total.long_scoreboard_warp_cycles +
                                           total.short_scoreboard_warp_cycles);
    obs::add(prefix + ".dram_read_bytes", total.dram_read_bytes);
    obs::gauge_set(prefix + ".duration_us", report.duration_us);
  }
  return report;
}

}  // namespace

gpusim::KernelReport jigsaw_cost(const JigsawFormat& f, std::size_t n,
                                 KernelVersion version,
                                 const gpusim::CostModel& cost_model,
                                 const JigsawTuning& tuning,
                                 const Epilogue& epilogue) {
  JIGSAW_TRACE_SCOPE("kernel", "kernel.cost_walk");
  const KernelFeatures feats = KernelFeatures::for_version(version);
  // jigsaw-lint: allow(hot-path-alloc): move-init from the walk sweep
  const std::vector<PanelWalk> walks =
      compute_panel_walks(f, feats, tuning, cost_model.arch());
  return cost_from_walks(f, walks, n, version, cost_model, tuning, epilogue);
}

JigsawEventCost jigsaw_cost_event(const JigsawFormat& f, std::size_t n,
                                  KernelVersion version,
                                  const gpusim::CostModel& cost_model,
                                  const JigsawTuning& tuning) {
  JIGSAW_TRACE_SCOPE("kernel", "kernel.cost_event");
  const KernelFeatures feats = KernelFeatures::for_version(version);
  const gpusim::ArchSpec& arch = cost_model.arch();
  // One walk sweep feeds both the analytic report and the per-block
  // durations below (previously every panel was walked twice).
  // jigsaw-lint: allow(hot-path-alloc): move-init from the walk sweep
  const std::vector<PanelWalk> walks =
      compute_panel_walks(f, feats, tuning, arch);
  JigsawEventCost out;
  out.report = cost_from_walks(f, walks, n, version, cost_model, tuning, {});
  const std::size_t num_panels = f.panels().size();
  const std::size_t nblocks_per_panel = (n + kBlockTileN - 1) / kBlockTileN;
  const int bpsm = out.report.occupancy.blocks_per_sm;

  // Per-block duration: each resident block receives a 1/blocks_per_sm
  // share of its SM's pipes (and the grid-wide share of DRAM), so for
  // uniform blocks the makespan matches the analytic bound.
  // jigsaw-lint: allow(hot-path-alloc): cold cost-walk scratch
  std::vector<double> durations;
  durations.reserve(num_panels * nblocks_per_panel);
  for (std::uint32_t p = 0; p < num_panels; ++p) {
    const PanelWalk& walk = walks[p];
    const auto& c = walk.per_block;
    const double share = static_cast<double>(bpsm);
    const double t_tc =
        (c.sptc_macs / arch.sptc_speedup + c.tc_fp16_macs) /
        (arch.tc_fp16_mac_per_cycle / share);
    const double t_smem =
        (c.smem_load_transactions + c.smem_store_transactions) * share;
    const double t_issue = c.instructions / (arch.issue_per_cycle / share);
    const double dram_bytes =
        walk.a_gmem_bytes + walk.b_gmem_bytes +
        c.dram_write_bytes;  // per-block traffic, L2-or-DRAM combined
    const double t_mem =
        dram_bytes /
        (arch.l2_bytes_per_cycle() /
         (static_cast<double>(arch.num_sms) * share));
    const double duration = std::max({t_tc, t_smem, t_issue, t_mem});
    for (std::size_t nb = 0; nb < nblocks_per_panel; ++nb) {
      durations.push_back(duration);
    }
  }

  out.grid_order = gpusim::simulate_block_schedule(
      durations, out.report.occupancy, arch, gpusim::IssueOrder::kGridOrder);
  out.heaviest_first = gpusim::simulate_block_schedule(
      durations, out.report.occupancy, arch,
      gpusim::IssueOrder::kHeaviestFirst);

  // Replace the analytic bound x wave factor with the event makespan; the
  // stall/barrier/fixed terms are issue-structure costs, kept as-is.
  out.report.duration_cycles = out.grid_order.makespan_cycles +
                               out.report.breakdown.stalls +
                               out.report.breakdown.barriers +
                               arch.kernel_fixed_cycles;
  out.report.duration_us = arch.cycles_to_us(out.report.duration_cycles);
  return out;
}

SelectionMemo& SelectionMemo::operator=(const SelectionMemo&) noexcept {
  MutexLock lock(mu_);
  size_ = 0;
  oldest_ = 0;
  return *this;
}

std::optional<JigsawSelection> SelectionMemo::find(const Key& key) const {
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < size_; ++i) {
    if (entries_[i].key == key) return entries_[i].selection;
  }
  return std::nullopt;
}

void SelectionMemo::insert(const Key& key, const JigsawSelection& selection) {
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < size_; ++i) {
    if (entries_[i].key == key) return;  // a racing miss inserted it first
  }
  std::size_t slot = size_;
  if (size_ < kCapacity) {
    ++size_;
  } else {
    slot = oldest_;
    oldest_ = (oldest_ + 1) % kCapacity;
  }
  entries_[slot] = Entry{key, selection};
}

JigsawSelection jigsaw_select(const JigsawPlan& plan, std::size_t n,
                              const gpusim::CostModel& cost_model,
                              const EngineOptions::Run& options) {
  JIGSAW_CHECK_MSG(!plan.formats.empty(), "empty plan");
  const SelectionMemo::Key key{n, options.tuning, options.epilogue.activation,
                               options.epilogue.bias != nullptr,
                               cost_model.arch()};
  if (std::optional<JigsawSelection> hit = plan.selections.find(key)) {
    return std::move(*hit);
  }
  JigsawSelection best;
  for (std::size_t i = 0; i < plan.formats.size(); ++i) {
    gpusim::KernelReport report =
        jigsaw_cost(plan.formats[i], n, plan.version, cost_model,
                    options.tuning, options.epilogue);
    if (i == 0 || report.duration_cycles < best.report.duration_cycles) {
      best.report = std::move(report);
      best.index = i;
    }
  }
  plan.selections.insert(key, best);
  return best;
}

JigsawRunResult jigsaw_run(const JigsawPlan& plan,
                           const DenseMatrix<fp16_t>& b,
                           const gpusim::CostModel& cost_model,
                           const EngineOptions::Run& options) {
  JIGSAW_TRACE_SCOPE("kernel", "kernel.run");
  JigsawSelection chosen = jigsaw_select(plan, b.cols(), cost_model, options);
  const JigsawFormat& format = plan.formats[chosen.index];
  JigsawRunResult result;
  result.report = std::move(chosen.report);
  result.selected_block_tile = format.tile_config().block_tile_m;
  result.c = jigsaw_compute(format, b, options.epilogue);
  return result;
}

}  // namespace jigsaw::core
