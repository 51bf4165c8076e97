// The Jigsaw SpMM kernel (§3.1, §3.4): execution on the simulated A100.
//
// Each thread block computes a BLOCK_TILE_M x 64 tile of C; four warps
// split the 64-wide N tile. Per k-step (one mma.sp pair of column tiles)
// the block stages the gathered B rows in shared memory, the warps load A
// fragments (Z-swizzled compressed values), B fragments (ldmatrix through
// the — possibly padded — shared tile, following the per-slice column
// permutation) and metadata (naive or interleaved layout), then issue
// mma.sp.m16n8k32.
//
// The kernel has two faces sharing the same tiling:
//   * a functional path that computes C exactly through the format and the
//     functional SpTC (used by tests and examples), and
//   * a cost walk that counts instructions, bytes, shared-memory
//     transactions (bank conflicts measured by replaying the real ldmatrix
//     address patterns), and stall cycles, which the gpusim cost model
//     turns into the simulated duration (used by benchmarks).
//
// Kernel versions reproduce the paper's ablation (§4.4):
//   V0  baseline, unpadded shared B tile (bank conflicts), 2-stage pipeline
//   V1  + bank-conflict elimination via padding (§3.4.1)
//   V2  + deepened pipeline breaking the col_idx -> B dependency (§3.4.2)
//   V3  + interleaved metadata loading (§3.4.3)
//   V4  + BLOCK_TILE tuning over {16, 32, 64}
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/format.hpp"
#include "core/options.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/event_sim.hpp"

namespace jigsaw::core {

// KernelVersion, JigsawTuning, Epilogue and the consolidated option
// surface (EngineOptions) live in core/options.hpp.

/// Per-version feature switches derived from KernelVersion.
struct KernelFeatures {
  bool padded_smem = false;        ///< V1+: 4-bank row padding of the B tile
  bool deep_pipeline = false;      ///< V2+: 3-stage pipeline (§3.4.2)
  bool interleaved_metadata = false;  ///< V3+: §3.4.3 layout
  bool tile_tuning = false;        ///< V4: BLOCK_TILE in {16,32,64}

  static KernelFeatures for_version(KernelVersion v);
};

/// The candidate a run executes, and the cost walk that chose it.
struct JigsawSelection {
  std::size_t index = 0;        ///< into JigsawPlan::formats
  gpusim::KernelReport report;  ///< the winner's simulated report
};

/// The last few choices jigsaw_select made on one plan. A cost walk is a
/// pure function of the plan's formats and version plus a Key, so a hit
/// is exactly the index and report a fresh walk would return. The lock
/// is never held during a walk: two racing misses may both walk, and the
/// later insert of an equal key is dropped. Copying or assigning a memo
/// leaves the destination empty.
class SelectionMemo {
 public:
  /// Everything a cost walk reads besides the plan: the RHS width, every
  /// tuning constant, the epilogue's shape (not its bias values) and the
  /// simulated device, compared by value.
  struct Key {
    std::size_t n = 0;
    JigsawTuning tuning;
    Epilogue::Activation activation = Epilogue::Activation::kNone;
    bool has_bias = false;
    gpusim::ArchSpec arch;

    bool operator==(const Key&) const = default;
  };
  /// Fixed size; once full, each new choice overwrites the oldest.
  static constexpr std::size_t kCapacity = 8;

  SelectionMemo() = default;
  SelectionMemo(const SelectionMemo&) noexcept {}
  SelectionMemo& operator=(const SelectionMemo&) noexcept;

  [[nodiscard]] std::optional<JigsawSelection> find(const Key& key) const
      EXCLUDES(mu_);
  void insert(const Key& key, const JigsawSelection& selection)
      EXCLUDES(mu_);

 private:
  struct Entry {
    Key key;
    JigsawSelection selection;
  };
  mutable Mutex mu_;
  std::array<Entry, kCapacity> entries_ GUARDED_BY(mu_);
  std::size_t size_ GUARDED_BY(mu_) = 0;    ///< filled entries
  std::size_t oldest_ GUARDED_BY(mu_) = 0;  ///< overwritten next when full
};

/// One-time preprocessing product: reorder + format for one or (V4) three
/// BLOCK_TILE configurations. The paper amortizes this over inference runs.
/// `version` and `formats` must not change after the first run: the
/// choices `selections` keeps were walked against them. Copying or moving
/// a plan starts an empty memo, so an edited copy never inherits a stale
/// choice.
struct JigsawPlan {
  KernelVersion version = KernelVersion::kV4;
  /// Candidate formats; one entry for V0..V3, up to three for V4.
  std::vector<JigsawFormat> formats;
  std::vector<ReorderResult> reorders;  ///< parallel to formats
  double preprocess_seconds = 0.0;      ///< measured host reorder time
  /// jigsaw_select's memo (a few KiB, not charged to any footprint).
  mutable SelectionMemo selections;
};

/// Runs the multi-granularity reorder and builds the format(s), with
/// `compile` resolved under kRaw.
JigsawPlan jigsaw_plan(const DenseMatrix<fp16_t>& a,
                       const EngineOptions::Compile& compile = {});

/// The one place a candidate is picked: the plan's format with the lowest
/// simulated duration against an n-column RHS (the paper's empirical
/// BLOCK_TILE tuning for V4; V0..V3 plans have one candidate). The first
/// call per Key walks every candidate; later calls return the memoized
/// winner and run no walk, so they emit no `kernel.vN.*` counter.
/// Report-only callers read the picked BLOCK_TILE from
/// plan.formats[index].
JigsawSelection jigsaw_select(const JigsawPlan& plan, std::size_t n,
                              const gpusim::CostModel& cost_model,
                              const EngineOptions::Run& options = {});

struct JigsawRunResult {
  /// Always set; it stays a std::optional only because the benchmark
  /// program (perfbench/) dereferences it.
  std::optional<DenseMatrix<float>> c;
  gpusim::KernelReport report;
  int selected_block_tile = 0;  ///< the BLOCK_TILE V4 picked
};

/// Executes the kernel against a dense RHS: the simulated kernel report of
/// the candidate jigsaw_select picks for b.cols() and the exact numeric
/// result through that candidate. Repeated widths on one plan reuse the
/// memoized choice, so only the first run at each width pays for the cost
/// walks.
JigsawRunResult jigsaw_run(const JigsawPlan& plan,
                           const DenseMatrix<fp16_t>& b,
                           const gpusim::CostModel& cost_model,
                           const EngineOptions::Run& options = {});

/// Functional path only: computes C through the format + functional SpTC,
/// applying the optional fused epilogue at write-back.
DenseMatrix<float> jigsaw_compute(const JigsawFormat& format,
                                  const DenseMatrix<fp16_t>& b,
                                  const Epilogue& epilogue = {});

/// Allocation-free variant: computes into a caller-provided output sized
/// format.rows() x b.cols(). Scratch (the float-staged RHS, per-panel
/// array bases) lives in per-thread buffers that grow to the thread's
/// largest call, so steady-state calls on a warmed-up thread touch the
/// heap zero times — the property the engine's
/// `jigsaw.engine.submit.allocations` counter tracks. Output columns are
/// independent sums: any column slice of B, computed alone, gives the
/// same columns of C bit for bit.
void jigsaw_compute_into(const JigsawFormat& format,
                         const DenseMatrix<fp16_t>& b, DenseMatrix<float>& c,
                         const Epilogue& epilogue = {});

/// tanh of four floats, lane by lane: a branch-free port of fdlibm's
/// tanhf and expm1f, bitwise equal to glibc 2.36's tanhf on every input
/// (NaNs compared as NaN). The GELU epilogue's one tanh, so products do
/// not depend on the host's libm.
std::array<float, 4> tanh4(const std::array<float, 4>& x);

/// Cost walk only: simulated report for one format at one kernel version.
gpusim::KernelReport jigsaw_cost(const JigsawFormat& format, std::size_t n,
                                 KernelVersion version,
                                 const gpusim::CostModel& cost_model,
                                 const JigsawTuning& tuning = {},
                                 const Epilogue& epilogue = {});

/// Event-level refinement of the cost walk: instead of the analytic wave
/// factor, per-block durations (variable across panels — heavy panels keep
/// more live columns) are dispatched through the gpusim block scheduler.
/// Captures the load imbalance of skewed sparsity distributions and the
/// benefit of heaviest-first block renumbering (the Sputnik row-swizzle
/// idea applied to Jigsaw's panels).
struct JigsawEventCost {
  gpusim::KernelReport report;          ///< duration from the event schedule
  gpusim::EventSimResult grid_order;    ///< hardware issue order
  gpusim::EventSimResult heaviest_first;  ///< LPT-renumbered issue order
};

JigsawEventCost jigsaw_cost_event(const JigsawFormat& format, std::size_t n,
                                  KernelVersion version,
                                  const gpusim::CostModel& cost_model,
                                  const JigsawTuning& tuning = {});

}  // namespace jigsaw::core
