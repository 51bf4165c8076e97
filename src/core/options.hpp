// Consolidated option surface of the Jigsaw pipeline.
//
// Two sections carry every knob:
//
//   * EngineOptions::Compile — everything that shapes the immutable
//     compiled artifact (kernel version, tiling, reorder knobs, whether
//     the artifact accepts updates). Which of them a route reads is
//     decided in one place, resolve(): the route builders read only its
//     result and the engine's plan cache keys on it, so two compiles whose
//     options resolve equal produce interchangeable artifacts.
//   * EngineOptions::Run — everything that varies per execution against an
//     already-compiled artifact (latency-model tuning, fused epilogue).
//     Run options never invalidate a cached artifact.
//
// EngineOptions itself holds the ExecutionPolicy and the Compile section:
// what Engine::compile reads. Engine::submit, execute and cost take their
// own Run. The lower-level entry points take the matching section directly
// (jigsaw_plan, checked_compile and hybrid_plan a Compile, which each
// resolves under its own policy; jigsaw_run a Run). See docs/API.md.
#pragma once

#include <cstdint>
#include <vector>

#include "core/format.hpp"

namespace jigsaw::core {

enum class KernelVersion : int { kV0 = 0, kV1 = 1, kV2 = 2, kV3 = 3, kV4 = 4 };

const char* to_string(KernelVersion v);

/// Calibration constants of the latency model. The structural quantities
/// (instructions, transactions, conflicts, bytes) are counted exactly from
/// the data layout; these constants only set the magnitude of the exposed
/// dependency stalls, and were calibrated once against the ablation
/// metrics quoted in §4.4 (warp long scoreboard 1.82 -> 0.87 between the
/// shallow and deep pipeline).
struct JigsawTuning {
  /// Exposed global-latency stall per k-step per warp with the shallow
  /// 2-stage pipeline, where the col_idx -> B indirect load is serialized.
  double shallow_pipeline_stall_per_kstep = 300.0;
  /// Residual exposed stall with the deepened 3-stage pipeline.
  double deep_pipeline_stall_per_kstep = 95.0;
  /// Short-scoreboard stall per shared-memory transaction.
  double short_stall_per_smem_transaction = 1.1;
  /// Extra short-scoreboard stall per (warp, slice) on the naive metadata
  /// path: the uncoalesced half-warp load serializes against the mma.
  double naive_metadata_stall = 12.0;
  /// Extra predication/branch instructions per mma for the naive metadata
  /// path (half the warp idles while the other half loads its word).
  double naive_metadata_insts_per_mma = 10.0;
  /// Loop/index bookkeeping instructions per k-step per warp.
  double loop_insts_per_kstep_per_warp = 14.0;
  int regs_per_thread = 96;

  bool operator==(const JigsawTuning&) const = default;
};

/// Fused epilogue applied to the C tile in registers before the global
/// write-back — the standard inference pattern C = act(A x B + bias).
/// Fusing it is free bandwidth-wise (C is already in registers); the cost
/// walk charges only the extra CUDA-core ops and the bias vector load.
/// GELU is the tanh form; its tanh is the library's own (core::tanh4),
/// bitwise equal to glibc 2.36's tanhf, so products do not depend on the
/// host's libm.
struct Epilogue {
  enum class Activation : std::uint8_t { kNone, kRelu, kGelu };
  Activation activation = Activation::kNone;
  /// Optional per-output-row bias (length M; Engine::execute returns
  /// kInvalidArgument and jigsaw_compute_into throws on any other
  /// length). The pointee must outlive every execution using this
  /// epilogue — for Engine::submit that means until the returned future
  /// is ready.
  const std::vector<float>* bias = nullptr;

  bool active() const {
    return activation != Activation::kNone || bias != nullptr;
  }
  /// Applies the epilogue to one value of output row `row`.
  float apply(float x, std::size_t row) const;
};

/// Which execution tier an engine-compiled artifact runs through.
enum class ExecutionPolicy : std::uint8_t {
  /// Pick for the caller: currently resolves to kChecked, the
  /// degrade-don't-die tier a serving loop wants by default.
  kAuto = 0,
  /// The plain SpTC path (jigsaw_plan/jigsaw_run semantics). Strict: a
  /// matrix whose reorder fails §4.3 is a typed kReorderFailed compile
  /// error instead of silently running a grown layout.
  kRaw,
  /// The checked tier: panels whose reorder fails degrade through the
  /// hybrid dense-TC / CUDA-core pipes; the answer stays exact.
  kChecked,
  /// The §4.7 hybrid router: every column classified onto one of the
  /// three compute pipes up front.
  kHybrid,
};

const char* to_string(ExecutionPolicy p);

/// The single layered option surface (see file comment).
struct EngineOptions {
  /// Compile-time section: shapes the immutable artifact; resolved, it is
  /// part of the plan-cache key.
  struct Compile {
    KernelVersion version = KernelVersion::kV4;
    /// BLOCK_TILE of the checked and hybrid routes and of kRaw V0..V3;
    /// kRaw V4 (and jigsaw_plan at V4) tunes over {16, 32, 64} instead.
    int block_tile = 64;
    /// Reorder knobs. reorder.tile is not an input: every route reorders
    /// at block_tile (or the kRaw V4 candidates).
    ReorderOptions reorder{};
    /// Opt into Engine::update streaming weight deltas into this
    /// artifact: the source operand stays resident inside the
    /// CompiledMatrix (one extra fp16 copy charged to the cache) and the
    /// artifact carries the RCU lineage cell successor generations are
    /// published through.
    bool updatable = false;

    bool operator==(const Compile&) const = default;
  };

  /// Run-time section: varies per execution, never invalidates a cached
  /// artifact.
  struct Run {
    JigsawTuning tuning{};
    Epilogue epilogue{};  ///< fused bias/activation (§ inference use)
  };

  ExecutionPolicy policy = ExecutionPolicy::kAuto;
  Compile compile;

  bool operator==(const EngineOptions&) const = default;
};

/// The options the route `options.policy` reads, with every field the
/// route ignores or overwrites set to the one value it uses: kAuto becomes
/// kChecked and reorder.tile takes block_tile; kRaw takes
/// bank_conflict_aware from the version and, at V4, the default
/// block_tile (its candidates are fixed); kHybrid takes version kV4.
/// Idempotent. The route builders read only its result, and the engine's
/// cache key hashes it.
EngineOptions resolve(const EngineOptions& options);

/// Deprecated spelling of EngineOptions::Run. The benchmark program
/// (perfbench/) still spells it; everything else spells the section.
using JigsawRunOptions = EngineOptions::Run;

}  // namespace jigsaw::core
