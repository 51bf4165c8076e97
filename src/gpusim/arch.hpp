// Machine description of the simulated GPU.
//
// The defaults model an NVIDIA A100-SXM4-40GB (GA100, 108 SMs), the device
// used in the paper's evaluation. All kernel cost estimates in the
// repository are derived from these numbers plus data-dependent counters
// (bytes moved, MMAs issued, bank conflicts measured on the real layouts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace jigsaw::gpusim {

/// Architecture parameters. Everything is expressed per-cycle so kernels
/// can be costed in cycles and converted to time with `clock_ghz`.
struct ArchSpec {
  const char* name = "A100-SXM4-40GB";

  // --- Compute hierarchy -------------------------------------------------
  int num_sms = 108;
  int warp_size = 32;
  int schedulers_per_sm = 4;        ///< warp schedulers (1 issue/cycle each)
  int max_warps_per_sm = 64;
  int max_threads_per_sm = 2048;
  int max_blocks_per_sm = 32;

  // --- Register file / shared memory ------------------------------------
  std::size_t regs_per_sm = 64 * 1024;
  std::size_t max_regs_per_thread = 256;
  std::size_t smem_per_sm_bytes = 164 * 1024;   ///< max carveout on A100
  std::size_t smem_per_block_max = 164 * 1024;  ///< opt-in max per block
  int smem_banks = 32;
  int smem_bank_bytes = 4;

  // --- Throughputs (per SM per cycle unless noted) -----------------------
  /// Dense tensor-core fp16 multiply-accumulates per SM per cycle
  /// (4 tensor cores x 256 FMA). Peak 312 TFLOPS at 1.41 GHz.
  double tc_fp16_mac_per_cycle = 1024.0;
  /// Sparse tensor core doubles effective MAC throughput on 2:4 operands.
  double sptc_speedup = 2.0;
  /// Integer tensor-core MACs per SM per cycle (int8 path, used by the
  /// Magicube baseline's quantized kernels).
  double tc_int8_mac_per_cycle = 2048.0;
  /// CUDA-core fp16 FMA per SM per cycle (half2 on 64 FP32 units x 4).
  double cuda_fp16_mac_per_cycle = 256.0;
  /// Shared memory: bytes loadable per SM per cycle (32 banks x 4 B).
  double smem_bytes_per_cycle = 128.0;
  /// Instruction issue slots per SM per cycle (one per scheduler).
  double issue_per_cycle = 4.0;

  // --- Memory system ------------------------------------------------------
  double clock_ghz = 1.41;
  double dram_bytes_per_sec = 1555.0e9;   ///< HBM2e
  double l2_bytes_per_sec = 7000.0e9;
  std::size_t l2_capacity_bytes = 40 * 1024 * 1024;
  double dram_latency_cycles = 480.0;
  double l2_latency_cycles = 200.0;
  double smem_latency_cycles = 29.0;

  /// Fixed per-kernel overhead inside the measured duration (tail effects,
  /// final syncs); launch latency itself is excluded, as in the paper's
  /// Nsight "Duration" metric.
  double kernel_fixed_cycles = 3000.0;

  // --- Derived helpers ----------------------------------------------------
  double dram_bytes_per_cycle() const {
    return dram_bytes_per_sec / (clock_ghz * 1e9);
  }
  double l2_bytes_per_cycle() const {
    return l2_bytes_per_sec / (clock_ghz * 1e9);
  }
  double cycles_to_us(double cycles) const {
    return cycles / (clock_ghz * 1e3);
  }

  /// Field by field; `name` compares as a pointer, so two specs spelled
  /// alike through different strings only ever compare unequal.
  bool operator==(const ArchSpec&) const = default;
};

/// The default simulated device (matches the paper's testbed).
inline const ArchSpec& a100() {
  static const ArchSpec spec{};
  return spec;
}

/// A100-SXM4-80GB: identical compute, faster HBM2e stacks.
inline const ArchSpec& a100_80g() {
  static const ArchSpec spec = [] {
    ArchSpec s;
    s.name = "A100-SXM4-80GB";
    s.dram_bytes_per_sec = 2039.0e9;
    return s;
  }();
  return spec;
}

/// H100-SXM5-like device (Hopper): more SMs, higher clock, HBM3, larger
/// shared memory, and a 4th-generation tensor core with double the fp16
/// throughput per SM. Used by the what-if portability study; the paper
/// itself only evaluates A100.
inline const ArchSpec& h100_sxm() {
  static const ArchSpec spec = [] {
    ArchSpec s;
    s.name = "H100-SXM5-80GB";
    s.num_sms = 132;
    s.clock_ghz = 1.83;
    s.dram_bytes_per_sec = 3350.0e9;
    s.l2_bytes_per_sec = 12000.0e9;
    s.l2_capacity_bytes = 50 * 1024 * 1024;
    s.smem_per_sm_bytes = 228 * 1024;
    s.smem_per_block_max = 228 * 1024;
    s.tc_fp16_mac_per_cycle = 2048.0;
    s.tc_int8_mac_per_cycle = 4096.0;
    s.cuda_fp16_mac_per_cycle = 512.0;
    return s;
  }();
  return spec;
}

/// Looks a preset up by name ("a100", "a100-80g", "h100"); throws on an
/// unknown name. Used by the CLI's --device flag.
const ArchSpec& arch_by_name(const std::string& name);

}  // namespace jigsaw::gpusim
