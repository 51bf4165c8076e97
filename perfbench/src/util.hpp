// Clocks, statistics, host probes and result records shared by the
// benchmark's workloads. Nothing here calls into the library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so every input is a pure
/// function of --seed and independent of the library's Rng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

double wall_s();         ///< steady clock, seconds
double thread_cpu_s();   ///< CPU time of the calling thread
double process_cpu_s();  ///< CPU time of the whole process

/// Linear interpolation between closest ranks; p in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double minimum(const std::vector<double>& v);  ///< 0 when empty

/// Prints "<what>: n, min, p50, the highest of p99.9 / p99 / p90 with at
/// least ten samples beyond it (and that count), throughput" for op
/// latencies in seconds measured over `wall` seconds.
void print_latency(const char* what, const std::vector<double>& seconds,
                   double wall);

/// Aggregate jiffies of the "cpu" line of /proc/stat.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes read_cpu_times();
/// Share of all CPU time between two samples that the hypervisor stole.
double steal_share(const CpuTimes& before, const CpuTimes& after);

double peak_rss_mib();  ///< process high-water resident set
int task_count();       ///< threads of this process (/proc/self/task)

/// What a workload run hands back to main(): ops attempted and failed,
/// the end-to-end metrics and, in traced runs, the per-layer metrics, by
/// name (units: end_to_end_metrics() and per_layer_metrics()).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
};

/// Settings of one invocation (see main.cpp for the flags).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
  /// Self-test hook: every reference is shifted so no product matches.
  bool inject_wrong_reference = false;
};

/// Prints "error: <message>" and exits with code 1.
[[noreturn]] void fatal(const std::string& message);

/// Refuses to continue (exit code 3) when the process holds more threads
/// than the workload started: OpenMP helpers or stray workers.
void require_thread_count(int expected, const char* where);

}  // namespace perfbench
