#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull));
  r.next();
  return r.next();
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

void print_latency(const char* what, const std::vector<double>& seconds,
                   double wall) {
  std::printf("%s: n=%zu min=%.3f ms p50=%.3f ms", what, seconds.size(),
              1e3 * minimum(seconds), 1e3 * median(seconds));
  for (const double p : {0.999, 0.99, 0.9}) {
    const double at = percentile(seconds, p);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(seconds.begin(), seconds.end(),
                      [at](double s) { return s > at; }));
    if (beyond >= 10) {
      std::printf(" p%g=%.3f ms (%zu samples beyond)", 100 * p, 1e3 * at, beyond);
      break;
    }
  }
  std::printf(" throughput=%.2f/s\n",
              wall > 0 ? static_cast<double>(seconds.size()) / wall : 0.0);
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal guest guest_nice; the
  // guest fields are already inside user/nice, so they are not summed.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int task_count() {
  int n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)entry;
    ++n;
  }
  return n;
}

void fatal(const std::string& message) {
  std::cerr << "error: " << message << std::endl;
  std::exit(1);
}

void require_thread_count(int expected, const char* where) {
  const int seen = task_count();
  if (seen > expected) {
    std::ostringstream os;
    os << "error: " << seen << " threads " << where << ", expected "
       << expected
       << " (OpenMP helper threads? run through perfbench/run.py, which "
          "pins OMP_NUM_THREADS=1)";
    std::cerr << os.str() << std::endl;
    std::exit(3);
  }
}

}  // namespace perfbench
