// jigsaw_perfbench: runs one workload of the repository's benchmark and
// prints, as the last line of stdout, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`.
//
//   jigsaw_perfbench --workload serve_ffn|mlp_forward|update_stream
//                    --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//                    [--inject-wrong-reference]
//
// Normally started through perfbench/run.py, which builds it and pins
// OMP_NUM_THREADS=1 before the process starts. --trace 0 prints the
// end-to-end metrics; --trace 1 runs the traced variant and prints the
// per-layer metrics instead. See perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#if defined(JIGSAW_HAVE_OPENMP)
#include <omp.h>
#endif

#include "inputs.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunConfig;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: jigsaw_perfbench --workload "
               "serve_ffn|mlp_forward|update_stream --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] "
               "[--inject-wrong-reference]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig c;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-reference") {
      c.inject_wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      c.workload = value;
    } else if (flag == "--seed") {
      c.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      c.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      c.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (c.workload != "serve_ffn" && c.workload != "mlp_forward" &&
      c.workload != "update_stream") {
    usage("unknown or missing --workload");
  }
  if (!(c.seconds > 0.0)) usage("bad --seconds");
  return c;
}

int omp_threads() {
#if defined(JIGSAW_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void print_host(const RunConfig& c) {
  const perfbench::Threads t = perfbench::workload_threads(c.workload);
  std::printf("host: nproc=%ld omp_threads=%d engine_workers=%d "
              "client_threads=%d build=%s compiler=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), omp_threads(), t.engine_workers,
              t.client_threads, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d setup_reps=%d\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              c.seconds, c.trace ? 1 : 0, perfbench::kSetupReps);
}

void print_json(const perfbench::RunResult& r, bool trace) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  };
  if (trace) {
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      const auto it = r.layers.find(name);
      emit(name, it == r.layers.end() ? 0.0 : it->second, unit);
    }
  } else {
    for (const auto& [name, unit] : perfbench::end_to_end_metrics()) {
      const auto it = r.metrics.find(name);
      emit(name, it == r.metrics.end() ? 0.0 : it->second, unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "error: jigsaw_perfbench was built without NDEBUG; configure "
               "with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  const RunConfig config = parse(argc, argv);
  if (omp_threads() != 1) {
    std::fprintf(stderr,
                 "error: OpenMP would run %d threads; set OMP_NUM_THREADS=1 "
                 "before the process starts (perfbench/run.py does)\n",
                 omp_threads());
    return 3;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  print_host(config);
  if (config.inject_wrong_reference) perfbench::set_reference_offset(1.0);

  const perfbench::RunResult r =
      config.workload == "serve_ffn"       ? perfbench::run_serve_ffn(config)
      : config.workload == "update_stream" ? perfbench::run_update_stream(config)
                                           : perfbench::run_mlp_forward(config);
  std::printf("\nend-to-end (attempted=%llu failed=%llu)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& [name, unit] : perfbench::end_to_end_metrics()) {
    const auto it = r.metrics.find(name);
    std::printf("  %-16s %14.6f %s\n", name.c_str(),
                it == r.metrics.end() ? 0.0 : it->second, unit.c_str());
  }
  if (r.failed != 0) std::printf("INCORRECT: %llu ops failed\n",
                                 static_cast<unsigned long long>(r.failed));
  print_json(r, config.trace);
  return 0;
}
