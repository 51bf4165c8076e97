// serve_ffn and update_stream: four pruned FFN weights served by
// jigsaw::Engine, read-only (serve_ffn) or beside a stream of value-only
// weight updates (update_stream).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/kernel.hpp"
#include "core/tile_search_cache.hpp"
#include "engine/engine.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using jigsaw::CompiledMatrix;
using jigsaw::Engine;
using jigsaw::EngineConfig;
using jigsaw::EngineOptions;
namespace core = jigsaw::core;

constexpr std::size_t kModel = 1024;
constexpr std::size_t kHidden = 4096;
constexpr std::size_t kMatrices = 4;
constexpr std::size_t kBatchCols = 32;  // N of every request
constexpr std::size_t kPool = 4;        // activation batches per weight
constexpr double kSparsity = 0.90;
constexpr std::size_t kVector = 4;
constexpr std::size_t kPanelRows = 64;    // default BLOCK_TILE
constexpr std::size_t kDeltaEntries = 32;  // per dirty panel, two panels
constexpr int kReplayTrack = 99;

// ---- inputs ---------------------------------------------------------------

struct FfnInputs {
  std::vector<DenseMatrix<fp16_t>> weights;  ///< 4096x1024, 1024x4096, x2
  std::vector<std::vector<DenseMatrix<fp16_t>>> pool;  ///< [weight][batch]
  std::vector<std::vector<RefProduct>> refs;           ///< [weight][batch]
};

FfnInputs make_ffn_inputs(std::uint64_t seed) {
  FfnInputs in;
  for (std::size_t m = 0; m < kMatrices; ++m) {
    const bool up = m % 2 == 0;
    const std::size_t rows = up ? kHidden : kModel;
    const std::size_t cols = up ? kModel : kHidden;
    in.weights.push_back(make_pruned_weight(rows, cols, kSparsity, kVector,
                                            mix_seed(seed, 10 + m)));
    const RefWeight ref = to_ref(in.weights.back());
    in.pool.emplace_back();
    in.refs.emplace_back();
    for (std::size_t b = 0; b < kPool; ++b) {
      in.pool[m].push_back(
          make_activations(cols, kBatchCols, mix_seed(seed, 100 + 16 * m + b)));
      in.refs[m].push_back(reference_product(ref, in.pool[m][b]));
    }
  }
  return in;
}

// ---- set-up ---------------------------------------------------------------

struct Served {
  std::unique_ptr<Engine> engine;
  std::vector<std::shared_ptr<const CompiledMatrix>> handles;
};

/// Replays the layers Engine::compile runs inside (content hash, reorder,
/// format builds and their validation) as children of the compile span.
/// The number of reorders and builds is what the program's own counters
/// recorded for the real call.
void replay_compile(Tracer* tracer, std::uint64_t op, std::uint64_t parent,
                    const DenseMatrix<fp16_t>& a, const CompiledMatrix& cm,
                    int plans, int builds) {
  MetricsPause pause;
  {
    SpanScope s(tracer, "engine", "engine.hash", op, parent, 0, true);
    volatile std::uint64_t h = jigsaw::engine::matrix_content_hash(a);
    (void)h;
  }
  core::ReorderOptions ropts = cm.options.reorder;
  ropts.tile = cm.plan.reorders.at(0).tile;
  core::ReorderResult reorder;
  for (int i = 0; i < plans; ++i) {
    SpanScope s(tracer, "core/reorder", "reorder.plan", op, parent, 0, true);
    reorder = core::multi_granularity_reorder(a, ropts);
  }
  std::vector<core::JigsawFormat> formats;
  for (int i = 0; i < builds; ++i) {
    SpanScope s(tracer, "core/format", "format.build", op, parent, 0, true);
    formats.push_back(core::JigsawFormat::build(
        a, reorder, i % 2 == 0 ? core::MetadataLayout::kInterleaved
                               : core::MetadataLayout::kNaive));
  }
  for (const core::JigsawFormat& f : formats) {
    SpanScope s(tracer, "core/format", "format.validate", op, parent, 0, true);
    if (!f.validate().ok()) fatal("replayed format failed validation");
  }
}

/// One set-up: a cold planner memo, a fresh engine, every weight compiled.
/// Returns the wall seconds of the set-up in `*seconds`.
Served set_up(const FfnInputs& in, int workers, bool updatable,
              Tracer* tracer, double* seconds) {
  core::TileSearchCache::instance().clear();
  const double t0 = wall_s();
  Served s;
  EngineConfig config;
  config.worker_threads = workers;
  s.engine = std::make_unique<Engine>(config);
  EngineOptions options;
  options.compile.updatable = updatable;
  for (std::size_t m = 0; m < kMatrices; ++m) {
    const bool traced = tracer != nullptr;
    const std::uint64_t op = traced ? tracer->new_id() : 0;
    const double plans0 = traced ? counter_value("reorder.plans") : 0.0;
    const double builds0 = traced ? counter_value("format.builds") : 0.0;
    SpanScope span(tracer, "engine", "engine.compile", op, 0, 0);
    auto r = s.engine->compile(in.weights[m], options);
    span.close();
    if (!r.ok()) fatal("compile failed: " + r.status().to_string());
    if (r.value()->degraded) {
      fatal("weight " + std::to_string(m) +
            " degraded at compile; the workload needs every artifact on "
            "the SpTC path");
    }
    s.handles.push_back(r.value());
    if (traced) {
      replay_compile(tracer, op, span.id(), in.weights[m], *r.value(),
                     static_cast<int>(counter_value("reorder.plans") - plans0),
                     static_cast<int>(counter_value("format.builds") - builds0));
    }
  }
  *seconds = wall_s() - t0;
  return s;
}

/// kSetupReps untraced set-ups (their median is setup_s) and, in a traced
/// run, one more traced one. The last set-up is the one measured.
Served set_up_repeated(const FfnInputs& in, int workers, bool updatable,
                       Tracer* setup_tracer, std::vector<double>* samples) {
  Served s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Served{};  // release the previous engine outside the timed window
    double secs = 0.0;
    s = set_up(in, workers, updatable, nullptr, &secs);
    samples->push_back(secs);
    std::printf("set-up %d: %.4f s\n", rep + 1, secs);
  }
  if (setup_tracer != nullptr) {
    s = Served{};
    double secs = 0.0;
    jigsaw::obs::set_metrics_enabled(true);
    s = set_up(in, workers, updatable, setup_tracer, &secs);
    jigsaw::obs::set_metrics_enabled(false);
    std::printf("traced set-up: %.4f s (replays included)\n", secs);
  }
  return s;
}

// ---- request loops ---------------------------------------------------------

struct Request {
  std::uint64_t op = 0;
  std::uint64_t span = 0;
  std::size_t m = 0, b = 0;
  double start = 0.0;
  double seconds = 0.0;
};

struct Window {
  std::vector<Request> requests;
  std::uint64_t failed = 0;
  double wall = 0.0;
  double process_cpu = 0.0;
  double check_cpu = 0.0;  ///< benchmark-side checking, excluded from CPU/op
  double steal = 0.0;
};

/// Sleeps through the first half of a window, then checks that no thread
/// beyond the workload's own has appeared.
void mid_window_thread_check(double seconds, int expected) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
  require_thread_count(expected, "during the measured window");
}

/// Closed loop: `clients` threads, each submitting its next request once
/// the previous one is ready, until `seconds` have passed.
Window closed_loop(Served& s, const FfnInputs& in, int clients,
                   double seconds, std::uint64_t seed, Tracer* tracer) {
  Window w;
  std::vector<std::vector<Request>> per_client(clients);
  std::vector<std::uint64_t> failed(clients, 0);
  std::vector<double> check_cpu(clients, 0.0);
  const CpuTimes steal0 = read_cpu_times();
  const double cpu0 = process_cpu_s();
  const double t0 = wall_s();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(mix_seed(seed, 200 + c));
      while (wall_s() < deadline) {
        Request req;
        req.m = rng.below(kMatrices);
        req.b = rng.below(kPool);
        DenseMatrix<fp16_t> x = in.pool[req.m][req.b];
        req.op = tracer != nullptr ? tracer->new_id() : 0;
        SpanScope span(tracer, "engine", "engine.request", req.op, 0, c + 1);
        req.span = span.id();
        req.start = span.start();
        auto result = s.engine->submit(s.handles[req.m], std::move(x)).get();
        req.seconds = span.close();
        const double c0 = thread_cpu_s();
        if (!result.ok() || !matches(result.value(), in.refs[req.m][req.b])) {
          ++failed[c];
        }
        check_cpu[c] += thread_cpu_s() - c0;
        per_client[c].push_back(req);
      }
    });
  }
  mid_window_thread_check(seconds, 1 + s.engine->worker_count() + clients);
  for (std::thread& t : threads) t.join();
  w.wall = wall_s() - t0;
  w.process_cpu = process_cpu_s() - cpu0;
  w.steal = steal_share(steal0, read_cpu_times());
  for (int c = 0; c < clients; ++c) {
    w.requests.insert(w.requests.end(), per_client[c].begin(),
                      per_client[c].end());
    w.failed += failed[c];
    w.check_cpu += check_cpu[c];
  }
  return w;
}

std::vector<double> latencies(const std::vector<Request>& requests) {
  std::vector<double> v;
  v.reserve(requests.size());
  for (const Request& r : requests) v.push_back(r.seconds);
  return v;
}

/// Execute and kernel time of one (weight, batch) key. The work of a
/// request depends only on its key, so the keys are timed on their own,
/// after the windows so the calls do not load them, and every request of
/// a key gets its figures.
struct KeyTimes {
  double execute = 0.0;  ///< Engine::execute, median of kKeyCalls calls
  double compute = 0.0;  ///< core::jigsaw_compute_into, likewise
};
constexpr int kKeyCalls = 5;

std::size_t key_of(std::size_t m, std::size_t b) { return m * kPool + b; }

/// Times every key against `handles`, with a replayed span per call.
std::vector<KeyTimes> time_keys(
    Tracer* tracer, const Engine& engine, const FfnInputs& in,
    const std::vector<std::shared_ptr<const CompiledMatrix>>& handles) {
  MetricsPause pause;
  std::vector<KeyTimes> out(kMatrices * kPool);
  for (std::size_t m = 0; m < kMatrices; ++m) {
    const CompiledMatrix& h = *handles[m];
    for (std::size_t b = 0; b < kPool; ++b) {
      const DenseMatrix<fp16_t>& x = in.pool[m][b];
      const std::uint64_t op = tracer != nullptr ? tracer->new_id() : 0;
      std::vector<double> execs, computes;
      for (int i = 0; i < kKeyCalls; ++i) {
        SpanScope ex(tracer, "engine", "key.execute", op, 0, kReplayTrack, true);
        if (!engine.execute(h, x).ok()) fatal("replayed execute failed");
        execs.push_back(ex.close());
        DenseMatrix<float> c(h.rows, x.cols());
        SpanScope k(tracer, "core/kernel", "key.compute", op, 0, kReplayTrack,
                    true);
        core::jigsaw_compute_into(h.format(), x, c);
        computes.push_back(k.close());
      }
      out[key_of(m, b)] = {median(execs), median(computes)};
    }
  }
  return out;
}

/// Gives every request of a traced window its key's execute span and,
/// under it, its kernel span, both ending where the request ended. A
/// request's own engine time is then its latency minus its key's execute
/// time, and the execute's own time is execute minus compute.
void add_key_spans(Tracer* tracer, const std::vector<Request>& requests,
                   const std::vector<KeyTimes>& keys) {
  for (const Request& r : requests) {
    const KeyTimes& k = keys[key_of(r.m, r.b)];
    Span ex;
    ex.id = tracer->new_id();
    ex.parent = r.span;
    ex.op = r.op;
    ex.name = "engine.execute";
    ex.layer = "engine";
    ex.t1 = r.start + r.seconds;
    ex.t0 = ex.t1 - k.execute;
    ex.track = kReplayTrack;
    ex.replay = true;
    Span compute = ex;
    compute.id = tracer->new_id();
    compute.parent = ex.id;
    compute.name = "kernel.compute";
    compute.layer = "core/kernel";
    compute.t0 = compute.t1 - k.compute;
    tracer->record(ex);
    tracer->record(compute);
  }
}

void add_request_layers(LayerValues& v, const SpanSummary& window,
                        const std::vector<Request>& requests,
                        const std::vector<KeyTimes>& keys) {
  v["engine.request_ms.p50"] = p50_ms(window, "engine.request");
  v["engine.request_ms.p99"] = p99_ms(window, "engine.request");
  std::vector<double> waits;
  for (const Request& r : requests) {
    waits.push_back(std::max(0.0, r.seconds - keys[key_of(r.m, r.b)].execute));
  }
  v["engine.queue_wait_ms.p50"] = 1e3 * median(waits);
  v["engine.execute_ms.p50"] = p50_ms(window, "engine.execute");
  v["kernel.compute_ms"] = p50_ms(window, "kernel.compute");
}

/// Set-up layers of a traced set-up (compile spans and their replays).
void add_setup_layers(LayerValues& v, const SpanSummary& setup,
                      const PlanCounts& counts) {
  v["engine.compile_ms"] = mean_ms(setup, "engine.compile");
  v["engine.hash_ms"] = mean_ms(setup, "engine.hash");
  v["reorder.plan_ms"] = mean_ms(setup, "reorder.plan");
  v["format.build_ms"] = mean_ms(setup, "format.build");
  v["format.validate_ms"] = mean_ms(setup, "format.validate");
  add_plan_counts(v, counts, static_cast<double>(kMatrices));
}

/// Footprint, simulated device time and format byte split of the served
/// artifacts.
void add_artifact_metrics(RunResult& r, LayerValues* layers, const Engine& engine,
                          const std::vector<std::shared_ptr<const CompiledMatrix>>& handles) {
  double sim_us = 0.0, footprint = 0.0;
  for (std::size_t m = 0; m < handles.size(); ++m) {
    const CompiledMatrix& h = *handles[m];
    const jigsaw::gpusim::KernelReport report = engine.cost(h, kBatchCols);
    sim_us += report.duration_us;
    footprint += static_cast<double>(h.footprint_bytes);
    if (layers == nullptr) continue;
    add_gpusim(*layers, m, report, h.format().tile_config().block_tile_m);
    add_format_bytes(*layers, h.naive_format);
    add_format_bytes(*layers, h.interleaved_format);
    for (const core::JigsawFormat& f : h.plan.formats) add_format_bytes(*layers, f);
  }
  r.metrics["sim_device_us"] = sim_us;
  r.metrics["footprint_mib"] = footprint / (1024.0 * 1024.0);
}

void add_cache_layers(LayerValues& v, const Engine& engine) {
  const jigsaw::CacheStats c = engine.cache_stats();
  v["engine.cache.hits"] = static_cast<double>(c.hits);
  v["engine.cache.misses"] = static_cast<double>(c.misses);
  v["engine.cache.evictions"] = static_cast<double>(c.evictions);
  v["engine.cache.retired"] = static_cast<double>(c.retired);
}

// ---- open loop (serve_ffn traced run only) ---------------------------------

struct OpenLoop {
  double rate = 0.0;
  double seconds = 0.0;  ///< arrival window
  std::vector<double> latency;  ///< from each request's due time
  std::vector<double> lateness;  ///< generator: submit time minus due time
  std::vector<double> queue_wait;
  std::size_t backlog_end = 0;  ///< requests still in flight at the end
  bool growing = false;
  std::uint64_t attempted = 0, failed = 0;
};

/// Seeded Poisson arrivals at `rate`; a poller stamps completions.
OpenLoop open_loop(Served& s, const FfnInputs& in, double rate, double seconds,
                   std::uint64_t seed, const std::vector<KeyTimes>& keys) {
  struct Pending {
    double due = 0.0;
    std::size_t m = 0, b = 0;
    std::future<jigsaw::Result<DenseMatrix<float>>> result;
  };
  OpenLoop out;
  out.rate = rate;
  out.seconds = seconds;
  std::mutex mu;
  std::vector<Pending> pending;
  std::vector<std::size_t> in_flight;  // sampled at each arrival
  std::atomic<bool> done{false};
  const double t0 = wall_s();
  std::thread generator([&] {
    Rng rng(seed);
    double due = t0;
    for (;;) {
      due += -std::log(1.0 - rng.uniform()) / rate;
      if (due >= t0 + seconds) break;
      Pending p;
      p.due = due;
      p.m = rng.below(kMatrices);
      p.b = rng.below(kPool);
      DenseMatrix<fp16_t> x = in.pool[p.m][p.b];
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(due))));
      const double sent = wall_s();
      p.result = s.engine->submit(s.handles[p.m], std::move(x));
      std::lock_guard<std::mutex> lock(mu);
      out.lateness.push_back(sent - due);
      pending.push_back(std::move(p));
      in_flight.push_back(pending.size());
    }
    done = true;
  });
  std::vector<Pending> finished;
  std::vector<double> finished_at;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].result.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finished_at.push_back(wall_s());
          finished.push_back(std::move(pending[i]));
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (done && out.backlog_end == 0 && !pending.empty()) {
        out.backlog_end = pending.size();
      }
      if (done && pending.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  generator.join();
  for (std::size_t i = 0; i < finished.size(); ++i) {
    Pending& p = finished[i];
    auto r = p.result.get();
    ++out.attempted;
    if (!r.ok() || !matches(r.value(), in.refs[p.m][p.b])) ++out.failed;
    const double latency = finished_at[i] - p.due;
    out.latency.push_back(latency);
    out.queue_wait.push_back(
        std::max(0.0, latency - keys[key_of(p.m, p.b)].execute));
  }
  // The backlog grows when the last quarter of arrivals saw, on average,
  // more than twice as many requests in flight as the first half did, plus
  // one. A queue that grows linearly gives about 3.5 times as many; a
  // stable one about the same.
  if (in_flight.size() >= 8) {
    const std::size_t n = in_flight.size();
    double first_half = 0.0, last_quarter = 0.0;
    for (std::size_t i = 0; i < n / 2; ++i) first_half += in_flight[i];
    for (std::size_t i = n - n / 4; i < n; ++i) last_quarter += in_flight[i];
    out.growing = last_quarter / static_cast<double>(n / 4) >
                  2.0 * first_half / static_cast<double>(n / 2) + 1.0;
  }
  return out;
}

void add_open_loop(LayerValues& v, const std::string& name, const OpenLoop& o,
                   const std::vector<KeyTimes>& keys) {
  const std::string p = "openloop." + name;
  std::vector<double> execs;
  for (const KeyTimes& k : keys) execs.push_back(k.execute);
  v[p + ".p50_ms"] = 1e3 * median(o.latency);
  v[p + ".p99_ms"] = 1e3 * percentile(o.latency, 0.99);
  v[p + ".p999_ms"] = 1e3 * percentile(o.latency, 0.999);
  v[p + ".samples"] = static_cast<double>(o.latency.size());
  v[p + ".queue_wait_ms.p50"] = 1e3 * median(o.queue_wait);
  v[p + ".execute_ms.p50"] = 1e3 * median(execs);
  v[p + ".lateness_ms.p99"] = 1e3 * percentile(o.lateness, 0.99);
  v[p + ".backlog_end"] = static_cast<double>(o.backlog_end);
  std::printf("open loop %s: rate=%.0f/s p99.9=%.2f ms queue_wait_p50=%.2f ms "
              "lateness_p99=%.3f ms backlog_end=%zu%s\n",
              name.c_str(), o.rate, v[p + ".p999_ms"], v[p + ".queue_wait_ms.p50"],
              v[p + ".lateness_ms.p99"], o.backlog_end,
              o.growing ? " (backlog growing)" : "");
  print_latency(("open loop " + name).c_str(), o.latency, o.seconds);
}

constexpr double kOpenLoopRates[2] = {30.0, 60.0};
constexpr double kOpenLoopP99LimitMs = 100.0;

}  // namespace

// ---- serve_ffn ---------------------------------------------------------------

RunResult run_serve_ffn(const RunConfig& config) {
  const Threads threads = workload_threads("serve_ffn");
  const FfnInputs in = make_ffn_inputs(config.seed);
  RunResult r;

  Tracer setup_tracer, window_tracer, key_tracer;
  Tracer* st = config.trace ? &setup_tracer : nullptr;
  std::vector<double> setup_samples;
  const PlanCounts counts0 = PlanCounts::read();
  Served s = set_up_repeated(in, threads.engine_workers, false, st,
                             &setup_samples);
  const PlanCounts counts = PlanCounts::read().since(counts0);
  require_thread_count(1 + threads.engine_workers, "after set-up");

  // A traced run splits its time: untraced and traced closed loops, then
  // the two open-loop rates.
  const double window = config.trace ? config.seconds * 0.3 : config.seconds;
  const Window w = closed_loop(s, in, threads.client_threads, window,
                               config.seed, nullptr);
  const std::vector<double> lat = latencies(w.requests);
  const double n = static_cast<double>(w.requests.size());
  r.attempted = w.requests.size();
  r.failed = w.failed;
  r.metrics["setup_s"] = median(setup_samples);
  r.metrics["latency_min_ms"] = 1e3 * minimum(lat);
  r.metrics["read_min_ms"] = 1e3 * minimum(lat);
  print_latency("requests", lat, w.wall);
  std::printf("process CPU per request: %.3f ms (the benchmark's checking "
              "excluded)\n",
              n > 0 ? 1e3 * (w.process_cpu - w.check_cpu) / n : 0.0);
  std::printf("steal: %.2f%% of CPU time over the measured window\n",
              100.0 * w.steal);

  LayerValues& v = r.layers;
  add_artifact_metrics(r, config.trace ? &v : nullptr, *s.engine, s.handles);
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  if (!config.trace) return r;

  // Traced window: the same closed loop with spans, then the key timings.
  jigsaw::obs::set_metrics_enabled(true);
  const double allocs0 = counter_value("jigsaw.engine.submit.allocations");
  const double walks0 = cost_walks_total();
  const Window tw = closed_loop(s, in, threads.client_threads, window,
                                config.seed + 1, &window_tracer);
  v["engine.submit_allocations"] =
      counter_value("jigsaw.engine.submit.allocations") - allocs0;
  v["kernel.cost_walks_per_op"] =
      tw.requests.empty() ? 0.0 : (cost_walks_total() - walks0) / tw.requests.size();
  jigsaw::obs::set_metrics_enabled(false);
  r.attempted += tw.requests.size();
  r.failed += tw.failed;
  const std::vector<KeyTimes> keys =
      time_keys(&key_tracer, *s.engine, in, s.handles);
  add_key_spans(&window_tracer, tw.requests, keys);

  double best_rate = 0.0;
  const double ol_seconds = config.seconds * 0.2;
  for (int i = 0; i < 2; ++i) {
    const OpenLoop o = open_loop(s, in, kOpenLoopRates[i], ol_seconds,
                                 mix_seed(config.seed, 500 + i), keys);
    r.attempted += o.attempted;
    r.failed += o.failed;
    add_open_loop(v, i == 0 ? "low" : "high", o, keys);
    if (!o.growing && 1e3 * percentile(o.latency, 0.99) <= kOpenLoopP99LimitMs) {
      best_rate = std::max(best_rate, o.rate);
    }
  }
  std::printf("open loop: highest rate with p99 <= %.0f ms and no growing "
              "backlog: %.0f/s\n",
              kOpenLoopP99LimitMs, best_rate);
  v["openloop.max_rate_meeting_limit"] = best_rate;

  const SpanSummary setup = summarize(setup_tracer.spans());
  const SpanSummary win = summarize(window_tracer.spans());
  add_setup_layers(v, setup, counts);
  add_request_layers(v, win, tw.requests, keys);
  add_cache_layers(v, *s.engine);
  add_self_times(v, win, static_cast<double>(tw.requests.size()));
  const double traced_p50 = 1e3 * median(latencies(tw.requests));
  const double untraced_p50 = 1e3 * median(lat);
  v["trace.overhead_ms"] = traced_p50 - untraced_p50;
  v["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0);
  v["host.steal_pct"] = 100.0 * tw.steal;
  print_layer_table(setup, win, static_cast<double>(tw.requests.size()), v);
  write_trace(config.trace_out, {&setup_tracer, &window_tracer, &key_tracer});
  return r;
}

// ---- update_stream -----------------------------------------------------------

namespace {

struct EntryChange {
  std::uint32_t row = 0, col = 0;
  double old_value = 0.0, new_value = 0.0;
};

struct LoggedDelta {
  std::size_t m = 0;
  std::uint64_t generation = 0;  ///< the generation this delta produces
  std::vector<EntryChange> changes;
};

/// Deltas in the order the writer issued them; readers rebuild the
/// reference of the generation they were served from it.
class DeltaLog {
 public:
  void push(LoggedDelta d) {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(std::move(d));
  }
  void pop(std::size_t m, std::uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    log_.erase(std::remove_if(log_.begin(), log_.end(),
                              [&](const LoggedDelta& d) {
                                return d.m == m && d.generation == generation;
                              }),
               log_.end());
  }
  /// Changes of weight m that produced generations after..upto, in order.
  std::vector<EntryChange> changes(std::size_t m, std::uint64_t after,
                                   std::uint64_t upto) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<EntryChange> out;
    for (const LoggedDelta& d : log_) {
      if (d.m != m || d.generation <= after || d.generation > upto) continue;
      out.insert(out.end(), d.changes.begin(), d.changes.end());
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<LoggedDelta> log_;
};

/// 64 value-only changes clustered in two BLOCK_TILE row panels of one
/// weight: every touched entry is nonzero before and after.
LoggedDelta make_delta(const DenseMatrix<fp16_t>& w, std::size_t m, Rng& rng,
                       jigsaw::SparseDelta& delta) {
  LoggedDelta log;
  log.m = m;
  const std::size_t panels = w.rows() / kPanelRows;
  const std::size_t p1 = rng.below(panels);
  std::size_t p2 = rng.below(panels - 1);
  if (p2 >= p1) ++p2;
  for (const std::size_t p : {p1, p2}) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> taken;
    while (taken.size() < kDeltaEntries) {
      const auto row = static_cast<std::uint32_t>(p * kPanelRows + rng.below(kPanelRows));
      const auto col = static_cast<std::uint32_t>(rng.below(w.cols()));
      const fp16_t old = w(row, col);
      if (old.is_zero() || !taken.insert({row, col}).second) continue;
      fp16_t next = old;
      while (next.is_zero() || next.bits() == old.bits()) {
        next = fp16_t(static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
      delta.entries.push_back({row, col, next});
      log.changes.push_back({row, col, static_cast<float>(old),
                             static_cast<float>(next)});
    }
  }
  return log;
}

/// Replays the layers Engine::update runs inside: the content hash of the
/// mutated operand, the dirty-panel replan, the format splices and their
/// validation (as many as the program's counters recorded).
void replay_update(Tracer* tracer, std::uint64_t op, std::uint64_t parent,
                   const CompiledMatrix& base, const CompiledMatrix& next,
                   const DenseMatrix<fp16_t>& a2, const LoggedDelta& delta,
                   int rebuilds) {
  MetricsPause pause;
  {
    SpanScope s(tracer, "engine", "engine.hash", op, parent, 1, true);
    volatile std::uint64_t h = jigsaw::engine::matrix_content_hash(a2);
    (void)h;
  }
  const core::ReorderResult& base_reorder = base.plan.reorders.at(0);
  const std::size_t bt = static_cast<std::size_t>(base_reorder.tile.block_tile_m);
  std::vector<std::size_t> dirty;
  for (const EntryChange& c : delta.changes) dirty.push_back(c.row / bt);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  core::ReorderOptions ropts = base.options.reorder;
  ropts.tile = base_reorder.tile;
  core::ReorderResult reorder = base_reorder;
  {
    SpanScope s(tracer, "core/reorder", "reorder.replan", op, parent, 1, true);
    core::reorder_panels(a2, ropts, dirty, reorder);
  }
  for (int i = 0; i < rebuilds; ++i) {
    const core::JigsawFormat& f =
        i % 2 == 0 ? base.interleaved_format : base.naive_format;
    SpanScope s(tracer, "core/format", "format.rebuild", op, parent, 1, true);
    core::JigsawFormat spliced = f.rebuild_panels(a2, reorder, dirty);
    (void)spliced;
  }
  for (int i = 0; i < rebuilds; ++i) {
    const core::JigsawFormat& f =
        i % 2 == 0 ? next.interleaved_format : next.naive_format;
    SpanScope s(tracer, "core/format", "format.validate", op, parent, 1, true);
    if (!f.validate().ok()) fatal("replayed validation failed");
  }
}

struct UpdateWindow {
  std::vector<double> update_seconds, read_seconds;
  std::uint64_t updates_failed = 0, reads_failed = 0, stale_reads = 0;
  double panels_replanned = 0.0;
  double wall = 0.0, steal = 0.0;
  std::vector<Request> reads;
};

/// The reference product of one (weight, batch) pair at the newest
/// generation a read has been checked at; reads only move it forward.
struct ReadReference {
  std::uint64_t generation = 0;
  RefProduct product;
};

/// One writer streaming deltas through Engine::update beside one reader
/// submitting through Engine::latest. `heads` and `mirrors` carry the
/// newest generation and the benchmark's copy of each weight across
/// windows.
UpdateWindow update_loop(Served& s, const FfnInputs& in, double seconds,
                         std::uint64_t seed, Tracer* tracer,
                         std::vector<std::shared_ptr<const CompiledMatrix>>& heads,
                         std::vector<DenseMatrix<fp16_t>>& mirrors,
                         DeltaLog& log,
                         std::vector<std::vector<ReadReference>>& read_refs) {
  UpdateWindow w;
  std::vector<std::atomic<std::uint64_t>> published(kMatrices);
  for (std::size_t m = 0; m < kMatrices; ++m) published[m] = heads[m]->generation;
  const CpuTimes steal0 = read_cpu_times();
  const double t0 = wall_s();
  const double deadline = t0 + seconds;

  std::thread writer([&] {
    Rng rng(mix_seed(seed, 300));
    for (std::size_t i = 0; wall_s() < deadline; ++i) {
      const std::size_t m = i % kMatrices;
      jigsaw::SparseDelta delta;
      LoggedDelta logged = make_delta(mirrors[m], m, rng, delta);
      logged.generation = heads[m]->generation + 1;
      log.push(logged);
      const bool traced = tracer != nullptr;
      const std::uint64_t op = traced ? tracer->new_id() : 0;
      const double rebuilds0 = traced ? histogram_count("format.rebuild_seconds") : 0.0;
      const double replans0 =
          traced ? counter_value("jigsaw.engine.update.panels_replanned") : 0.0;
      SpanScope span(tracer, "engine", "engine.update", op, 0, 1);
      auto result = s.engine->update(heads[m], delta);
      const double secs = span.close();
      if (!result.ok() || result.value()->generation != logged.generation) {
        ++w.updates_failed;
        log.pop(m, logged.generation);
        continue;
      }
      const std::shared_ptr<const CompiledMatrix> base = heads[m];
      heads[m] = result.value();
      published[m] = logged.generation;
      for (const EntryChange& c : logged.changes) {
        mirrors[m](c.row, c.col) = fp16_t(static_cast<float>(c.new_value));
      }
      w.update_seconds.push_back(secs);
      if (traced) {
        w.panels_replanned +=
            counter_value("jigsaw.engine.update.panels_replanned") - replans0;
        replay_update(tracer, op, span.id(), *base, *heads[m], mirrors[m],
                      logged,
                      static_cast<int>(histogram_count("format.rebuild_seconds") -
                                       rebuilds0));
      }
    }
  });

  std::thread reader([&] {
    Rng rng(mix_seed(seed, 400));
    while (wall_s() < deadline) {
      Request req;
      req.m = rng.below(kMatrices);
      req.b = rng.below(kPool);
      const std::uint64_t floor = published[req.m].load();
      DenseMatrix<fp16_t> x = in.pool[req.m][req.b];
      req.op = tracer != nullptr ? tracer->new_id() : 0;
      SpanScope span(tracer, "engine", "engine.request", req.op, 0, 2);
      req.span = span.id();
      req.start = span.start();
      std::shared_ptr<const CompiledMatrix> h;
      {
        SpanScope latest(tracer, "engine", "engine.latest", req.op, req.span, 2);
        h = Engine::latest(s.handles[req.m]);
      }
      auto result = s.engine->submit(h, std::move(x)).get();
      req.seconds = span.close();
      w.read_seconds.push_back(req.seconds);
      w.reads.push_back(req);
      // A read served from a generation older than the last one published
      // before it was issued, or than one an earlier read saw, is a silent
      // rollback.
      ReadReference& ref = read_refs[req.m][req.b];
      if (h->generation < floor || h->generation < ref.generation) {
        ++w.stale_reads;
        ++w.reads_failed;
        continue;
      }
      for (const EntryChange& c : log.changes(req.m, ref.generation, h->generation)) {
        apply_entry_delta(ref.product, in.pool[req.m][req.b], c.row, c.col,
                          c.old_value, c.new_value);
      }
      ref.generation = h->generation;
      if (!result.ok() || !matches(result.value(), ref.product)) ++w.reads_failed;
    }
  });
  mid_window_thread_check(seconds, 3 + s.engine->worker_count());
  writer.join();
  reader.join();
  w.wall = wall_s() - t0;
  w.steal = steal_share(steal0, read_cpu_times());
  return w;
}

/// Final generation of every weight against the benchmark's mirror: the
/// retained operand bit for bit, and one product against the reference.
std::uint64_t verify_final(Served& s, const FfnInputs& in,
                           const std::vector<std::shared_ptr<const CompiledMatrix>>& heads,
                           const std::vector<DenseMatrix<fp16_t>>& mirrors) {
  std::uint64_t failed = 0;
  for (std::size_t m = 0; m < kMatrices; ++m) {
    const auto h = Engine::latest(s.handles[m]);
    bool ok = h->generation == heads[m]->generation &&
              h->lhs.rows() == mirrors[m].rows() && h->lhs.cols() == mirrors[m].cols();
    for (std::size_t i = 0; ok && i < mirrors[m].size(); ++i) {
      ok = h->lhs.data()[i].bits() == mirrors[m].data()[i].bits();
    }
    const auto r = s.engine->execute(*h, in.pool[m][0]);
    ok = ok && r.ok() &&
         matches(r.value(), reference_product(to_ref(mirrors[m]), in.pool[m][0]));
    if (!ok) {
      std::printf("final generation of weight %zu does not match its mirror\n", m);
      ++failed;
    }
  }
  return failed;
}

}  // namespace

RunResult run_update_stream(const RunConfig& config) {
  const Threads threads = workload_threads("update_stream");
  FfnInputs in = make_ffn_inputs(config.seed);
  std::vector<std::vector<ReadReference>> read_refs(kMatrices);
  for (std::size_t m = 0; m < kMatrices; ++m) {
    for (RefProduct& ref : in.refs[m]) read_refs[m].push_back({0, std::move(ref)});
  }
  in.refs.clear();
  RunResult r;

  Tracer setup_tracer, window_tracer;
  std::vector<double> setup_samples;
  const PlanCounts counts0 = PlanCounts::read();
  Served s = set_up_repeated(in, threads.engine_workers, true,
                             config.trace ? &setup_tracer : nullptr,
                             &setup_samples);
  const PlanCounts counts = PlanCounts::read().since(counts0);
  require_thread_count(1 + threads.engine_workers, "after set-up");

  std::vector<std::shared_ptr<const CompiledMatrix>> heads = s.handles;
  std::vector<DenseMatrix<fp16_t>> mirrors = in.weights;
  DeltaLog log;
  const double window = config.trace ? config.seconds * 0.5 : config.seconds;
  const UpdateWindow w =
      update_loop(s, in, window, config.seed, nullptr, heads, mirrors, log,
                  read_refs);
  r.attempted = w.update_seconds.size() + w.updates_failed + w.reads.size();
  r.failed = w.updates_failed + w.reads_failed;
  r.metrics["setup_s"] = median(setup_samples);
  r.metrics["latency_min_ms"] = 1e3 * minimum(w.update_seconds);
  r.metrics["read_min_ms"] = 1e3 * minimum(w.read_seconds);
  print_latency("updates", w.update_seconds, w.wall);
  print_latency("reads", w.read_seconds, w.wall);
  std::printf("stale reads: %llu; steal: %.2f%% of CPU time over the measured window\n",
              static_cast<unsigned long long>(w.stale_reads), 100.0 * w.steal);

  LayerValues& v = r.layers;
  UpdateWindow tw;
  if (config.trace) {
    jigsaw::obs::set_metrics_enabled(true);
    tw = update_loop(s, in, window, config.seed + 1, &window_tracer, heads,
                     mirrors, log, read_refs);
    jigsaw::obs::set_metrics_enabled(false);
    r.attempted += tw.update_seconds.size() + tw.updates_failed + tw.reads.size();
    r.failed += tw.updates_failed + tw.reads_failed;
  }
  r.attempted += kMatrices;
  r.failed += verify_final(s, in, heads, mirrors);
  add_artifact_metrics(r, config.trace ? &v : nullptr, *s.engine, heads);
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  if (!config.trace) return r;

  // Reads take their key's figures on the final generations: value-only
  // deltas leave the sparsity structure, and so the work of a product,
  // unchanged.
  Tracer key_tracer;
  const std::vector<KeyTimes> keys = time_keys(&key_tracer, *s.engine, in, heads);
  add_key_spans(&window_tracer, tw.reads, keys);
  const SpanSummary setup = summarize(setup_tracer.spans());
  const SpanSummary win = summarize(window_tracer.spans());
  add_setup_layers(v, setup, counts);
  add_request_layers(v, win, tw.reads, keys);
  add_cache_layers(v, *s.engine);
  v["engine.update_ms.p50"] = p50_ms(win, "engine.update");
  v["engine.update_ms.p99"] = p99_ms(win, "engine.update");
  v["engine.latest_us.p50"] = 1e3 * p50_ms(win, "engine.latest");
  v["engine.hash_ms"] = mean_ms(win, "engine.hash");
  v["reorder.replan_ms"] = mean_ms(win, "reorder.replan");
  v["reorder.panels_replanned"] = tw.panels_replanned;
  v["format.rebuild_ms"] = mean_ms(win, "format.rebuild");
  v["format.validate_ms"] = mean_ms(win, "format.validate");
  const double ops = static_cast<double>(tw.update_seconds.size() + tw.reads.size());
  add_self_times(v, win, ops);
  const double traced_p50 = 1e3 * median(tw.update_seconds);
  const double untraced_p50 = 1e3 * median(w.update_seconds);
  v["trace.overhead_ms"] = traced_p50 - untraced_p50;
  v["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0);
  v["host.steal_pct"] = 100.0 * tw.steal;
  print_layer_table(setup, win, ops, v);
  write_trace(config.trace_out, {&setup_tracer, &window_tracer, &key_tracer});
  return r;
}

}  // namespace perfbench
