// Measurement harness of the end-to-end benchmark (safeloc_bench): arrival
// schedules, latency estimators, the open- and closed-loop load generator,
// and the bench-side span tracer. Nothing here knows a workload; the
// workloads live in safeloc_bench.cpp and the tests in selftest.cpp.
//
// Latency convention (wrk2 / HdrHistogram "coordinated omission"): an
// open-loop step sends query j at step_start + schedule[j] whether or not
// earlier queries have completed, and its latency runs from that intended
// send time to the completion callback. A stall therefore shows up in the
// latency of every query scheduled during it, not only in the one query
// that hit it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/serve/service.h"
#include "src/serve/traffic.h"
#include "src/util/sync.h"

namespace safeloc::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double micros(Clock::duration d);
[[nodiscard]] double seconds(Clock::duration d);

// ---------------------------------------------------------------------------
// Schedules and estimators
// ---------------------------------------------------------------------------

/// Poisson arrival offsets (seconds from step start) at `rate_qps` over
/// [0, duration_s). The schedule is one unit-rate Poisson process drawn from
/// `seed` and divided by the rate, so every rate replays the same draws and
/// the count is exact and deterministic per (seed, rate, duration).
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_qps,
                                                   double duration_s);

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty input.
[[nodiscard]] double percentile_or_zero(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

/// Median over consecutive `window_s` windows of each window's p-th
/// percentile. Sample i falls in window floor(times_s[i] / window_s);
/// windows holding fewer than `min_samples` samples are skipped. 0 when no
/// window qualifies.
[[nodiscard]] double windowed_percentile(const std::vector<double>& times_s,
                                         const std::vector<double>& values,
                                         double window_s, double p,
                                         std::size_t min_samples);

// ---------------------------------------------------------------------------
// Tracer: spans at layer boundaries, recorded from the bench's own files
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t trace = 0;
  std::string name;
  /// Index of the parent span in the tracer's span list; -1 for a root.
  std::int64_t parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Per-layer call accounting. Every call is counted and timed; durations
/// are kept (for percentiles) only for calls made outside any request, or
/// inside a sampled one.
struct LayerStats {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  std::vector<double> sampled_us;
};

class Tracer {
 public:
  /// One request in kSampleEvery is sampled: its spans are recorded.
  static constexpr std::uint64_t kSampleEvery = 64;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Binds the calling thread to one request (or training group) for the
  /// scope's lifetime. When sampled, a root span named `root` opens at
  /// `start` and Span objects created on this thread become its children;
  /// close it with end_root() (possibly from another thread).
  class RequestScope {
   public:
    RequestScope(Tracer& tracer, std::uint64_t trace, bool sampled,
                 const char* root, Clock::time_point start);
    ~RequestScope();
    RequestScope(const RequestScope&) = delete;
    RequestScope& operator=(const RequestScope&) = delete;

    /// Root span index; -1 when not sampled.
    [[nodiscard]] std::int64_t root() const noexcept { return root_; }

   private:
    void* previous_;
    std::int64_t root_ = -1;
  };

  /// Times one call of layer `name` on the calling thread, from
  /// construction to destruction. Null tracer: does nothing.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    Clock::time_point start_;
    std::int64_t index_ = -1;
  };

  /// Appends a finished span with explicit times (stage spans rebuilt from
  /// QueryResult::stages on the completion thread). Returns its index.
  std::int64_t add(std::uint64_t trace, const char* name, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end);
  /// Closes a root span opened by a sampled RequestScope.
  void end_root(std::int64_t index, Clock::time_point end);

  [[nodiscard]] LayerStats layer(const std::string& name) const;
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Mean self time per span name: a span's duration minus the part of its
  /// interval its children cover.
  [[nodiscard]] std::map<std::string, double> mean_self_us() const;

  /// Writes {"schema":"safeloc.bench_trace/v1","spans":[...],
  /// "self_us":{...}}: the spans of the first `max_traces` traces (in
  /// recording order; a span's id is its index, parent refers to it) and
  /// the self times over every recorded span. Throws std::runtime_error on
  /// I/O failure.
  void write_json(const std::string& path, std::size_t max_traces) const;

 private:
  void record_call(const char* name, double us, bool keep_sample);
  [[nodiscard]] double us_since_origin(Clock::time_point t) const {
    return micros(t - origin_);
  }

  Clock::time_point origin_;
  mutable sync::Mutex mutex_;
  std::vector<SpanRecord> spans_ SAFELOC_GUARDED_BY(mutex_);
  std::map<std::string, LayerStats> layers_ SAFELOC_GUARDED_BY(mutex_);
};

/// Self times of a finished span list (exposed for the selftest).
[[nodiscard]] std::map<std::string, double> mean_self_us(
    const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

/// Called on the completion thread for every response, with the pool index
/// of the query it answers. Must be thread-safe.
using ResponseHook =
    std::function<void(std::size_t pool_index, const serve::Response&)>;

struct StepResult {
  std::size_t sent = 0;
  std::size_t responses = 0;
  /// submit() threw (the query never entered the fleet).
  std::size_t submit_errors = 0;
  /// Measured (post-warm-up) queries: intended send time relative to the
  /// end of warm-up, latency from the intended send time, and how late the
  /// generator actually sent.
  std::vector<double> intended_s;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  /// Closed loop: completions per measured window, per second.
  std::vector<double> window_rate;
  /// First submit() error message, if any.
  std::string error;
};

class LoadGenerator {
 public:
  /// `tracer` may be null (untraced run). The pool is cycled: query j of a
  /// step uses pool[(offset + j) % pool.size()].
  LoadGenerator(serve::LocalizationService& service,
                const std::vector<serve::TimedQuery>& pool, ResponseHook hook,
                Tracer* tracer);

  /// Open loop: query j is sent at start + schedule[j]; queries scheduled
  /// before warmup_s are sent but not measured. Drains before returning.
  StepResult open_loop(const std::vector<double>& schedule, double warmup_s);

  /// Closed loop: one sender submits back to back for duration_s, held
  /// back only by the backends' bounded queues. window_rate gets the
  /// completion rate of every whole window after warmup_s. Drains before
  /// returning.
  StepResult closed_loop(double duration_s, double window_s, double warmup_s);

 private:
  struct StepState;
  /// Submits query j of a step (pool index chosen by the generator).
  void send(std::uint64_t id, std::size_t j, Clock::time_point intended,
            StepState& state, StepResult& result);

  serve::LocalizationService& service_;
  const std::vector<serve::TimedQuery>& pool_;
  ResponseHook hook_;
  Tracer* tracer_;
  std::uint64_t next_id_ = 0;
};

// ---------------------------------------------------------------------------
// Host shape and environment hygiene
// ---------------------------------------------------------------------------

struct HostShape {
  unsigned nproc = 0;             ///< CPUs this process may run on
  unsigned hardware_threads = 0;  ///< std::thread::hardware_concurrency
  std::string kernel;             ///< selected nn::simd variant
  std::string kernel_env;         ///< SAFELOC_KERNEL as set ("" if unset)
  std::string compiler;
};

[[nodiscard]] HostShape host_shape();

/// Names of set SAFELOC_* variables that change what a workload does (run
/// scale, thread counts, tracing and histogram knobs). Empty when clean.
[[nodiscard]] std::vector<std::string> workload_changing_env();

/// JSON string literal with the minimal escaping the bench's own strings
/// need.
[[nodiscard]] std::string json_string(const std::string& s);
/// Number with every digit ("%.17g"); non-finite values become 0.
[[nodiscard]] std::string json_number(double v);

}  // namespace safeloc::bench
