#include "bench/e2e/harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "src/nn/simd/dispatch.h"
#include "src/util/config.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

extern char** environ;

namespace safeloc::bench {

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_qps,
                                     double duration_s) {
  if (!(rate_qps > 0.0) || !(duration_s >= 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate must be > 0");
  }
  util::Rng rng(seed);
  std::vector<double> schedule;
  schedule.reserve(static_cast<std::size_t>(rate_qps * duration_s * 1.05) + 16);
  const double horizon = rate_qps * duration_s;
  double unit_clock = 0.0;
  for (;;) {
    double u = rng.uniform();
    while (u >= 1.0) u = rng.uniform();  // guard log(0)
    unit_clock += -std::log1p(-u);
    if (unit_clock >= horizon) break;
    schedule.push_back(unit_clock / rate_qps);
  }
  return schedule;
}

double percentile_or_zero(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  return util::percentile(std::move(values), p);
}

double median(std::vector<double> values) {
  return percentile_or_zero(std::move(values), 50.0);
}

double windowed_percentile(const std::vector<double>& times_s,
                           const std::vector<double>& values, double window_s,
                           double p, std::size_t min_samples) {
  if (times_s.size() != values.size() || !(window_s > 0.0)) {
    throw std::invalid_argument("windowed_percentile: bad input");
  }
  std::map<long long, std::vector<double>> windows;
  for (std::size_t i = 0; i < times_s.size(); ++i) {
    windows[static_cast<long long>(std::floor(times_s[i] / window_s))]
        .push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& [index, samples] : windows) {
    if (samples.size() < min_samples) continue;
    per_window.push_back(util::percentile(std::move(samples), p));
  }
  return median(std::move(per_window));
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

/// What the calling thread is working on. Scopes do not nest: one thread
/// works on one request (or one training cell) at a time, so a single
/// per-thread slot suffices.
struct TraceContext {
  Tracer* tracer = nullptr;
  std::uint64_t trace = 0;
  bool sampled = false;
  /// Open spans of this thread's current request, root first.
  std::vector<std::int64_t> stack;
};

thread_local TraceContext t_slot;
thread_local TraceContext* t_current = nullptr;

}  // namespace

Tracer::RequestScope::RequestScope(Tracer& tracer, std::uint64_t trace,
                                   bool sampled, const char* root,
                                   Clock::time_point start)
    : previous_(t_current) {
  t_slot.tracer = &tracer;
  t_slot.trace = trace;
  t_slot.sampled = sampled;
  t_slot.stack.clear();
  if (sampled) {
    const sync::MutexLock lock(tracer.mutex_);
    root_ = static_cast<std::int64_t>(tracer.spans_.size());
    tracer.spans_.push_back(
        {trace, root, -1, tracer.us_since_origin(start), 0.0});
    t_slot.stack.push_back(root_);
  }
  t_current = &t_slot;
}

Tracer::RequestScope::~RequestScope() {
  t_slot.stack.clear();
  t_current = static_cast<TraceContext*>(previous_);
}

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  start_ = Clock::now();
  TraceContext* ctx = t_current;
  if (ctx != nullptr && ctx->tracer == tracer_ && ctx->sampled) {
    const sync::MutexLock lock(tracer_->mutex_);
    index_ = static_cast<std::int64_t>(tracer_->spans_.size());
    tracer_->spans_.push_back({ctx->trace, name_,
                               ctx->stack.empty() ? -1 : ctx->stack.back(),
                               tracer_->us_since_origin(start_), 0.0});
    ctx->stack.push_back(index_);
  }
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  TraceContext* ctx = t_current;
  const bool in_request = ctx != nullptr && ctx->tracer == tracer_;
  if (index_ >= 0) {
    {
      const sync::MutexLock lock(tracer_->mutex_);
      tracer_->spans_[static_cast<std::size_t>(index_)].end_us =
          tracer_->us_since_origin(end);
    }
    if (in_request && !ctx->stack.empty()) ctx->stack.pop_back();
  }
  tracer_->record_call(name_, micros(end - start_),
                       !in_request || ctx->sampled);
}

void Tracer::record_call(const char* name, double us, bool keep_sample) {
  const sync::MutexLock lock(mutex_);
  LayerStats& stats = layers_[name];
  ++stats.calls;
  stats.busy_s += us * 1e-6;
  if (keep_sample) stats.sampled_us.push_back(us);
}

std::int64_t Tracer::add(std::uint64_t trace, const char* name,
                         std::int64_t parent, Clock::time_point start,
                         Clock::time_point end) {
  std::int64_t index = 0;
  {
    const sync::MutexLock lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(
        {trace, name, parent, us_since_origin(start), us_since_origin(end)});
  }
  record_call(name, micros(end - start), /*keep_sample=*/true);
  return index;
}

void Tracer::end_root(std::int64_t index, Clock::time_point end) {
  if (index < 0) return;
  const sync::MutexLock lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = us_since_origin(end);
}

LayerStats Tracer::layer(const std::string& name) const {
  const sync::MutexLock lock(mutex_);
  const auto it = layers_.find(name);
  return it == layers_.end() ? LayerStats{} : it->second;
}

std::vector<SpanRecord> Tracer::spans() const {
  const sync::MutexLock lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::mean_self_us() const {
  return bench::mean_self_us(spans());
}

std::map<std::string, double> mean_self_us(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::map<std::string, std::pair<double, std::size_t>> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.end_us < span.start_us) continue;  // never closed
    std::vector<std::pair<double, double>> covered;
    for (const std::size_t c : children[i]) {
      const double lo = std::max(span.start_us, spans[c].start_us);
      const double hi = std::min(span.end_us, spans[c].end_us);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double reach = span.start_us;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) union_us += hi - from;
      reach = std::max(reach, hi);
    }
    auto& [sum, count] = totals[span.name];
    sum += (span.end_us - span.start_us) - union_us;
    ++count;
  }
  std::map<std::string, double> out;
  for (const auto& [name, total] : totals) {
    out[name] = total.first / static_cast<double>(total.second);
  }
  return out;
}

void Tracer::write_json(const std::string& path,
                        std::size_t max_traces) const {
  const std::vector<SpanRecord> all = spans();
  std::set<std::uint64_t> written;
  std::string json = "{\"schema\":\"safeloc.bench_trace/v1\",\"spans\":[";
  bool first = true;
  char buf[64];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (!written.count(s.trace)) {
      if (written.size() >= max_traces) continue;
      written.insert(s.trace);
    }
    if (!first) json += ',';
    first = false;
    json += "{\"id\":" + std::to_string(i) +
            ",\"trace\":" + std::to_string(s.trace) +
            ",\"name\":" + json_string(s.name) +
            ",\"parent\":" + std::to_string(s.parent);
    std::snprintf(buf, sizeof(buf), ",\"start_us\":%.3f,\"end_us\":%.3f}",
                  s.start_us, s.end_us);
    json += buf;
  }
  json += "],\"self_us\":{";
  first = true;
  for (const auto& [name, us] : bench::mean_self_us(all)) {
    if (!first) json += ',';
    first = false;
    json += json_string(name) + ":" + json_number(us);
  }
  json += "}}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

struct LoadGenerator::StepState {
  Clock::time_point start;
  /// Open loop: completion time of query j, microseconds after start.
  std::vector<double> done_us;
  /// Closed loop: completions per window.
  std::unique_ptr<std::atomic<std::uint64_t>[]> window_counts;
  std::size_t windows = 0;
  double window_s = 1.0;
  std::atomic<std::size_t> responses{0};
};

LoadGenerator::LoadGenerator(serve::LocalizationService& service,
                             const std::vector<serve::TimedQuery>& pool,
                             ResponseHook hook, Tracer* tracer)
    : service_(service), pool_(pool), hook_(std::move(hook)), tracer_(tracer) {
  if (pool_.empty()) throw std::invalid_argument("LoadGenerator: empty pool");
}

namespace {

/// Stage spans of one sampled response, laid out back to back so that the
/// last one ends at the completion callback (the engine reports durations,
/// not timestamps). Remote answers nest the shard's engine stages inside
/// the wire RPC.
void add_stage_spans(Tracer& tracer, std::uint64_t trace, std::int64_t root,
                     const serve::StageTimings& stages,
                     Clock::time_point done) {
  const auto us = [](double v) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(v));
  };
  Clock::time_point cursor = done;
  const auto back = [&](const char* name, double v, std::int64_t parent) {
    const Clock::time_point end = cursor;
    cursor -= us(v);
    return tracer.add(trace, name, parent, cursor, end);
  };
  std::int64_t engine_parent = root;
  if (stages.wire_rpc_us > 0.0) {
    back("wire.deserialize", stages.wire_deserialize_us, root);
    const Clock::time_point rpc_end = cursor;
    engine_parent = back("wire.rpc", stages.wire_rpc_us, root);
    back("wire.serialize", stages.wire_serialize_us, root);
    cursor = rpc_end;
  }
  back("query_engine.infer", stages.infer_us, engine_parent);
  back("query_engine.batch_form", stages.batch_form_us, engine_parent);
  back("query_engine.queue_wait", stages.queue_wait_us, engine_parent);
}

}  // namespace

void LoadGenerator::send(std::uint64_t id, std::size_t j,
                         Clock::time_point intended, StepState& state,
                         StepResult& result) {
  const std::size_t pool_index = static_cast<std::size_t>(id % pool_.size());
  const serve::TimedQuery& query = pool_[pool_index];
  const bool sampled = tracer_ != nullptr && id % Tracer::kSampleEvery == 0;
  std::optional<Tracer::RequestScope> scope;
  std::int64_t root = -1;
  if (tracer_ != nullptr) {
    scope.emplace(*tracer_, id, sampled, "request", intended);
    root = scope->root();
    if (sampled) {
      tracer_->add(id, "loadgen.late", root, intended, Clock::now());
    }
  }
  ++result.sent;
  try {
    const Tracer::Span span(tracer_, "service.submit");
    service_.submit(
        {query.building, query.x},
        [this, &state, j, pool_index, id, sampled, root](
            serve::Response response) {
          const Clock::time_point done = Clock::now();
          hook_(pool_index, response);
          if (!state.done_us.empty()) {
            state.done_us[j] = micros(done - state.start);
          }
          if (state.windows > 0) {
            const auto w = static_cast<std::size_t>(
                seconds(done - state.start) / state.window_s);
            if (w < state.windows) {
              state.window_counts[w].fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (sampled) {
            add_stage_spans(*tracer_, id, root, response.query.stages, done);
            tracer_->end_root(root, done);
          }
          state.responses.fetch_add(1, std::memory_order_acq_rel);
        });
  } catch (const std::exception& failure) {
    ++result.submit_errors;
    if (result.error.empty()) result.error = failure.what();
  }
}

StepResult LoadGenerator::open_loop(const std::vector<double>& schedule,
                                    double warmup_s) {
  StepResult result;
  StepState state;
  state.done_us.assign(schedule.size(), -1.0);
  std::vector<double> late_us(schedule.size(), 0.0);
  state.start = Clock::now();
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    const Clock::time_point target =
        state.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule[j]));
    Clock::time_point now = Clock::now();
    // Sleep through long gaps, spin through short ones: the OS timer slack
    // would otherwise make every send late by tens of microseconds.
    while (now < target) {
      if (target - now > std::chrono::microseconds(300)) {
        std::this_thread::sleep_for(target - now -
                                    std::chrono::microseconds(200));
      }
      now = Clock::now();
    }
    late_us[j] = micros(now - target);
    send(next_id_++, j, target, state, result);
  }
  service_.drain();
  result.responses = state.responses.load(std::memory_order_acquire);
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    if (schedule[j] < warmup_s || state.done_us[j] < 0.0) continue;
    result.intended_s.push_back(schedule[j] - warmup_s);
    result.latency_us.push_back(state.done_us[j] - schedule[j] * 1e6);
    result.late_us.push_back(late_us[j]);
  }
  return result;
}

StepResult LoadGenerator::closed_loop(double duration_s, double window_s,
                                      double warmup_s) {
  StepResult result;
  StepState state;
  // Whole windows in the step; the epsilon keeps 0.6 / 0.2 at 3.
  const auto whole = static_cast<std::size_t>(duration_s / window_s + 1e-9);
  state.window_s = window_s;
  state.windows = whole + 2;
  state.window_counts =
      std::make_unique<std::atomic<std::uint64_t>[]>(state.windows);
  state.start = Clock::now();
  const auto deadline =
      state.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(duration_s));
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) break;
    send(next_id_++, 0, now, state, result);
  }
  service_.drain();
  result.responses = state.responses.load(std::memory_order_acquire);
  // Windows before warmup_s are discarded; the one the deadline falls in
  // is partial.
  const auto first =
      static_cast<std::size_t>(std::ceil(warmup_s / window_s - 1e-9));
  for (std::size_t w = first; w < whole; ++w) {
    result.window_rate.push_back(
        static_cast<double>(
            state.window_counts[w].load(std::memory_order_relaxed)) /
        window_s);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Host shape and environment hygiene
// ---------------------------------------------------------------------------

HostShape host_shape() {
  HostShape host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  host.hardware_threads = std::thread::hardware_concurrency();
  host.kernel = nn::simd::variant_name(nn::simd::active_variant());
  host.kernel_env = util::env_string("SAFELOC_KERNEL");
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  return host;
}

std::vector<std::string> workload_changing_env() {
  // Everything that resizes training, changes thread counts or reshapes
  // the library's own tracing and histograms. SAFELOC_KERNEL is allowed
  // (results are bit-identical across variants) and recorded instead.
  constexpr std::string_view kPrefixes[] = {
      "SAFELOC_FAST=",   "SAFELOC_EPOCHS=",  "SAFELOC_ROUNDS=",
      "SAFELOC_REPEATS=", "SAFELOC_CLIENT_", "SAFELOC_THREADS=",
      "SAFELOC_TRACE_",  "SAFELOC_HIST_",    "SAFELOC_BUILDINGS="};
  std::vector<std::string> found;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string_view var(*entry);
    for (const std::string_view prefix : kPrefixes) {
      if (var.substr(0, prefix.size()) == prefix) {
        found.emplace_back(var.substr(0, var.find('=')));
        break;
      }
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace safeloc::bench
