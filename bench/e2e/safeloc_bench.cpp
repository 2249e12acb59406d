// safeloc_bench — the end-to-end benchmark: one command that trains, loads,
// serves and checks, and prints every metric by name with its unit.
//
//   safeloc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --out <result.json>
//
// Every workload runs the same pipeline, from training data to answered
// queries:
//
//   train    ScenarioEngine::run (2 threads, capture_final_gm) and
//            ModelStore::publish_run, kTrainings times, at pinned training
//            seeds; train_s is the median. The workload seed drives only
//            the traffic, and the models' localization error is exact per
//            code version.
//   set up   from the store file on disk to a service that accepts
//            queries, repeated kSetups times; setup_s is the median.
//   serve    one sender thread replays a pool of 65,536 TrafficGenerator
//            queries in two open-loop Poisson steps at frozen rates (low,
//            high). Latency runs from each query's intended send time to
//            its callback.
//   check    every answer must equal a SyncBackend reference for the model
//            version that answered it; every send gets a response; the gate
//            must catch the evasion queries and pass benign ones. Any
//            violation makes the run exit 1.
//
// With --trace 1 the run instead reports per-layer metrics: the serving
// layers are wrapped in the decorators of decorators.h, training is
// decomposed into the public calls the engine makes (and must reproduce
// the engine's models bit for bit), spans of every 64th request go to
// <out>.trace.json, and a closed-loop replay (one sender, held back only by
// the shards' bounded queues) measures peak throughput on an untraced and a
// traced service: the tracing overhead, beside traced against untraced
// train_s.
//
// The program writes its scratch files (store, partition map, shard
// sockets and logs) under <out>.work/ and removes them on exit.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/decorators.h"
#include "bench/e2e/harness.h"
#include "src/core/safeloc.h"
#include "src/engine/engine.h"
#include "src/eval/experiment.h"
#include "src/serve/admission.h"
#include "src/serve/model_store.h"
#include "src/serve/partition.h"
#include "src/serve/remote/remote_backend.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/serving_net.h"
#include "src/serve/traffic.h"

#ifndef SAFELOC_BENCH_SHARD_SERVER
#error "build must define SAFELOC_BENCH_SHARD_SERVER (see bench/e2e/CMakeLists.txt)"
#endif

namespace {

using namespace safeloc;
using bench::Clock;
using bench::Tracer;

/// The repository's fast training profile, pinned here so that the
/// SAFELOC_* run-scale knobs (which the bench refuses anyway) cannot move
/// it.
constexpr int kServerEpochs = 120;
constexpr int kRounds = 8;
constexpr int kTrainThreads = 2;
constexpr std::size_t kPoolSize = 65'536;
constexpr std::size_t kShards = 2;
constexpr int kSetups = 15;
/// train_s is the median of this many identical trainings: this shared
/// host slows down for a second or two now and then, which moved a single
/// training's time by up to 10%.
constexpr int kTrainings = 3;
/// publish_ms on the in-process workloads is the median of this many
/// publishes; 16 left single slow publishes visible in the median.
constexpr std::size_t kIdlePublishes = 64;
/// Latency percentiles are taken per window of ~2000 expected queries (so a
/// window's p99 has ~20 samples beyond it) and summarized by the median
/// over windows; closed-loop completion rates per 0.1 s window likewise.
/// This host's VM wakes a sleeping thread up to ~15 ms late several times a
/// second: short windows confine each such stall to few windows, so the
/// median reports the service, not the hypervisor. Whole-step tails are
/// reported beside it (loadgen.p999_us.*).
constexpr double kWindowQueries = 2000.0;
constexpr double kWindowS = 0.1;
constexpr double kPeakWarmupS = 0.5;
/// Traces (training cells first, then sampled requests) written to the
/// spans file; self times cover every sampled request.
constexpr std::size_t kWrittenTraces = 4096;
constexpr std::size_t kTopK = 3;
/// Training runs at pinned seeds (the engine's default and its successor),
/// so the quality metrics are exact: a change that keeps the arithmetic
/// reproduces them bit for bit. The workload seed drives only the traffic.
constexpr std::uint64_t kTrainSeed = 0x5afe10cULL;
constexpr std::uint64_t kTrainSeedV2 = 0x5afe10dULL;
/// Trace ids of training cells, kept apart from request ids.
constexpr std::uint64_t kTrainTraceBase = 1ULL << 40;

struct Workload {
  const char* name;
  std::vector<int> buildings;
  /// Paper six-client population with an FGSM eps = 0.3 attacker.
  bool fgsm_attacker = false;
  /// Trained versions per building (2: a second training seed).
  int versions = 1;
  bool gate = false;
  /// Share of queries carrying an eps = 0.3 evasion perturbation.
  double attack_fraction = 0.0;
  /// Two shard_server processes instead of in-process engines.
  bool fleet = false;
  /// Fixed open-loop rates, queries/s, measured once on the 4-vCPU host the
  /// README describes and frozen: low about 10% of the workload's
  /// closed-loop peak, high the highest rate (15-30% of peak) at which the
  /// step stayed steady across seeds. Re-deriving them per run would move
  /// the operating point with the code under test.
  double low_qps = 0.0;
  double high_qps = 0.0;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(4);
    w[0].name = "serve_local";
    w[0].buildings = {1, 2};
    w[0].low_qps = 70'000;
    w[0].high_qps = 130'000;

    w[1].name = "serve_gated";
    w[1].buildings = {1, 2};
    w[1].gate = true;
    w[1].attack_fraction = 0.2;
    w[1].low_qps = 18'000;
    w[1].high_qps = 45'000;

    w[2].name = "fleet_republish";
    w[2].buildings = {1, 2};
    w[2].versions = 2;
    w[2].fleet = true;
    w[2].low_qps = 39'000;
    w[2].high_qps = 60'000;

    w[3].name = "train_fl";
    w[3].buildings = {1, 2, 3, 4, 5};
    w[3].fgsm_attacker = true;
    w[3].gate = true;
    w[3].low_qps = 22'000;
    w[3].high_qps = 55'000;
    return w;
  }();
  return all;
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void violate(const std::string& what) { violations_.push_back(what); }
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return violations_.empty(); }

  void print(const std::string& workload) const {
    for (const Metric& m : metrics_) {
      std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                  bench::json_number(m.value).c_str(), m.unit.c_str());
    }
    for (const std::string& v : violations_) {
      std::printf("%s VIOLATION %s\n", workload.c_str(), v.c_str());
    }
    std::fflush(stdout);
  }

  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed, int seconds, bool trace) const {
    const bench::HostShape host = bench::host_shape();
    std::string json = "{\"schema\":\"safeloc.bench_result/v1\"";
    json += ",\"workload\":" + bench::json_string(workload);
    json += ",\"seed\":" + std::to_string(seed);
    json += ",\"seconds\":" + std::to_string(seconds);
    json += ",\"trace\":" + std::string(trace ? "1" : "0");
    json += ",\"host\":{\"nproc\":" + std::to_string(host.nproc) +
            ",\"hardware_threads\":" + std::to_string(host.hardware_threads) +
            ",\"kernel\":" + bench::json_string(host.kernel) +
            ",\"kernel_env\":" + bench::json_string(host.kernel_env) +
            ",\"compiler\":" + bench::json_string(host.compiler) + "}";
    json += ",\"correct\":" + std::string(correct() ? "true" : "false");
    json += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(
                                    attempted_, 1));
    json += ",\"failed\":" + std::to_string(failed_);
    json += ",\"violations\":[";
    for (std::size_t i = 0; i < violations_.size(); ++i) {
      if (i > 0) json += ',';
      json += bench::json_string(violations_[i]);
    }
    json += "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) json += ',';
      json += bench::json_string(metrics_[i].name) + ":{\"value\":" +
              bench::json_number(metrics_[i].value) +
              ",\"unit\":" + bench::json_string(metrics_[i].unit) + "}";
    }
    json += "}}\n";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!out) throw std::runtime_error("cannot write result file " + path);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double ms_since(Clock::time_point t0) {
  return bench::micros(Clock::now() - t0) / 1000.0;
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

engine::ScenarioGrid training_grid(const Workload& w) {
  engine::ScenarioGrid grid;
  engine::ScenarioSpec& base = grid.base();
  base.framework = "SAFELOC";
  base.server_epochs = kServerEpochs;
  base.rounds = kRounds;
  base.seed = kTrainSeed;
  if (w.fgsm_attacker) {
    base.attack.kind = attack::AttackKind::kFgsm;
    base.attack.epsilon = 0.3;
  }
  grid.buildings(w.buildings);
  if (w.versions == 2) grid.seeds({kTrainSeed, kTrainSeedV2});
  return grid;
}

struct Trained {
  engine::RunReport report;
  serve::ModelStore store;
  double seconds = 0.0;
};

Trained train(const engine::ScenarioGrid& grid) {
  Trained out;
  const Clock::time_point t0 = Clock::now();
  out.report = engine::ScenarioEngine{}.run(grid, kTrainThreads,
                                            /*capture_final_gm=*/true);
  out.store.publish_run(out.report);
  out.seconds = bench::seconds(Clock::now() - t0);
  return out;
}

/// What the traced decomposition produced per cell, for the comparison
/// with the engine's run.
struct TracedCell {
  engine::CellResult cell;
  double wall_s = 0.0;
};

/// The engine's per-cell work (engine.cpp and Experiment::run_scenario),
/// step by step through public calls, on the engine's thread count. Each
/// grid cell is its own pretrain group here, as in the engine for these
/// grids.
struct TracedTraining {
  std::vector<TracedCell> cells;
  serve::ModelStore store;
  double seconds = 0.0;
  std::uint64_t sanitize_scanned = 0;
  std::uint64_t sanitize_flagged = 0;
};

TracedCell run_cell_traced(const engine::ScenarioSpec& spec, Tracer& tracer,
                           std::uint64_t trace,
                           std::atomic<std::uint64_t>& scanned,
                           std::atomic<std::uint64_t>& flagged) {
  const Clock::time_point start = Clock::now();
  TracedCell out;
  Tracer::RequestScope scope(tracer, trace, /*sampled=*/true, "train.cell",
                             start);
  std::optional<eval::Experiment> experiment;
  {
    const Tracer::Span span(&tracer, "rss.synth");
    experiment.emplace(spec.building, spec.seed);
  }
  auto framework =
      engine::FrameworkRegistry::global().create(spec.framework, spec.options);
  {
    const Tracer::Span span(&tracer, "core.pretrain");
    experiment->pretrain(*framework, spec.resolved_server_epochs());
  }
  engine::CellResult& cell = out.cell;
  cell.spec = spec;
  {
    bench::TimedFramework timed(*framework, tracer);
    const Tracer::Span span(&tracer, "fl.run_federated");
    cell.fl = fl::run_federated(timed, experiment->generator(),
                                spec.fl_scenario());
    scanned.fetch_add(timed.scanned(), std::memory_order_relaxed);
    flagged.fetch_add(timed.flagged(), std::memory_order_relaxed);
  }
  {
    const Tracer::Span span(&tracer, "eval.evaluate");
    cell.errors_m = experiment->evaluate(*framework);
  }
  cell.stats = eval::error_stats(cell.errors_m);
  if (framework->wants_server_refresh()) {
    // Same collection salt as Experiment::run_scenario's capture path.
    rss::Dataset clean;
    {
      const Tracer::Span span(&tracer, "rss.synth");
      clean = rss::clean_collection(experiment->generator(), 1, 0xdecaf500ULL);
    }
    const Tracer::Span span(&tracer, "core.server_refresh");
    (void)framework->server_refresh(clean.x);
  }
  cell.final_gm = framework->snapshot();
  {
    const Tracer::Span span(&tracer, "eval.calibrate");
    cell.calibration = experiment->calibrate(*framework);
  }
  const Clock::time_point end = Clock::now();
  tracer.end_root(scope.root(), end);
  out.wall_s = bench::seconds(end - start);
  return out;
}

TracedTraining train_traced(const engine::ScenarioGrid& grid, Tracer& tracer) {
  const std::vector<engine::ScenarioSpec> specs = grid.expand();
  TracedTraining out;
  out.cells.resize(specs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> scanned{0};
  std::atomic<std::uint64_t> flagged{0};
  std::vector<std::string> errors(specs.size());
  const Clock::time_point t0 = Clock::now();
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) return;
      try {
        out.cells[i] = run_cell_traced(specs[i], tracer, kTrainTraceBase + i,
                                       scanned, flagged);
      } catch (const std::exception& failure) {
        errors[i] = failure.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kTrainThreads; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error("traced training: " + error);
  }
  for (const TracedCell& traced : out.cells) out.store.publish(traced.cell);
  out.seconds = bench::seconds(Clock::now() - t0);
  out.sanitize_scanned = scanned.load();
  out.sanitize_flagged = flagged.load();
  return out;
}

bool bit_identical(const nn::StateDict& a, const nn::StateDict& b) {
  if (a.tensor_count() != b.tensor_count()) return false;
  for (std::size_t i = 0; i < a.tensor_count(); ++i) {
    const nn::NamedTensor& x = a.tensor(i);
    const nn::NamedTensor& y = b.tensor(i);
    if (x.name != y.name || x.value.rows() != y.value.rows() ||
        x.value.cols() != y.value.cols() ||
        std::memcmp(x.value.data(), y.value.data(),
                    x.value.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reference answers and the response checker
// ---------------------------------------------------------------------------

struct Answer {
  int rp = -1;
  std::size_t n = 0;
  std::array<serve::RankedClass, kTopK> top{};
};

/// SyncBackend answers for every pool query under every trained version of
/// its building: the oracle every served answer is compared against.
class Reference {
 public:
  Reference(const serve::ModelStore& store,
            const std::vector<serve::TimedQuery>& pool) {
    for (const std::string& name : store.names()) {
      const std::uint32_t versions = store.latest(name).version;
      if (by_version_.size() < versions) {
        by_version_.resize(versions, std::vector<Answer>(pool.size()));
      }
      for (std::uint32_t v = 1; v <= versions; ++v) {
        const serve::ModelRecord& record = store.at(name, v);
        const int building = record.provenance.building;
        serve::SyncBackend backend(kTopK);
        backend.deploy(record);
        std::vector<Answer>& answers = by_version_[v - 1];
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (pool[i].building != building) continue;
          backend.submit(building, pool[i].x,
                         [&answer = answers[i]](serve::QueryResult result) {
                           answer.rp = result.rp;
                           answer.n = std::min(result.top_k.size(), kTopK);
                           std::copy_n(result.top_k.begin(), answer.n,
                                       answer.top.begin());
                         });
        }
      }
    }
  }

  /// nullptr when `version` was never trained.
  [[nodiscard]] const Answer* find(std::size_t pool_index,
                                   std::uint32_t version) const {
    if (version == 0 || version > by_version_.size()) return nullptr;
    return &by_version_[version - 1][pool_index];
  }

 private:
  std::vector<std::vector<Answer>> by_version_;
};

bool same_answer(const Answer& expected, const serve::QueryResult& got) {
  if (got.rp != expected.rp || got.top_k.size() != expected.n) return false;
  for (std::size_t k = 0; k < expected.n; ++k) {
    if (got.top_k[k].label != expected.top[k].label ||
        std::memcmp(&got.top_k[k].confidence, &expected.top[k].confidence,
                    sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// The response hook: compares each answer with the reference and keeps
/// the gate's flag counts. Runs on completion threads.
class Checker {
 public:
  Checker(const std::vector<serve::TimedQuery>& pool, const Reference& ref)
      : pool_(pool), ref_(ref) {}

  void operator()(std::size_t pool_index, const serve::Response& response) {
    const serve::TimedQuery& query = pool_[pool_index];
    const auto flagged = static_cast<std::uint64_t>(response.flagged);
    if (query.poisoned) {
      poisoned_.fetch_add(1, std::memory_order_relaxed);
      poisoned_flagged_.fetch_add(flagged, std::memory_order_relaxed);
    } else {
      benign_.fetch_add(1, std::memory_order_relaxed);
      benign_flagged_.fetch_add(flagged, std::memory_order_relaxed);
    }
    if (response.status == serve::Response::Status::kRejected) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (response.status == serve::Response::Status::kFailed) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      note("failed response: " + response.error);
      return;
    }
    const Answer* expected = ref_.find(pool_index, response.query.model_version);
    if (expected == nullptr || !same_answer(*expected, response.query)) {
      mismatched_.fetch_add(1, std::memory_order_relaxed);
      note("answer differs from the SyncBackend reference (building " +
           std::to_string(query.building) + ", version " +
           std::to_string(response.query.model_version) + ", pool index " +
           std::to_string(pool_index) + ")");
      return;
    }
    answered_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t mismatched() const { return mismatched_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_.load(); }
  [[nodiscard]] std::uint64_t answered() const { return answered_.load(); }
  [[nodiscard]] std::uint64_t poisoned() const { return poisoned_.load(); }
  [[nodiscard]] double gate_recall() const {
    const std::uint64_t n = poisoned_.load();
    return n == 0 ? 1.0
                  : static_cast<double>(poisoned_flagged_.load()) /
                        static_cast<double>(n);
  }
  [[nodiscard]] double benign_flag_rate() const {
    const std::uint64_t n = benign_.load();
    return n == 0 ? 0.0
                  : static_cast<double>(benign_flagged_.load()) /
                        static_cast<double>(n);
  }
  [[nodiscard]] std::string first_problem() const {
    const sync::MutexLock lock(mutex_);
    return first_problem_;
  }

 private:
  void note(const std::string& problem) {
    const sync::MutexLock lock(mutex_);
    if (first_problem_.empty()) first_problem_ = problem;
  }

  const std::vector<serve::TimedQuery>& pool_;
  const Reference& ref_;
  std::atomic<std::uint64_t> mismatched_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> benign_{0};
  std::atomic<std::uint64_t> benign_flagged_{0};
  std::atomic<std::uint64_t> poisoned_{0};
  std::atomic<std::uint64_t> poisoned_flagged_{0};
  mutable sync::Mutex mutex_;
  std::string first_problem_ SAFELOC_GUARDED_BY(mutex_);
};

// ---------------------------------------------------------------------------
// Shard fleet: shard_server children over unix sockets
// ---------------------------------------------------------------------------

/// Two shard_server children, one building each, spawned with a minimal
/// environment (only the SAFELOC_SHARD_* knobs, nothing inherited). They
/// share the bench's process group, which run.py kills after the bench
/// exits however it ends.
class Fleet {
 public:
  Fleet(const std::string& dir, int generation, const std::string& store_path,
        const std::string& partition_path) {
    try {
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::string stem =
            dir + "/g" + std::to_string(generation) + "s" + std::to_string(s);
        addresses_.push_back("unix:" + stem + ".sock");
        logs_.push_back(stem + ".log");
        pids_.push_back(spawn(s, store_path, partition_path));
      }
      for (std::size_t s = 0; s < kShards; ++s) wait_ready(s);
    } catch (...) {
      (void)shutdown();  // no destructor runs for a half-built Fleet
      throw;
    }
  }

  ~Fleet() { (void)shutdown(); }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] const std::vector<std::string>& addresses() const {
    return addresses_;
  }

  /// Stops every child (kShutdown, then SIGKILL after a grace period) and
  /// returns the sum of their peak resident sets, MiB.
  double shutdown() {
    for (std::size_t s = 0; s < pids_.size(); ++s) {
      if (pids_[s] <= 0) continue;
      try {
        serve::remote::request_shutdown(addresses_[s],
                                        std::chrono::seconds(5));
      } catch (const std::exception&) {
        // Reaped by the kill below.
      }
    }
    double rss_mb = 0.0;
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      struct rusage usage {};
      int status = 0;
      const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
      pid_t reaped = 0;
      while ((reaped = ::wait4(pid, &status, WNOHANG, &usage)) == 0 &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (reaped == 0) {
        ::kill(pid, SIGKILL);
        (void)::wait4(pid, &status, 0, &usage);
      }
      rss_mb += static_cast<double>(usage.ru_maxrss) / 1024.0;
      pid = 0;
    }
    return rss_mb;
  }

 private:
  pid_t spawn(std::size_t index, const std::string& store_path,
              const std::string& partition_path) {
    std::vector<std::string> env = {
        "SAFELOC_SHARD_ADDRESS=" + addresses_[index],
        "SAFELOC_SHARD_INDEX=" + std::to_string(index),
        "SAFELOC_SHARD_COUNT=" + std::to_string(kShards),
        "SAFELOC_SHARD_WORKERS=1",
        "SAFELOC_SHARD_STORE=" + store_path,
        "SAFELOC_SHARD_PARTITION=" + partition_path,
    };
    std::vector<char*> envp;
    for (std::string& entry : env) envp.push_back(entry.data());
    envp.push_back(nullptr);
    std::string exe = SAFELOC_BENCH_SHARD_SERVER;
    char* argv[] = {exe.data(), nullptr};
    // posix_spawn, not fork: forking copies the page tables of this
    // ~150 MB process, which alone took 0.3-1.2 ms per shard and varied
    // from run to run. The shard's output goes to its log file.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     logs_[index].c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                 argv, envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + exe + ": " +
                               std::strerror(rc));
    }
    return pid;
  }

  /// Waits for the child's "ready" line, printed after it has warm-loaded
  /// its owned models and is listening.
  void wait_ready(std::size_t index) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      std::ifstream in(logs_[index]);
      std::stringstream text;
      text << in.rdbuf();
      if (text.str().find("shard_server: ready") != std::string::npos) return;
      int status = 0;
      if (::waitpid(pids_[index], &status, WNOHANG) == pids_[index]) {
        pids_[index] = 0;
        throw std::runtime_error("shard_server " + std::to_string(index) +
                                 " exited during start-up: " + text.str());
      }
      if (Clock::now() > deadline) {
        throw std::runtime_error("shard_server " + std::to_string(index) +
                                 " not ready after 60 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  std::vector<std::string> addresses_;
  std::vector<std::string> logs_;
  std::vector<pid_t> pids_;
};

// ---------------------------------------------------------------------------
// Service bring-up
// ---------------------------------------------------------------------------

struct Serving {
  // Declared first so it is destroyed last: the shards outlive the
  // service's connections to them.
  std::unique_ptr<Fleet> fleet;
  serve::ModelStore store;
  std::unique_ptr<serve::LocalizationService> service;

  /// Tears the service down; returns the fleet's peak RSS sum (0 when
  /// serving in process).
  double close() {
    service.reset();
    return fleet ? fleet->shutdown() : 0.0;
  }
};

struct Paths {
  std::string dir;
  std::string store;
  std::string partition;
};

serve::PartitionMap one_building_per_shard(const Workload& w) {
  serve::PartitionMap partition;
  partition.shards = static_cast<std::uint32_t>(kShards);
  for (std::size_t i = 0; i < w.buildings.size(); ++i) {
    partition.owner[w.buildings[i]] = static_cast<std::uint32_t>(i % kShards);
  }
  return partition;
}

/// From the store file on disk to a service that accepts queries.
Serving bring_up(const Workload& w, const Paths& paths, int generation,
                 Tracer* tracer) {
  Serving s;
  {
    const Tracer::Span span(tracer, "store.load");
    s.store = serve::ModelStore::load_file(paths.store);
  }
  std::vector<std::unique_ptr<serve::QueryBackend>> backends;
  if (w.fleet) {
    s.fleet = std::make_unique<Fleet>(paths.dir, generation, paths.store,
                                      paths.partition);
    for (const std::string& address : s.fleet->addresses()) {
      serve::remote::RemoteBackendConfig config;
      config.address = address;
      config.connect_retries = 200;
      config.retry_backoff = std::chrono::milliseconds(5);
      config.pool_size = 2;
      config.max_in_flight = 32;
      config.max_batch = 16;
      backends.push_back(
          std::make_unique<serve::remote::RemoteBackend>(config));
    }
  } else {
    serve::QueryEngineConfig config;
    config.workers = 1;
    config.max_batch = 64;
    config.batch_window = std::chrono::microseconds(100);
    config.top_k = kTopK;
    config.queue_capacity = 4096;
    for (std::size_t i = 0; i < kShards; ++i) {
      backends.push_back(std::make_unique<serve::QueryEngine>(config));
    }
  }
  if (tracer != nullptr) {
    for (std::size_t i = 0; i < backends.size(); ++i) {
      backends[i] = std::make_unique<bench::TracedBackend>(
          std::move(backends[i]), *tracer, "shard" + std::to_string(i));
    }
  }
  s.service = std::make_unique<serve::LocalizationService>(std::move(backends));
  std::unique_ptr<serve::Router> router;
  if (w.fleet) {
    const serve::PartitionMap partition =
        serve::PartitionMap::load_file(paths.partition);
    s.service->set_partition(partition);
    router = std::make_unique<serve::PartitionRouter>(partition);
  } else {
    router = std::make_unique<serve::HashRouter>();
  }
  if (tracer != nullptr) {
    router = std::make_unique<bench::TracedRouter>(std::move(router), *tracer);
  }
  s.service->set_router(std::move(router));
  if (w.gate) {
    std::unique_ptr<serve::AdmissionPolicy> gate =
        std::make_unique<serve::PoisonGate>();
    if (tracer != nullptr) {
      gate = std::make_unique<bench::TracedAdmission>(std::move(gate), *tracer);
    }
    s.service->add_admission(std::move(gate));
  }
  s.service->publish_latest(s.store);
  return s;
}

// ---------------------------------------------------------------------------
// Publishing beside traffic
// ---------------------------------------------------------------------------

/// Publishes one record every `interval` on its own thread until stopped,
/// alternating the trained versions of each building (v1, v2, v1, ...).
class Republisher {
 public:
  Republisher(serve::LocalizationService& service,
              const serve::ModelStore& store, std::chrono::microseconds interval)
      : service_(service), store_(store), interval_(interval),
        thread_([this] { loop(); }) {}

  ~Republisher() { stop(); }

  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Wall time of each publish, ms. Valid after stop().
  [[nodiscard]] const std::vector<double>& publish_ms() const {
    return publish_ms_;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void loop() {
    const std::vector<std::string> names = store_.names();
    Clock::time_point next = Clock::now() + interval_;
    for (std::size_t i = 0; !stop_.load(); ++i) {
      while (!stop_.load() && Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stop_.load()) break;
      next += interval_;
      const std::string& name = names[i % names.size()];
      const std::uint32_t versions = store_.latest(name).version;
      // Each building's first republish moves it off the version
      // publish_latest installed.
      const std::uint32_t version =
          static_cast<std::uint32_t>((i / names.size()) % versions) + 1;
      try {
        const Clock::time_point t0 = Clock::now();
        service_.publish(store_.at(name, version));
        publish_ms_.push_back(ms_since(t0));
      } catch (const std::exception& failure) {
        error_ = failure.what();
        return;
      }
    }
  }

  serve::LocalizationService& service_;
  const serve::ModelStore& store_;
  std::chrono::microseconds interval_;
  std::atomic<bool> stop_{false};
  // Written only by the publishing thread, read after join().
  std::vector<double> publish_ms_;
  std::string error_;
  std::thread thread_;
};

/// Publishes the buildings' latest records in turn, kIdlePublishes times in
/// all, on an idle service (the in-process workloads publish only at
/// set-up).
std::vector<double> publish_idle(serve::LocalizationService& service,
                                 const serve::ModelStore& store) {
  const std::vector<std::string> names = store.names();
  std::vector<double> ms;
  for (std::size_t i = 0; i < kIdlePublishes; ++i) {
    const Clock::time_point t0 = Clock::now();
    service.publish(store.latest(names[i % names.size()]));
    ms.push_back(ms_since(t0));
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Inside inference: ServingNet / nn::simd microtimings
// ---------------------------------------------------------------------------

/// Median per-call microseconds of `call`, over samples of `batch`
/// back-to-back calls each (so that sub-microsecond calls are not measured
/// at the clock's resolution), repeated for ~budget_s.
template <typename Call>
double time_call(double budget_s, int batch, Call&& call) {
  std::vector<double> samples;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  while (samples.size() < 64 ||
         (Clock::now() < stop && samples.size() < 100'000)) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) call();
    samples.push_back(bench::micros(Clock::now() - t0) / batch);
  }
  return bench::median(std::move(samples));
}

/// Times each classifier Dense step's GEMM and bias/ReLU epilogue, the
/// whole ServingNet forward, the RCE pass and the top-k scan on `record`'s
/// deployed weights at `rows` queries per batch, with operation counts and
/// computed bytes (from tensor sizes) per call.
void inference_microtimings(const serve::ModelRecord& record,
                            const std::vector<serve::TimedQuery>& pool,
                            std::size_t rows, Report& report) {
  const int building = record.provenance.building;
  nn::Matrix x(rows, rss::kFeatureDim);
  std::size_t filled = 0;
  for (const serve::TimedQuery& q : pool) {
    if (filled == rows) break;
    if (q.building != building || q.poisoned) continue;
    std::copy(q.x.begin(), q.x.end(), x.data() + filled * rss::kFeatureDim);
    ++filled;
  }
  // The classifier chain ServingNet::from_state(kClassifier) extracts:
  // (w, b) pairs in dict order, decoder tensors skipped, ReLU between all
  // but the last step.
  std::vector<std::pair<const nn::Matrix*, const nn::Matrix*>> steps;
  const nn::StateDict& state = record.state;
  for (std::size_t i = 0; i + 1 < state.tensor_count(); ++i) {
    const std::string& name = state.tensor(i).name;
    if (name.rfind("dec", 0) == 0 || name.size() < 2 ||
        name.compare(name.size() - 2, 2, ".w") != 0) {
      continue;
    }
    steps.emplace_back(&state.tensor(i).value, &state.tensor(i + 1).value);
  }
  constexpr double kBudget = 0.1;
  const double m = static_cast<double>(rows);
  nn::Matrix current = x;
  double total_flops = 0.0;
  double total_bytes = 0.0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const nn::Matrix& w = *steps[s].first;
    const nn::Matrix& b = *steps[s].second;
    const bool relu = s + 1 < steps.size();
    const double k = static_cast<double>(w.rows());
    const double n = static_cast<double>(w.cols());
    nn::Matrix y;
    const double gemm_us = time_call(
        kBudget, 2, [&] { nn::matmul_into_auto(current, w, y); });
    // The epilogue's cost does not depend on the values, so it is timed
    // in place on a scratch copy; the chain continues from one clean pass.
    nn::Matrix scratch = y;
    const double epilogue_us = time_call(
        kBudget, 32, [&] { nn::bias_act_rows(scratch, b, relu); });
    nn::bias_act_rows(y, b, relu);
    const std::string prefix = "nn.dense" + std::to_string(s);
    const double gemm_flops = 2.0 * m * k * n;
    const double gemm_bytes = 4.0 * (m * k + k * n + m * n);
    const double epi_flops = m * n * (relu ? 2.0 : 1.0);
    const double epi_bytes = 4.0 * (2.0 * m * n + n);
    report.add(prefix + ".matmul_us", gemm_us, "us");
    report.add(prefix + ".matmul_flops", gemm_flops, "flop");
    report.add(prefix + ".matmul_bytes", gemm_bytes, "B");
    report.add(prefix + ".bias_act_us", epilogue_us, "us");
    report.add(prefix + ".bias_act_flops", epi_flops, "flop");
    report.add(prefix + ".bias_act_bytes", epi_bytes, "B");
    total_flops += gemm_flops + epi_flops;
    total_bytes += gemm_bytes + epi_bytes;
    current = y;
  }
  report.add("nn.batch_rows", m, "count");

  const serve::ServingNet net = serve::ServingNet::from_state(state);
  serve::InferenceWorkspace ws;
  report.add("serving_net.logits_us",
             time_call(kBudget, 1, [&] { (void)net.logits(x, ws); }), "us");
  report.add("serving_net.logits_flops", total_flops, "flop");
  report.add("serving_net.logits_bytes", total_bytes, "B");

  nn::Matrix probs = net.logits(x);
  serve::softmax_rows_inplace(probs);
  const double classes = static_cast<double>(probs.cols());
  std::size_t row = 0;
  report.add("serving_net.top_k_us",
             time_call(kBudget, 32,
                       [&] {
                         row = (row + 1) % rows;
                         (void)serve::top_k_classes(probs.row(row), kTopK);
                       }),
             "us");
  report.add("serving_net.top_k_flops", classes, "flop");
  report.add("serving_net.top_k_bytes", 4.0 * classes, "B");

  if (serve::ServingNet::has_decoder(state)) {
    const serve::ServingNet recon = serve::ServingNet::from_state(
        state, serve::ServingNet::Head::kReconstruction);
    serve::InferenceWorkspace recon_ws;
    report.add("serving_net.reconstruction_rms_us",
               time_call(kBudget, 1,
                         [&] {
                           (void)serve::reconstruction_rms(recon, x, recon_ws);
                         }),
               "us");
    // The gate's shape today: one query per call on the caller's thread.
    const nn::Matrix one = x.slice_rows(0, 1);
    report.add("serving_net.reconstruction_rms_us.row1",
               time_call(kBudget, 4,
                         [&] {
                           (void)serve::reconstruction_rms(recon, one,
                                                           recon_ws);
                         }),
               "us");
    const double params = static_cast<double>(recon.parameter_count());
    const double d = static_cast<double>(rss::kFeatureDim);
    report.add("serving_net.reconstruction_rms_flops",
               2.0 * m * params + 3.0 * m * d, "flop");
    report.add("serving_net.reconstruction_rms_bytes",
               4.0 * (params + 3.0 * m * d), "B");
  }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out;
};

struct Phases {
  double peak_s;
  double warmup_s;
  double step_s;
};

/// An untraced run spends --seconds on the two fixed-rate steps; a traced
/// run adds two closed-loop phases (untraced and traced service) for the
/// tracing overhead.
Phases phases_for(int seconds) {
  const double r = static_cast<double>(seconds);
  return {std::max(2.0, 0.25 * r), 0.025 * r, 0.475 * r};
}

struct Traffic {
  std::vector<serve::TimedQuery> pool;
  std::vector<double> low;
  std::vector<double> high;
};

Traffic make_traffic(const Workload& w, std::uint64_t seed, const Phases& p) {
  Traffic t;
  serve::TrafficConfig config;
  config.buildings = w.buildings;
  config.seed = seed;
  config.attack_fraction = w.attack_fraction;
  config.attack_epsilon = 0.3;
  t.pool = serve::TrafficGenerator(config).generate(kPoolSize);
  const double step = p.warmup_s + p.step_s;
  t.low = bench::poisson_schedule(seed * 2 + 1, w.low_qps, step);
  t.high = bench::poisson_schedule(seed * 2 + 1, w.high_qps, step);
  return t;
}

/// Checks a drained step: every send answered, no submit errors.
void check_step(const char* step, const bench::StepResult& r, Report& report) {
  report.attempt(r.sent);
  const std::size_t missing = r.sent - std::min(r.sent, r.responses +
                                                            r.submit_errors);
  report.fail(missing + r.submit_errors);
  if (r.submit_errors > 0) {
    report.violate(std::string(step) + ": " + std::to_string(r.submit_errors) +
                   " submit errors, first: " + r.error);
  }
  if (missing > 0) {
    report.violate(std::string(step) + ": " + std::to_string(missing) +
                   " of " + std::to_string(r.sent) + " sends got no response");
  }
}

struct OpenLoop {
  double p50_us;
  double p99_us;
};

OpenLoop summarize(const bench::StepResult& r, double rate_qps) {
  const double window_s = kWindowQueries / rate_qps;
  // A window's p99 needs >= 1000 samples to have ten beyond it.
  return {bench::windowed_percentile(r.intended_s, r.latency_us, window_s,
                                     50.0, 100),
          bench::windowed_percentile(r.intended_s, r.latency_us, window_s,
                                     99.0, 1000)};
}

double peak_rss_self_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void report_checker(const Workload& w, const Checker& checker, Report& report) {
  report.fail(checker.failed() + checker.rejected());
  if (checker.mismatched() > 0) {
    report.violate(std::to_string(checker.mismatched()) +
                   " answers differ from the reference; first: " +
                   checker.first_problem());
  }
  if (checker.failed() > 0 || checker.rejected() > 0) {
    report.violate(std::to_string(checker.failed()) + " failed and " +
                   std::to_string(checker.rejected()) +
                   " rejected responses; first: " + checker.first_problem());
  }
  if (w.gate) {
    if (checker.benign_flag_rate() > 0.01) {
      report.violate("gate flags " + std::to_string(checker.benign_flag_rate()) +
                     " of benign queries (limit 0.01)");
    }
    if (checker.poisoned() > 0 && checker.gate_recall() < 0.95) {
      report.violate("gate recall " + std::to_string(checker.gate_recall()) +
                     " (limit 0.95)");
    }
  }
  if (checker.answered() == 0) report.violate("no query was answered");
}

/// Localization error of the trained models under the paper's protocol
/// (every non-reference test device of every trained building, pooled),
/// and the clean-RCE p99 their gates calibrate from.
void report_quality(const engine::RunReport& trained, Report& report) {
  std::vector<double> errors;
  double rce_p99 = 0.0;
  for (const engine::CellResult& cell : trained.cells) {
    errors.insert(errors.end(), cell.errors_m.begin(), cell.errors_m.end());
    rce_p99 = std::max(rce_p99, static_cast<double>(cell.calibration.rce_p99));
  }
  const eval::ErrorStats stats = eval::error_stats(errors);
  report.add("loc_err_mean_m", stats.mean_m, "m");
  report.add("loc_err_worst_m", stats.worst_m, "m");
  report.add("clean_rce_p99", rce_p99, "1");
}

void report_layer_times(const Tracer& tracer, const std::string& layer,
                        const std::string& prefix, Report& report,
                        bool p99 = true) {
  const bench::LayerStats stats = tracer.layer(layer);
  report.add(prefix + ".p50", bench::percentile_or_zero(stats.sampled_us, 50.0),
             "us");
  if (p99) {
    report.add(prefix + ".p99",
               bench::percentile_or_zero(stats.sampled_us, 99.0), "us");
  }
}

/// The per-layer metrics of a traced run's fixed-rate steps, their spans
/// file and mean self times. Returns the engines' mean batch fill.
double report_layers(const Tracer& tracer,
                     const serve::LocalizationService::Stats& stats,
                     const bench::StepResult& low,
                     const bench::StepResult& high,
                     const std::vector<double>& publish_ms,
                     bool publish_failed, const std::string& trace_path,
                     Report& report) {
  std::vector<double> late = low.late_us;
  late.insert(late.end(), high.late_us.begin(), high.late_us.end());
  report.add("loadgen.sent", static_cast<double>(low.sent + high.sent),
             "count");
  report.add("loadgen.late_p99_us", bench::percentile_or_zero(late, 99.0),
             "us");
  report.add("loadgen.late_max_us",
             late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
             "us");
  report.add("loadgen.p999_us.low",
             bench::percentile_or_zero(low.latency_us, 99.9), "us");
  report.add("loadgen.p999_us.high",
             bench::percentile_or_zero(high.latency_us, 99.9), "us");

  report_layer_times(tracer, "service.submit", "service.submit_us", report);
  report.add("service.flagged", static_cast<double>(stats.flagged), "count");
  report.add("service.failed", static_cast<double>(stats.failed), "count");

  const bench::LayerStats inspect = tracer.layer("admission.inspect");
  report_layer_times(tracer, "admission.inspect", "admission.inspect_us",
                     report);
  report.add("admission.calls", static_cast<double>(inspect.calls), "count");
  report.add("admission.busy_s", inspect.busy_s, "s");
  report.add("admission.flagged_rce", static_cast<double>(stats.flagged_rce),
             "count");
  report.add("admission.flagged_envelope",
             static_cast<double>(stats.flagged_envelope), "count");

  report_layer_times(tracer, "router.route", "router.route_us", report,
                     /*p99=*/false);
  {
    std::uint64_t total = 0, most = 0;
    for (const std::uint64_t r : stats.routed) {
      total += r;
      most = std::max(most, r);
    }
    report.add("router.imbalance",
               total == 0 ? 0.0
                          : static_cast<double>(most) * stats.routed.size() /
                                static_cast<double>(total),
               "ratio");
  }

  report_layer_times(tracer, "backend.submit",
                     "query_engine.backend.submit_us", report);
  for (const char* stage : {"queue_wait", "batch_form", "infer"}) {
    const std::string layer = std::string("query_engine.") + stage;
    report_layer_times(tracer, layer, layer + "_us", report);
  }
  {
    const std::vector<double> waits =
        tracer.layer("query_engine.queue_wait").sampled_us;
    double sum = 0.0;
    for (const double v : waits) sum += v;
    report.add("query_engine.queue_wait_us.mean",
               waits.empty() ? 0.0 : sum / static_cast<double>(waits.size()),
               "us");
  }
  double fill_mean = 1.0;
  {
    const auto it = stats.metrics.histograms.find("engine.batch_fill");
    if (it != stats.metrics.histograms.end() && it->second.count > 0) {
      fill_mean = it->second.mean();
      report.add("query_engine.batches", static_cast<double>(it->second.count),
                 "count");
    } else {
      report.add("query_engine.batches", 0.0, "count");
    }
    report.add("query_engine.batch_fill_mean", fill_mean, "count");
  }

  for (const char* leg : {"wire.serialize", "wire.rpc", "wire.deserialize"}) {
    report_layer_times(tracer, leg, std::string("remote.") + leg + "_us",
                       report);
  }
  const auto counter = [&stats](const char* name) {
    const auto it = stats.metrics.counters.find(name);
    return it == stats.metrics.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  report.add("remote.net.rpc_failures", counter("net.rpc_failures"), "count");
  report.add("remote.net.connects", counter("net.connects"), "count");
  report.add("remote.queries_per_frame",
             counter("net.batch_frames") == 0.0
                 ? 0.0
                 : counter("net.batched_queries") / counter("net.batch_frames"),
             "count");

  const auto median_ms = [&](const std::string& layer) {
    return bench::median(tracer.layer(layer).sampled_us) / 1000.0;
  };
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string label = "publish.shard" + std::to_string(s);
    report.add(label + ".stage_ms", median_ms(label + ".stage"), "ms");
    report.add(label + ".commit_ms", median_ms(label + ".commit"), "ms");
  }
  report.add("publish.count", static_cast<double>(publish_ms.size()), "count");
  report.add("publish.failures", publish_failed ? 1.0 : 0.0, "count");
  report.add("publish.publish_ms", bench::median(publish_ms), "ms");
  report.add("publish.gate_calibrate_ms", median_ms("admission.on_publish"),
             "ms");
  report.add("store.save_ms", median_ms("store.save"), "ms");
  report.add("store.load_ms", median_ms("store.load"), "ms");

  for (const auto& [name, us] : tracer.mean_self_us()) {
    report.add("trace.self_us." + name, us, "us");
  }
  tracer.write_json(trace_path, kWrittenTraces);
  report.add("trace.spans", static_cast<double>(tracer.spans().size()),
             "count");
  return fill_mean;
}

void run(const Workload& w, const Args& args, Report& report) {
  const Phases phases = phases_for(args.seconds);
  Paths paths;
  paths.dir = args.out + ".work";
  std::filesystem::remove_all(paths.dir);
  std::filesystem::create_directories(paths.dir);
  paths.store = paths.dir + "/store.bin";
  paths.partition = paths.dir + "/partition.bin";

  const Clock::time_point origin = Clock::now();
  std::optional<Tracer> tracer_storage;
  if (args.trace) tracer_storage.emplace(origin);
  Tracer* tracer = args.trace ? &*tracer_storage : nullptr;

  // --- train -------------------------------------------------------------
  const engine::ScenarioGrid grid = training_grid(w);
  const Trained trained = train(grid);
  report.attempt(trained.report.cells.size());
  if (args.trace) {
    const TracedTraining traced = train_traced(grid, *tracer);
    report.attempt(traced.cells.size());
    for (std::size_t i = 0; i < traced.cells.size(); ++i) {
      const engine::CellResult& a = trained.report.cells[i];
      const engine::CellResult& b = traced.cells[i].cell;
      if (!bit_identical(a.final_gm, b.final_gm) ||
          !(a.calibration == b.calibration) ||
          a.stats.mean_m != b.stats.mean_m ||
          a.stats.worst_m != b.stats.worst_m) {
        report.violate("traced training of cell " + std::to_string(i) +
                       " (building " + std::to_string(a.spec.building) +
                       ") differs from the engine's model");
      }
    }
    double walls = 0.0;
    for (const TracedCell& cell : traced.cells) walls += cell.wall_s;
    report.add("trace.train_s_untraced", trained.seconds, "s");
    report.add("trace.train_s_traced", traced.seconds, "s");
    report.add("engine.parallel_efficiency",
               walls / (kTrainThreads * traced.seconds), "ratio");
    const auto busy = [&](const char* layer) {
      return tracer->layer(layer).busy_s;
    };
    const auto calls = [&](const char* layer) {
      return static_cast<double>(tracer->layer(layer).calls);
    };
    report.add("rss.synth_s", busy("rss.synth"), "s");
    report.add("core.pretrain_s", busy("core.pretrain"), "s");
    report.add("core.server_refresh_s", busy("core.server_refresh"), "s");
    report.add("eval.evaluate_s", busy("eval.evaluate"), "s");
    report.add("eval.calibrate_s", busy("eval.calibrate"), "s");
    double children = 0.0;
    for (const char* layer :
         {"fl.local_update", "fl.predict", "fl.client_sanitize",
          "fl.aggregate", "fl.server_recalibrate", "attack.oracle"}) {
      const std::string name(layer);
      report.add(name + "_s", busy(layer), "s");
      report.add(name + "_calls", calls(layer), "count");
      children += busy(layer);
    }
    report.add("fl.self_s", busy("fl.run_federated") - children, "s");
    report.add("fl.sanitize_flag_ratio",
               traced.sanitize_scanned == 0
                   ? 0.0
                   : static_cast<double>(traced.sanitize_flagged) /
                         static_cast<double>(traced.sanitize_scanned),
               "ratio");
  } else {
    std::vector<double> train_s = {trained.seconds};
    for (int k = 1; k < kTrainings; ++k) {
      const Trained again = train(grid);
      report.attempt(again.report.cells.size());
      for (std::size_t i = 0; i < again.report.cells.size(); ++i) {
        if (!bit_identical(again.report.cells[i].final_gm,
                           trained.report.cells[i].final_gm)) {
          report.violate("training " + std::to_string(k + 1) + " of cell " +
                         std::to_string(i) + " differs from the first");
        }
      }
      train_s.push_back(again.seconds);
    }
    report.add("train_s", bench::median(train_s), "s");
  }
  {
    const Tracer::Span span(tracer, "store.save");
    trained.store.save_file(paths.store);
  }
  if (w.fleet) one_building_per_shard(w).save_file(paths.partition);

  // --- traffic and the oracle -------------------------------------------
  const Traffic traffic = make_traffic(w, args.seed, phases);
  const Reference reference(trained.store, traffic.pool);
  Checker checker(traffic.pool, reference);
  const bench::ResponseHook hook =
      [&checker](std::size_t i, const serve::Response& r) { checker(i, r); };

  // --- set up ------------------------------------------------------------
  std::vector<double> setup_s;
  Serving serving;
  int generation = 0;
  if (!args.trace) {
    for (int k = 0; k < kSetups; ++k) {
      if (serving.service) serving.close();
      const Clock::time_point t0 = Clock::now();
      serving = bring_up(w, paths, generation++, nullptr);
      setup_s.push_back(bench::seconds(Clock::now() - t0));
    }
    report.add("setup_s", bench::median(setup_s), "s");
  } else {
    // Untraced reference for the tracing overhead.
    serving = bring_up(w, paths, generation++, nullptr);
    bench::LoadGenerator untraced(*serving.service, traffic.pool, hook,
                                  nullptr);
    const bench::StepResult peak =
        untraced.closed_loop(phases.peak_s, kWindowS, kPeakWarmupS);
    check_step("untraced peak", peak, report);
    report.add("trace.peak_qps_untraced", bench::median(peak.window_rate),
               "1/s");
    serving.close();
    serving = bring_up(w, paths, generation++, tracer);
  }
  serve::LocalizationService& service = *serving.service;

  std::vector<double> publish_ms;
  if (!w.fleet) {
    publish_ms = publish_idle(service, serving.store);
    report.attempt(publish_ms.size());
  }

  // --- serve -------------------------------------------------------------
  bench::LoadGenerator generator(service, traffic.pool, hook, tracer);
  std::optional<Republisher> republisher;
  if (w.fleet) {
    const double fixed_s = 2.0 * (phases.warmup_s + phases.step_s);
    republisher.emplace(
        service, serving.store,
        std::chrono::microseconds(
            static_cast<std::int64_t>(fixed_s / 36.0 * 1e6)));
  }
  const bench::StepResult low = generator.open_loop(traffic.low, phases.warmup_s);
  check_step("low", low, report);
  const bench::StepResult high =
      generator.open_loop(traffic.high, phases.warmup_s);
  check_step("high", high, report);
  bool publish_failed = false;
  if (republisher) {
    republisher->stop();
    publish_ms = republisher->publish_ms();
    report.attempt(publish_ms.size());
    publish_failed = !republisher->error().empty();
    if (publish_failed) {
      report.fail(1);
      report.violate("publish beside traffic failed: " + republisher->error());
    }
    if (publish_ms.size() < 32) {
      report.violate("only " + std::to_string(publish_ms.size()) +
                     " publishes beside traffic (need 32)");
    }
  }

  if (!args.trace) {
    report_checker(w, checker, report);
    const OpenLoop low_lat = summarize(low, w.low_qps);
    const OpenLoop high_lat = summarize(high, w.high_qps);
    report.add("p50_us.low", low_lat.p50_us, "us");
    report.add("p99_us.low", low_lat.p99_us, "us");
    report.add("p50_us.high", high_lat.p50_us, "us");
    report.add("p99_us.high", high_lat.p99_us, "us");
    report.add("publish_ms", bench::median(publish_ms), "ms");
    report_quality(trained.report, report);
    if (w.gate) {
      report.add("gate_recall", checker.gate_recall(), "ratio");
      report.add("gate_benign_flag_rate", checker.benign_flag_rate(), "ratio");
    }
    const double fleet_rss = serving.close();
    report.add("peak_rss_mb", w.fleet ? fleet_rss : peak_rss_self_mb(), "MiB");
    return;
  }

  const double fill_mean =
      report_layers(*tracer, service.stats(), low, high, publish_ms,
                    publish_failed, args.out + ".trace.json", report);
  // The traced peak runs last, so its saturated queues stay out of the
  // layer metrics above.
  const bench::StepResult peak =
      generator.closed_loop(phases.peak_s, kWindowS, kPeakWarmupS);
  check_step("peak", peak, report);
  report.add("trace.peak_qps_traced", bench::median(peak.window_rate), "1/s");
  report_checker(w, checker, report);
  serving.close();
  inference_microtimings(
      trained.store.latest(trained.store.names().front()), traffic.pool,
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(fill_mean))),
      report);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool has_seed = false, has_seconds = false, has_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
      has_seed = used == value.size();
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value, &used);
      has_seconds = used == value.size() && args.seconds >= 1;
    } else if (flag == "--trace") {
      has_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !has_seed || !has_seconds || !has_trace ||
      args.out.empty()) {
    throw std::invalid_argument(
        "usage: safeloc_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --out <result.json>");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::vector<std::string> env = bench::workload_changing_env();
    if (!env.empty()) {
      std::string names;
      for (const std::string& name : env) names += " " + name;
      std::fprintf(stderr,
                   "safeloc_bench: refusing to run with workload-changing "
                   "environment variables set:%s\n",
                   names.c_str());
      return 2;
    }
    const Workload* workload = nullptr;
    for (const Workload& w : workloads()) {
      if (args.workload == w.name) workload = &w;
    }
    if (workload == nullptr) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    Report report;
    try {
      run(*workload, args, report);
    } catch (const std::exception& failure) {
      report.violate(std::string("run aborted: ") + failure.what());
    }
    std::filesystem::remove_all(args.out + ".work");
    report.print(args.workload);
    report.write(args.out, args.workload, args.seed, args.seconds, args.trace);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "safeloc_bench: %s\n", failure.what());
    return 1;
  }
}
