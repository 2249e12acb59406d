// Self-checks of the benchmark's own machinery: the estimators and
// schedules its metrics rest on, the coordinated-omission convention of the
// open-loop generator, and that every decorator forwards every call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/decorators.h"
#include "bench/e2e/harness.h"

namespace safeloc::bench {
namespace {

TEST(Estimators, PercentileOfFixedVectors) {
  EXPECT_DOUBLE_EQ(percentile_or_zero({}, 99.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_or_zero({5.0}, 99.0), 5.0);
  // Linear interpolation over 0..100: rank p * (n - 1).
  std::vector<double> ramp(101);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = 100.0 - i;
  EXPECT_DOUBLE_EQ(percentile_or_zero(ramp, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile_or_zero(ramp, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Estimators, WindowedPercentileIsTheMedianOfPerWindowPercentiles) {
  // Three 1 s windows of 101 samples each, valued k*1000 + 0..100, so each
  // window's p99 is k*1000 + 99; a fourth window is too thin to count.
  std::vector<double> times, values;
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i <= 100; ++i) {
      times.push_back(k + i / 101.0);
      values.push_back(k * 1000.0 + i);
    }
  }
  times.push_back(3.5);
  values.push_back(1e9);
  EXPECT_DOUBLE_EQ(windowed_percentile(times, values, 1.0, 99.0, 100), 1099.0);
  EXPECT_DOUBLE_EQ(windowed_percentile(times, values, 1.0, 50.0, 100), 1050.0);
  // With no qualifying window the estimator reports 0.
  EXPECT_DOUBLE_EQ(windowed_percentile(times, values, 1.0, 99.0, 1000), 0.0);
  EXPECT_THROW((void)windowed_percentile({1.0}, {}, 1.0, 50.0, 1),
               std::invalid_argument);
}

TEST(Estimators, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100] with children [10,30] and [20,50] (overlapping: union 40)
  // and a grandchild inside the second; a child spilling past the root is
  // clipped.
  const std::vector<SpanRecord> spans = {
      {1, "root", -1, 0.0, 100.0},
      {1, "a", 0, 10.0, 30.0},
      {1, "b", 0, 20.0, 50.0},
      {1, "c", 2, 25.0, 35.0},
      {2, "root", -1, 0.0, 10.0},
      {2, "a", 4, 5.0, 20.0},
  };
  const std::map<std::string, double> self = mean_self_us(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), ((100.0 - 40.0) + (10.0 - 5.0)) / 2.0);
  EXPECT_DOUBLE_EQ(self.at("a"), (20.0 + 15.0) / 2.0);
  EXPECT_DOUBLE_EQ(self.at("b"), 30.0 - 10.0);
  EXPECT_DOUBLE_EQ(self.at("c"), 10.0);
}

TEST(Schedules, PoissonScheduleIsDeterministicPerSeed) {
  const std::vector<double> a = poisson_schedule(7, 5000.0, 2.0);
  EXPECT_EQ(a, poisson_schedule(7, 5000.0, 2.0));
  EXPECT_NE(a, poisson_schedule(8, 5000.0, 2.0));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  // Count within 5 sigma of rate * duration.
  const double expected = 5000.0 * 2.0;
  EXPECT_LT(std::abs(static_cast<double>(a.size()) - expected),
            5.0 * std::sqrt(expected));
}

TEST(Schedules, RescalingReplaysTheSameDrawsWithExactCounts) {
  // Doubling the rate over half the time keeps every draw: the same count
  // and every offset exactly halved (division by a power of two is exact).
  const std::vector<double> slow = poisson_schedule(11, 1000.0, 4.0);
  const std::vector<double> fast = poisson_schedule(11, 2000.0, 2.0);
  ASSERT_EQ(slow.size(), fast.size());
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(fast[i] * 2.0, slow[i]) << i;
  }
  // A longer step at the same rate extends the same prefix.
  const std::vector<double> longer = poisson_schedule(11, 1000.0, 8.0);
  ASSERT_GT(longer.size(), slow.size());
  EXPECT_TRUE(std::equal(slow.begin(), slow.end(), longer.begin()));
  EXPECT_THROW((void)poisson_schedule(1, 0.0, 1.0), std::invalid_argument);
}

/// Answers inline on the caller's thread; one chosen call sleeps first.
class StallingBackend final : public serve::QueryBackend {
 public:
  StallingBackend(std::size_t stall_at, std::chrono::milliseconds stall)
      : stall_at_(stall_at), stall_(stall) {}

  void stage(const serve::ModelRecord&) override {}
  void commit_staged(int) override {}
  void abort_staged(int) noexcept override {}
  [[nodiscard]] std::uint32_t deployed_version(int) const override {
    return 1;
  }
  [[nodiscard]] std::size_t deployed_model_count() const override { return 1; }
  void submit(int building, std::vector<float>, Callback done) override {
    const Clock::time_point t0 = Clock::now();
    if (calls_++ == stall_at_) std::this_thread::sleep_for(stall_);
    serve::QueryResult result;
    result.building = building;
    result.model_version = 1;
    result.latency_us = micros(Clock::now() - t0);
    max_service_us_ = std::max(max_service_us_, result.latency_us);
    slow_calls_ += result.latency_us > 10'000.0 ? 1 : 0;
    done(std::move(result));
  }
  void drain() override {}
  [[nodiscard]] std::size_t queue_depth() const override { return 0; }

  std::size_t slow_calls_ = 0;
  double max_service_us_ = 0.0;

 private:
  std::size_t stall_at_;
  std::chrono::milliseconds stall_;
  std::size_t calls_ = 0;
};

std::vector<serve::TimedQuery> tiny_pool() {
  std::vector<serve::TimedQuery> pool(4);
  for (serve::TimedQuery& q : pool) {
    q.building = 1;
    q.x.assign(8, 0.5f);
  }
  return pool;
}

TEST(LoadGenerator, AStallShowsInTheLatencyOfEveryQueryItDelays) {
  std::vector<std::unique_ptr<serve::QueryBackend>> shards;
  shards.push_back(std::make_unique<StallingBackend>(
      200, std::chrono::milliseconds(60)));
  auto* backend = static_cast<StallingBackend*>(shards.front().get());
  serve::LocalizationService service(std::move(shards));
  const std::vector<serve::TimedQuery> pool = tiny_pool();
  std::size_t answered = 0;
  LoadGenerator generator(
      service, pool,
      [&answered](std::size_t, const serve::Response&) { ++answered; },
      nullptr);

  // 2000 qps for 1 s: ~120 queries fall due during the 60 ms stall.
  const std::vector<double> schedule = poisson_schedule(3, 2000.0, 1.0);
  const StepResult step = generator.open_loop(schedule, 0.0);
  EXPECT_EQ(step.sent, schedule.size());
  EXPECT_EQ(step.responses, schedule.size());
  EXPECT_EQ(answered, schedule.size());
  ASSERT_EQ(step.latency_us.size(), schedule.size());

  // The backend saw one slow call...
  EXPECT_EQ(backend->slow_calls_, 1u);
  EXPECT_GE(backend->max_service_us_, 55'000.0);
  // ...but measured from intended send time, every query scheduled during
  // the stall waited behind it.
  const auto delayed = std::count_if(
      step.latency_us.begin(), step.latency_us.end(),
      [](double us) { return us > 10'000.0; });
  EXPECT_GE(delayed, 50);
  EXPECT_GE(*std::max_element(step.latency_us.begin(), step.latency_us.end()),
            55'000.0);
  EXPECT_GE(*std::max_element(step.late_us.begin(), step.late_us.end()),
            40'000.0);
  // The windowed p99 of the window holding the stall sees it.
  EXPECT_GT(windowed_percentile(step.intended_s, step.latency_us, 1.0, 99.0,
                                100),
            10'000.0);
}

TEST(LoadGenerator, ClosedLoopCountsEveryCompletion) {
  std::vector<std::unique_ptr<serve::QueryBackend>> shards;
  shards.push_back(std::make_unique<StallingBackend>(
      ~std::size_t{0}, std::chrono::milliseconds(0)));
  serve::LocalizationService service(std::move(shards));
  const std::vector<serve::TimedQuery> pool = tiny_pool();
  Tracer tracer(Clock::now());
  LoadGenerator generator(service, pool,
                          [](std::size_t, const serve::Response&) {}, &tracer);
  const StepResult step = generator.closed_loop(0.6, 0.2, 0.2);
  EXPECT_GT(step.sent, 0u);
  EXPECT_EQ(step.responses, step.sent);
  EXPECT_EQ(step.window_rate.size(), 2u);  // windows 1 and 2 of [0, 0.6)
  for (const double rate : step.window_rate) EXPECT_GT(rate, 0.0);
  // Every 64th request is sampled into a span tree.
  const LayerStats submit = tracer.layer("service.submit");
  EXPECT_EQ(submit.calls, step.sent);
  EXPECT_EQ(submit.sampled_us.size(),
            (step.sent + Tracer::kSampleEvery - 1) / Tracer::kSampleEvery);
  const std::map<std::string, double> self = tracer.mean_self_us();
  EXPECT_TRUE(self.count("request"));
  EXPECT_TRUE(self.count("service.submit"));
}

/// Records every call it receives.
class RecordingBackend final : public serve::QueryBackend {
 public:
  void stage(const serve::ModelRecord& record) override {
    log.push_back("stage:" + record.name);
  }
  void commit_staged(int building) override {
    log.push_back("commit:" + std::to_string(building));
  }
  void abort_staged(int building) noexcept override {
    log.push_back("abort:" + std::to_string(building));
  }
  [[nodiscard]] std::uint32_t deployed_version(int building) const override {
    log.push_back("version:" + std::to_string(building));
    return 41;
  }
  [[nodiscard]] std::size_t deployed_model_count() const override {
    log.push_back("count");
    return 7;
  }
  void submit(int building, std::vector<float> fingerprint,
              Callback done) override {
    log.push_back("submit:" + std::to_string(building) + ":" +
                  std::to_string(fingerprint.size()));
    serve::QueryResult result;
    result.rp = 5;
    done(std::move(result));
  }
  void drain() override { log.push_back("drain"); }
  [[nodiscard]] std::size_t queue_depth() const override {
    log.push_back("depth");
    return 3;
  }
  [[nodiscard]] serve::telemetry::RegistrySnapshot telemetry_snapshot()
      const override {
    log.push_back("telemetry");
    serve::telemetry::RegistrySnapshot snapshot;
    snapshot.counters["probe"] = 9;
    return snapshot;
  }

  mutable std::vector<std::string> log;
};

TEST(Decorators, TracedBackendForwardsEveryCall) {
  auto inner = std::make_unique<RecordingBackend>();
  RecordingBackend& rec = *inner;
  Tracer tracer(Clock::now());
  TracedBackend traced(std::move(inner), tracer, "shard0");
  serve::ModelRecord record;
  record.name = "m";
  record.provenance.building = 2;

  traced.stage(record);
  traced.commit_staged(2);
  traced.abort_staged(2);
  EXPECT_EQ(traced.deployed_version(2), 41u);
  EXPECT_EQ(traced.deployed_model_count(), 7u);
  int rp = -1;
  traced.submit(2, std::vector<float>(4, 0.0f),
                [&rp](serve::QueryResult r) { rp = r.rp; });
  EXPECT_EQ(rp, 5);
  traced.drain();
  EXPECT_EQ(traced.queue_depth(), 3u);
  EXPECT_EQ(traced.telemetry_snapshot().counters.at("probe"), 9u);
  traced.deploy(record);  // base-class stage + commit, through the decorator

  const std::vector<std::string> expected = {
      "stage:m", "commit:2", "abort:2", "version:2", "count", "submit:2:4",
      "drain",   "depth",    "telemetry", "stage:m", "commit:2"};
  EXPECT_EQ(rec.log, expected);
  EXPECT_EQ(tracer.layer("backend.submit").calls, 1u);
  EXPECT_EQ(tracer.layer("publish.shard0.stage").calls, 2u);
  EXPECT_EQ(tracer.layer("publish.shard0.commit").calls, 2u);
}

class RecordingRouter final : public serve::Router {
 public:
  [[nodiscard]] std::string name() const override { return "recording"; }
  [[nodiscard]] bool needs_load() const override { return true; }
  [[nodiscard]] std::size_t route(int building, std::span<const float> fp,
                                  const serve::ShardView& view) override {
    seen_building = building;
    seen_width = fp.size();
    seen_depths = view.queue_depths.size();
    return 1;
  }
  int seen_building = 0;
  std::size_t seen_width = 0;
  std::size_t seen_depths = 0;
};

TEST(Decorators, TracedRouterForwardsEveryCall) {
  auto inner = std::make_unique<RecordingRouter>();
  RecordingRouter& rec = *inner;
  Tracer tracer(Clock::now());
  TracedRouter traced(std::move(inner), tracer);
  EXPECT_EQ(traced.name(), "recording");
  EXPECT_TRUE(traced.needs_load());
  const std::vector<float> fp(6, 0.0f);
  const std::vector<std::size_t> depths = {4, 5};
  serve::ShardView view;
  view.shards = 2;
  view.queue_depths = depths;
  EXPECT_EQ(traced.route(3, fp, view), 1u);
  EXPECT_EQ(rec.seen_building, 3);
  EXPECT_EQ(rec.seen_width, 6u);
  EXPECT_EQ(rec.seen_depths, 2u);
  EXPECT_EQ(tracer.layer("router.route").calls, 1u);
}

class RecordingPolicy final : public serve::AdmissionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "recording"; }
  [[nodiscard]] serve::AdmissionVerdict inspect(
      int building, std::span<const float> fp) override {
    seen = std::to_string(building) + ":" + std::to_string(fp.size());
    serve::AdmissionVerdict verdict;
    verdict.action = serve::AdmissionVerdict::Action::kFlag;
    verdict.test = "rce";
    return verdict;
  }
  void on_publish(const serve::ModelRecord& record) override {
    published = record.name;
  }
  std::string seen;
  std::string published;
};

TEST(Decorators, TracedAdmissionForwardsEveryCall) {
  auto inner = std::make_unique<RecordingPolicy>();
  RecordingPolicy& rec = *inner;
  Tracer tracer(Clock::now());
  TracedAdmission traced(std::move(inner), tracer);
  EXPECT_EQ(traced.name(), "recording");
  const std::vector<float> fp(5, 0.0f);
  const serve::AdmissionVerdict verdict = traced.inspect(4, fp);
  EXPECT_EQ(verdict.action, serve::AdmissionVerdict::Action::kFlag);
  EXPECT_EQ(verdict.test, "rce");
  EXPECT_EQ(rec.seen, "4:5");
  serve::ModelRecord record;
  record.name = "m2";
  traced.on_publish(record);
  EXPECT_EQ(rec.published, "m2");
  EXPECT_EQ(tracer.layer("admission.inspect").calls, 1u);
  EXPECT_EQ(tracer.layer("admission.on_publish").calls, 1u);
}

}  // namespace
}  // namespace safeloc::bench
