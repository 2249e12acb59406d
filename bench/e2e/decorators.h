// Bench-side decorators that time the serving and training layers from
// outside, through their public interfaces only. A traced run hands them
// to the library where it accepts user implementations: QueryBackend
// shards and the Router through LocalizationService's bring-your-own
// constructor and set_router, the AdmissionPolicy through add_admission,
// and a FederatedFramework around fl::run_federated. Every call is
// forwarded unchanged, so a traced run computes exactly what an untraced
// one does (safeloc_bench checks the trained models bit for bit).
#pragma once

#include <memory>
#include <string>

#include "bench/e2e/harness.h"
#include "src/fl/framework.h"
#include "src/serve/admission.h"
#include "src/serve/backend.h"
#include "src/serve/router.h"

namespace safeloc::bench {

/// Times submit() as "backend.submit" (enqueue plus backpressure, on the
/// caller's thread) and the two-phase deploy as "publish.<label>.stage" /
/// "publish.<label>.commit".
class TracedBackend final : public serve::QueryBackend {
 public:
  TracedBackend(std::unique_ptr<serve::QueryBackend> inner, Tracer& tracer,
                const std::string& label);

  void stage(const serve::ModelRecord& record) override;
  void commit_staged(int building) override;
  void abort_staged(int building) noexcept override;
  [[nodiscard]] std::uint32_t deployed_version(int building) const override;
  [[nodiscard]] std::size_t deployed_model_count() const override;
  void submit(int building, std::vector<float> fingerprint,
              Callback done) override;
  void drain() override;
  [[nodiscard]] std::size_t queue_depth() const override;
  [[nodiscard]] serve::telemetry::RegistrySnapshot telemetry_snapshot()
      const override;

 private:
  std::unique_ptr<serve::QueryBackend> inner_;
  Tracer& tracer_;
  std::string stage_name_;
  std::string commit_name_;
};

/// Times route() as "router.route".
class TracedRouter final : public serve::Router {
 public:
  TracedRouter(std::unique_ptr<serve::Router> inner, Tracer& tracer);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool needs_load() const override;
  [[nodiscard]] std::size_t route(int building,
                                  std::span<const float> fingerprint,
                                  const serve::ShardView& view) override;

 private:
  std::unique_ptr<serve::Router> inner_;
  Tracer& tracer_;
};

/// Times inspect() as "admission.inspect" and on_publish() (the gate's
/// per-model calibration) as "admission.on_publish".
class TracedAdmission final : public serve::AdmissionPolicy {
 public:
  TracedAdmission(std::unique_ptr<serve::AdmissionPolicy> inner,
                  Tracer& tracer);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] serve::AdmissionVerdict inspect(
      int building, std::span<const float> fingerprint) override;
  void on_publish(const serve::ModelRecord& record) override;

 private:
  std::unique_ptr<serve::AdmissionPolicy> inner_;
  Tracer& tracer_;
};

/// Forwards to a framework it does not own, timing the calls
/// fl::run_federated makes: "fl.predict", "attack.oracle"
/// (input_gradient), "fl.client_sanitize", "fl.local_update",
/// "fl.aggregate" and "fl.server_recalibrate". Used only around
/// run_federated: the engine's other steps dynamic_cast the concrete
/// framework, which a wrapper would defeat.
class TimedFramework final : public fl::FederatedFramework {
 public:
  TimedFramework(fl::FederatedFramework& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void pretrain(const nn::Matrix& x, std::span<const int> labels,
                std::size_t num_classes, int epochs,
                std::uint64_t seed) override;
  [[nodiscard]] std::vector<int> predict(const nn::Matrix& x) override;
  [[nodiscard]] nn::Matrix input_gradient(
      const nn::Matrix& x, std::span<const int> labels) override;
  [[nodiscard]] fl::SanitizeResult client_sanitize(
      const nn::Matrix& x, std::vector<int> labels) override;
  [[nodiscard]] fl::ClientUpdate local_update(
      const nn::Matrix& x, std::span<const int> labels,
      const fl::LocalTrainOpts& opts) override;
  void aggregate(std::span<const fl::ClientUpdate> updates) override;
  [[nodiscard]] bool wants_server_recalibration() const override;
  void server_recalibrate(const nn::Matrix& clean_x) override;
  [[nodiscard]] bool wants_server_refresh() const override;
  bool server_refresh(const nn::Matrix& clean_x) override;
  [[nodiscard]] std::vector<int> last_excluded_clients() const override;
  [[nodiscard]] std::size_t parameter_count() override;
  [[nodiscard]] std::size_t num_classes() const override;
  [[nodiscard]] nn::StateDict snapshot() override;
  void restore(const nn::StateDict& state) override;

  /// Rows client_sanitize scanned and rows it flagged.
  [[nodiscard]] std::uint64_t scanned() const noexcept { return scanned_; }
  [[nodiscard]] std::uint64_t flagged() const noexcept { return flagged_; }

 private:
  fl::FederatedFramework& inner_;
  Tracer& tracer_;
  std::uint64_t scanned_ = 0;
  std::uint64_t flagged_ = 0;
};

}  // namespace safeloc::bench
