#include "bench/e2e/decorators.h"

#include <stdexcept>

namespace safeloc::bench {

TracedBackend::TracedBackend(std::unique_ptr<serve::QueryBackend> inner,
                             Tracer& tracer, const std::string& label)
    : inner_(std::move(inner)),
      tracer_(tracer),
      stage_name_("publish." + label + ".stage"),
      commit_name_("publish." + label + ".commit") {
  if (inner_ == nullptr) throw std::invalid_argument("TracedBackend: null");
}

void TracedBackend::stage(const serve::ModelRecord& record) {
  const Tracer::Span span(&tracer_, stage_name_.c_str());
  inner_->stage(record);
}

void TracedBackend::commit_staged(int building) {
  const Tracer::Span span(&tracer_, commit_name_.c_str());
  inner_->commit_staged(building);
}

void TracedBackend::abort_staged(int building) noexcept {
  inner_->abort_staged(building);
}

std::uint32_t TracedBackend::deployed_version(int building) const {
  return inner_->deployed_version(building);
}

std::size_t TracedBackend::deployed_model_count() const {
  return inner_->deployed_model_count();
}

void TracedBackend::submit(int building, std::vector<float> fingerprint,
                           Callback done) {
  const Tracer::Span span(&tracer_, "backend.submit");
  inner_->submit(building, std::move(fingerprint), std::move(done));
}

void TracedBackend::drain() { inner_->drain(); }

std::size_t TracedBackend::queue_depth() const { return inner_->queue_depth(); }

serve::telemetry::RegistrySnapshot TracedBackend::telemetry_snapshot() const {
  return inner_->telemetry_snapshot();
}

TracedRouter::TracedRouter(std::unique_ptr<serve::Router> inner,
                           Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  if (inner_ == nullptr) throw std::invalid_argument("TracedRouter: null");
}

std::string TracedRouter::name() const { return inner_->name(); }

bool TracedRouter::needs_load() const { return inner_->needs_load(); }

std::size_t TracedRouter::route(int building,
                                std::span<const float> fingerprint,
                                const serve::ShardView& view) {
  const Tracer::Span span(&tracer_, "router.route");
  return inner_->route(building, fingerprint, view);
}

TracedAdmission::TracedAdmission(std::unique_ptr<serve::AdmissionPolicy> inner,
                                 Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  if (inner_ == nullptr) throw std::invalid_argument("TracedAdmission: null");
}

std::string TracedAdmission::name() const { return inner_->name(); }

serve::AdmissionVerdict TracedAdmission::inspect(
    int building, std::span<const float> fingerprint) {
  const Tracer::Span span(&tracer_, "admission.inspect");
  return inner_->inspect(building, fingerprint);
}

void TracedAdmission::on_publish(const serve::ModelRecord& record) {
  const Tracer::Span span(&tracer_, "admission.on_publish");
  inner_->on_publish(record);
}

void TimedFramework::pretrain(const nn::Matrix& x, std::span<const int> labels,
                              std::size_t num_classes, int epochs,
                              std::uint64_t seed) {
  inner_.pretrain(x, labels, num_classes, epochs, seed);
}

std::vector<int> TimedFramework::predict(const nn::Matrix& x) {
  const Tracer::Span span(&tracer_, "fl.predict");
  return inner_.predict(x);
}

nn::Matrix TimedFramework::input_gradient(const nn::Matrix& x,
                                          std::span<const int> labels) {
  const Tracer::Span span(&tracer_, "attack.oracle");
  return inner_.input_gradient(x, labels);
}

fl::SanitizeResult TimedFramework::client_sanitize(const nn::Matrix& x,
                                                   std::vector<int> labels) {
  const Tracer::Span span(&tracer_, "fl.client_sanitize");
  fl::SanitizeResult result = inner_.client_sanitize(x, std::move(labels));
  scanned_ += x.rows();
  flagged_ += result.flagged;
  return result;
}

fl::ClientUpdate TimedFramework::local_update(const nn::Matrix& x,
                                              std::span<const int> labels,
                                              const fl::LocalTrainOpts& opts) {
  const Tracer::Span span(&tracer_, "fl.local_update");
  return inner_.local_update(x, labels, opts);
}

void TimedFramework::aggregate(std::span<const fl::ClientUpdate> updates) {
  const Tracer::Span span(&tracer_, "fl.aggregate");
  inner_.aggregate(updates);
}

bool TimedFramework::wants_server_recalibration() const {
  return inner_.wants_server_recalibration();
}

void TimedFramework::server_recalibrate(const nn::Matrix& clean_x) {
  const Tracer::Span span(&tracer_, "fl.server_recalibrate");
  inner_.server_recalibrate(clean_x);
}

bool TimedFramework::wants_server_refresh() const {
  return inner_.wants_server_refresh();
}

bool TimedFramework::server_refresh(const nn::Matrix& clean_x) {
  return inner_.server_refresh(clean_x);
}

std::vector<int> TimedFramework::last_excluded_clients() const {
  return inner_.last_excluded_clients();
}

std::size_t TimedFramework::parameter_count() {
  return inner_.parameter_count();
}

std::size_t TimedFramework::num_classes() const {
  return inner_.num_classes();
}

nn::StateDict TimedFramework::snapshot() { return inner_.snapshot(); }

void TimedFramework::restore(const nn::StateDict& state) {
  inner_.restore(state);
}

}  // namespace safeloc::bench
