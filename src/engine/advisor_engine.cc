#include "engine/advisor_engine.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "advisor/report.h"
#include "advisor/report_json.h"
#include "common/logging.h"

namespace capd {

AdvisorEngine::AdvisorEngine(const Database& db, EngineOptions options)
    : db_(&db),
      options_(std::move(options)),
      samples_(options_.sample_seed),
      mvs_(db, &samples_),
      optimizer_(db, CostModelParams{}),
      estimation_cache_(std::make_shared<EstimationCache>()) {
  optimizer_.set_mv_matcher(&mvs_);
  CAPD_CHECK_EQ(options_.search_threads, 1) << "the search runs serially";
  if (options_.estimation_threads != 1) {
    estimation_pool_ =
        std::make_unique<ThreadPool>(options_.estimation_threads);
  }
}

TuningResponse AdvisorEngine::Tune(const TuningRequest& request) {
  TuningResponse response;
  response.strategy = request.strategy;

  const std::shared_ptr<const Strategy> strategy =
      StrategyRegistry::Global().Find(request.strategy);
  if (strategy == nullptr) {
    response.status = TuningResponse::Status::kError;
    response.error =
        StrategyRegistry::Global().UnknownStrategyMessage(request.strategy);
    return response;
  }

  if (!std::isfinite(request.budget.value) || request.budget.value < 0.0) {
    response.status = TuningResponse::Status::kError;
    response.error = "invalid budget: value must be finite and >= 0";
    return response;
  }
  const double budget_bytes = request.budget.ResolveBytes(
      static_cast<double>(db_->BaseDataBytes()));
  response.budget_bytes = budget_bytes;

  // Strategy base options + request knobs + engine-owned collaborators.
  AdvisorOptions options = strategy->MakeOptions();
  options.size_options.pool = estimation_pool_.get();
  if (request.enable_mv >= 0) options.enable_mv = request.enable_mv != 0;
  if (request.enable_partial >= 0) {
    options.enable_partial = request.enable_partial != 0;
  }
  options.size_options.cache = estimation_cache_;
  // Fraction-exact mode: warmth must never change what a request computes
  // — see the determinism contract in the header.
  options.size_options.cache_fraction_exact = true;
  options.trace = options.trace || request.trace;
  options.cancel = request.cancel.flag();
  // Deep cancellation: the estimation batches poll the same flag inside
  // their fraction probes and SampleCF leaves, so a deadline binds within
  // a long estimation phase, not just at its boundary.
  options.size_options.cancel = options.cancel;
  options.progress = request.progress;
  options.fault_hook = request.fault_hook;

  RequestScope scope = ScopeFor(options);
  try {
    SizeEstimator estimator(*db_, scope.mvs, ErrorModel(),
                            options.size_options);
    Advisor advisor(*db_, *scope.optimizer, &estimator, scope.mvs, options);
    response.result = strategy->Run(&advisor, request.workload, budget_bytes);
  } catch (const TransientTuningError& e) {
    response.status = TuningResponse::Status::kError;
    response.error = std::string("tuning failed (transient): ") + e.what();
    response.retryable = true;
    return response;
  } catch (const std::exception& e) {
    response.status = TuningResponse::Status::kError;
    response.error = std::string("tuning failed: ") + e.what();
    return response;
  }

  response.status = response.result.cancelled
                        ? TuningResponse::Status::kCancelled
                        : TuningResponse::Status::kOk;
  response.report =
      RenderTuningReport(response.result, scope.mvs, budget_bytes);
  response.json = RenderTuningReportJson(response.result, scope.mvs,
                                         budget_bytes, request.strategy);
  return response;
}

AdvisorEngine::RequestScope AdvisorEngine::ScopeFor(
    const AdvisorOptions& options) {
  RequestScope scope;
  if (!options.enable_mv) {
    scope.mvs = &mvs_;
    scope.optimizer = &optimizer_;
    return scope;
  }
  // MV-enabled runs register request-specific MV definitions (named after
  // the request's query ids) in the registry they tune against. Isolate
  // them in a per-request registry + optimizer, or one request's MVs would
  // leak into the next — breaking the fresh-stack identity contract.
  // Samples stay shared: they are pure per cache key.
  scope.request_mvs = std::make_unique<MVRegistry>(*db_, &samples_);
  scope.request_optimizer =
      std::make_unique<WhatIfOptimizer>(*db_, CostModelParams{});
  scope.request_optimizer->set_mv_matcher(scope.request_mvs.get());
  scope.mvs = scope.request_mvs.get();
  scope.optimizer = scope.request_optimizer.get();
  return scope;
}

AdvisorResult AdvisorEngine::TuneWithOptions(const Workload& workload,
                                             double budget_bytes,
                                             const AdvisorOptions& options) {
  RequestScope scope = ScopeFor(options);
  SizeEstimator estimator(*db_, scope.mvs, ErrorModel(), options.size_options);
  Advisor advisor(*db_, *scope.optimizer, &estimator, scope.mvs, options);
  return advisor.Tune(workload, budget_bytes);
}

std::vector<std::string> AdvisorEngine::Strategies() const {
  return StrategyRegistry::Global().Names();
}

}  // namespace capd
