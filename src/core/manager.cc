#include "core/manager.h"

#include "obs/trace.h"
#include "persist/serde.h"
#include "util/metrics.h"

namespace autoindex {
namespace {

// Tuning-loop observability (DESIGN.md §11): round cadence and the
// split between candidate generation and MCTS search.
struct TuningMetrics {
  util::Counter* rounds;
  util::Counter* observations;
  util::Counter* decays;
  util::LatencyHistogram* round_us;
  util::LatencyHistogram* candidate_gen_us;
  util::LatencyHistogram* search_us;

  static const TuningMetrics& Get() {
    static const TuningMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return TuningMetrics{registry.GetCounter("tuning.rounds"),
                           registry.GetCounter("tuning.observations"),
                           registry.GetCounter("tuning.decays"),
                           registry.GetHistogram("tuning.round_us"),
                           registry.GetHistogram("tuning.candidate_gen_us"),
                           registry.GetHistogram("tuning.search_us")};
    }();
    return metrics;
  }
};

}  // namespace

AutoIndexManager::AutoIndexManager(Database* db, AutoIndexConfig config)
    : db_(db), config_(config), sample_rng_(0xA11CE) {
  obs::Tracer::Default().Configure(config_.trace_slow_us,
                                   config_.trace_sample_rate);
  templates_ = std::make_unique<TemplateStore>(config_.template_capacity);
  estimator_ = std::make_unique<IndexBenefitEstimator>(db_);
  generator_ =
      std::make_unique<CandidateGenerator>(db_, config_.candidate_gen);
  MctsConfig mcts = config_.mcts;
  if (config_.storage_budget_bytes != 0) {
    mcts.storage_budget_bytes = config_.storage_budget_bytes;
  }
  selector_ = std::make_unique<MctsIndexSelector>(db_, estimator_.get(), mcts);
  diagnoser_ = std::make_unique<IndexDiagnoser>(db_, estimator_.get(),
                                                config_.diagnosis);
  if (config_.learn_cost_model) {
    // EXPLAIN ANALYZE feedback loop: every executed statement streams its
    // per-access-path (estimated, observed) pairs into the estimator.
    db_->set_execution_feedback_hook(
        [est = estimator_.get()](const std::vector<AccessPathFeedback>& fb) {
          est->RecordExecutionFeedback(fb);
        });
  }
}

AutoIndexManager::~AutoIndexManager() { ShutdownApplyWorker(); }

AutoIndexManager::DdlOutcome AutoIndexManager::ApplyDdlNow(
    const std::vector<IndexDef>& drops, const std::vector<IndexDef>& adds) {
  DdlOutcome outcome;
  // Keep the reported deltas honest: if the estate drifted under us (say,
  // a manual DROP between search and apply), the failed DDL must not show
  // up in dropped/built as if it happened — it lands in errors instead.
  for (const IndexDef& def : drops) {
    const Status s = db_->DropIndex(def.Key());
    if (s.ok()) {
      outcome.dropped.push_back(def);
    } else {
      outcome.errors.push_back(ApplyError{def, true, s.message()});
    }
  }
  for (const IndexDef& def : adds) {
    const Status s = db_->CreateIndex(def);
    if (s.ok()) {
      outcome.built.push_back(def);
    } else {
      outcome.errors.push_back(ApplyError{def, false, s.message()});
    }
  }
  // Usage counters are per-round signals; reset after inspection.
  for (BuiltIndex* index : db_->index_manager().AllIndexes()) {
    index->ResetUses();
  }
  estimator_->InvalidateCache();
  return outcome;
}

void AutoIndexManager::EnqueueApply(ApplyTask task) {
  {
    util::MutexLock lock(apply_mu_);
    apply_queue_.push_back(std::move(task));
    if (!apply_worker_started_) {
      apply_worker_ = std::thread([this] { ApplyWorkerLoop(); });
      apply_worker_started_ = true;
    }
  }
  apply_cv_.NotifyAll();
}

void AutoIndexManager::ApplyWorkerLoop() {
  for (;;) {
    ApplyTask task;
    {
      util::MutexLock lock(apply_mu_);
      while (apply_queue_.empty() && !apply_shutdown_) {
        apply_cv_.Wait(apply_mu_);
      }
      if (apply_queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(apply_queue_.front());
      apply_queue_.pop_front();
      apply_inflight_ = true;
    }
    DdlOutcome outcome = ApplyDdlNow(task.drops, task.adds);
    {
      util::MutexLock lock(apply_mu_);
      for (ApplyError& error : outcome.errors) {
        apply_errors_.push_back(std::move(error));
      }
      apply_inflight_ = false;
    }
    apply_cv_.NotifyAll();
  }
}

std::vector<ApplyError> AutoIndexManager::WaitForApply() {
  util::MutexLock lock(apply_mu_);
  while (!apply_queue_.empty() || apply_inflight_) {
    apply_cv_.Wait(apply_mu_);
  }
  std::vector<ApplyError> errors = std::move(apply_errors_);
  apply_errors_.clear();
  return errors;
}

void AutoIndexManager::ShutdownApplyWorker() {
  {
    util::MutexLock lock(apply_mu_);
    if (!apply_worker_started_) return;
    apply_shutdown_ = true;
  }
  apply_cv_.NotifyAll();
  apply_worker_.join();
  util::MutexLock lock(apply_mu_);
  apply_worker_started_ = false;
  apply_shutdown_ = false;
}

void AutoIndexManager::set_storage_budget(size_t bytes) {
  config_.storage_budget_bytes = bytes;
  selector_->set_storage_budget(bytes);
}

StatusOr<ExecResult> AutoIndexManager::ExecuteAndObserve(
    const std::string& sql) {
  templates_->Observe(sql);
  TuningMetrics::Get().observations->Add();
  StatusOr<ExecResult> result = db_->Execute(sql);
  if (result.ok() && config_.learn_cost_model &&
      sample_rng_.Bernoulli(config_.observation_sample_rate)) {
    // Historical training pair: estimated cost features under the current
    // built configuration vs. the measured execution cost.
    StatusOr<Statement> stmt = ParseSql(sql);
    if (stmt.ok()) {
      const CostBreakdown est = db_->WhatIfCost(*stmt, db_->CurrentConfig());
      const CostBreakdown measured = result->stats.ToCost(db_->params());
      estimator_->AddObservation(est.Features(), measured.Total());
    }
  }
  return result;
}

void AutoIndexManager::ObserveOnly(const std::string& sql) {
  templates_->Observe(sql);
  TuningMetrics::Get().observations->Add();
}

WorkloadModel AutoIndexManager::CurrentWorkload() const {
  return WorkloadModel::FromTemplates(templates_->TemplatesByFrequency());
}

DiagnosisReport AutoIndexManager::Diagnose() {
  const WorkloadModel workload = CurrentWorkload();
  const std::vector<IndexDef> candidates = generator_->Generate(
      templates_->TemplatesByFrequency(), db_->CurrentConfig());
  return diagnoser_->Diagnose(workload, candidates);
}

TuningResult AutoIndexManager::RunManagementRound(bool apply) {
  const TuningMetrics& metrics = TuningMetrics::Get();
  // Tuning rounds get their own traces: candidate generation, MCTS
  // search, and apply each appear as a span. Their durations are also
  // reported in the TuningResult, so they are timed in every build.
  obs::ScopedTrace trace("tuning.round", nullptr, metrics.round_us,
                         obs::Clock::kAlways);
  TuningResult result;

  // Drift handling (Sec. IV-C): decay template frequencies when the match
  // rate collapsed since the last round.
  if (templates_->MatchRate() < config_.drift_match_threshold &&
      rounds_run_ > 0) {
    templates_->Decay(config_.decay_factor);
    metrics.decays->Add();
  }
  templates_->ResetMatchStats();
  templates_->AdvanceRound();

  // Refresh statistics & train the learned estimator when enough history
  // has accumulated.
  db_->Analyze();
  estimator_->InvalidateCache();
  if (config_.learn_cost_model && !estimator_->model_trained()) {
    estimator_->TrainModel(config_.min_training_observations);
  }

  const std::vector<const QueryTemplate*> templates =
      templates_->TemplatesByFrequency();
  result.templates_considered = templates.size();
  const WorkloadModel workload = WorkloadModel::FromTemplates(templates);
  const IndexConfig existing = db_->CurrentConfig();

  obs::ScopedSpan gen_span("tuning.candidate_gen", metrics.candidate_gen_us,
                           obs::Clock::kAlways);
  const std::vector<IndexDef> candidates =
      generator_->Generate(templates, existing);
  result.candidate_gen_ms = gen_span.End() / 1000.0;
  result.candidates_generated = candidates.size();

  obs::ScopedSpan search_span("tuning.search", metrics.search_us,
                              obs::Clock::kAlways);
  MctsResult mcts = selector_->Run(existing, candidates, workload);
  result.search_ms = search_span.End() / 1000.0;
  result.est_base_cost = mcts.base_cost;
  result.est_new_cost = mcts.best_cost;
  result.est_benefit = mcts.best_benefit;
  result.added = mcts.to_add;
  result.removed = mcts.to_remove;

  // Retirement pass: redundant/dead indexes are cost-neutral to the MCTS
  // objective, so they are cleaned up by diagnosis instead (Fig. 1): an
  // index the planner never used whose removal does not raise the
  // estimated workload cost is dropped.
  if (config_.drop_unused_indexes) {
    IndexConfig probe = mcts.best_config;
    double current_cost =
        estimator_->EstimateWorkloadCost(workload, probe);
    for (const BuiltIndex* index : db_->index_manager().AllIndexes()) {
      if (index->uses() >= config_.unused_drop_threshold) continue;
      if (!probe.Contains(index->def())) continue;  // already removed
      bool planned_add = false;
      for (const IndexDef& def : mcts.to_add) {
        if (def == index->def()) planned_add = true;
      }
      if (planned_add) continue;
      IndexConfig without = probe;
      without.Remove(index->def());
      const double cost_without =
          estimator_->EstimateWorkloadCost(workload, without);
      if (cost_without <= current_cost * (1.0 + 1e-9)) {
        probe = std::move(without);
        current_cost = cost_without;
        result.removed.push_back(index->def());
      }
    }
    mcts.best_config = std::move(probe);
  }

  if (apply) {
    obs::ScopedSpan apply_span("tuning.apply");
    if (config_.async_apply) {
      // Stage and return: the background worker publishes the DDL while
      // the workload keeps running. added/removed keep reporting the
      // recommendation; failures surface from WaitForApply().
      EnqueueApply(ApplyTask{result.removed, result.added});
      result.staged = true;
    } else {
      DdlOutcome outcome = ApplyDdlNow(result.removed, result.added);
      result.removed = std::move(outcome.dropped);
      result.added = std::move(outcome.built);
      result.apply_errors = std::move(outcome.errors);
      result.applied = true;
    }
  }

  ++rounds_run_;
  metrics.rounds->Add();
  result.elapsed_ms = trace.End() / 1000.0;
  return result;
}

void AutoIndexManager::SaveTuningState(persist::Writer* w) const {
  w->PutU64(rounds_run_);
  w->PutU64(sample_rng_.state0());
  w->PutU64(sample_rng_.state1());
  templates_->Save(w);
  estimator_->Save(w);
  selector_->SaveTree(w);
}

Status AutoIndexManager::LoadTuningState(persist::Reader* r) {
  rounds_run_ = r->GetU64();
  const uint64_t s0 = r->GetU64();
  const uint64_t s1 = r->GetU64();
  sample_rng_.SetState(s0, s1);
  templates_->Load(r);
  estimator_->Load(r);
  Status s = selector_->LoadTree(r);
  if (!s.ok()) return s;
  return r->status();
}

}  // namespace autoindex
