#include "core/session.h"

#include <algorithm>
#include <cmath>

#include "birch/acf_tree.h"
#include "common/stopwatch.h"
#include "core/phase1_builder.h"
#include "core/phase2_runner.h"
#include "core/rule_stats.h"

namespace dar {

Session::Builder& Session::Builder::AddObserver(
    std::shared_ptr<MiningObserver> observer) {
  if (observer != nullptr) observers_.push_back(std::move(observer));
  return *this;
}

Result<Session> Session::Builder::Build() const {
  DAR_RETURN_IF_ERROR(config_.Validate());
  std::shared_ptr<Executor> executor =
      executor_ != nullptr ? executor_
                           : std::make_shared<SerialExecutor>();
  auto observers = std::make_shared<ObserverList>();
  for (const auto& o : observers_) observers->Add(o);
  return Session(config_, std::move(executor), std::move(observers),
                 std::make_shared<telemetry::MetricsRegistry>());
}

Result<Phase1Result> Session::RunPhase1(
    const Relation& rel, const AttributePartition& partition) const {
  if (rel.num_rows() == 0) {
    return Status::InvalidArgument("relation is empty");
  }
  DAR_ASSIGN_OR_RETURN(
      Phase1Builder builder,
      Phase1Builder::Make(config_, rel.schema(), partition, executor_.get(),
                          observer_or_null(),
                          telemetry::TelemetryContext(registry_.get())));
  DAR_RETURN_IF_ERROR(builder.AddRelation(rel));
  return std::move(builder).Finish();
}

Result<Phase2Result> Session::RunPhase2(const Phase1Result& phase1) const {
  // Phase II is summary-only (Thm 6.1): delegate to the shared runner that
  // dar::stream re-mines through as well.
  Phase2RunOptions options;
  options.executor = executor_.get();
  options.observer = observer_or_null();
  options.telemetry = telemetry::TelemetryContext(registry_.get());
  return RunPhase2OnSummaries(phase1, config_, options);
}

// Session::OpenStream is defined in src/stream/streaming_miner.cc: the
// stream subsystem layers on top of dar_core, so the facade's streaming
// entry point lives (and links) with the code it constructs.

Status Session::CountRuleSupport(const Relation& rel,
                                 const AttributePartition& partition,
                                 const Phase1Result& phase1,
                                 std::vector<DistanceRule>& rules) const {
  Stopwatch watch;
  DAR_RETURN_IF_ERROR(ScanRuleSupport(rel, partition, phase1.clusters, rules,
                                      executor_.get())
                          .status());
  registry_->GetGauge("postscan.seconds", telemetry::Unit::kSeconds)
      ->Set(watch.ElapsedSeconds());
  return Status::OK();
}

Result<MiningReport> Session::Mine(
    const Relation& rel, const AttributePartition& partition) const {
  registry_->Reset();  // one Mine call == one reported run
  DAR_ASSIGN_OR_RETURN(Phase1Result phase1, RunPhase1(rel, partition));
  return FinishRun(std::move(phase1), &rel, partition);
}

// Session::MineFromCheckpoints is defined in src/persist/merge.cc: it
// layers on dar_persist, which dar_core must not depend on.

Result<MiningReport> Session::FinishRun(
    Phase1Result phase1, const Relation* rel,
    const AttributePartition& partition) const {
  MiningReport report;
  report.result.phase1 = std::move(phase1);
  DAR_ASSIGN_OR_RETURN(report.result.phase2,
                       RunPhase2(report.result.phase1));
  if (rel != nullptr && config_.count_rule_support) {
    DAR_RETURN_IF_ERROR(CountRuleSupport(*rel, partition,
                                         report.result.phase1,
                                         report.result.phase2.rules));
  }
  report.telemetry = registry_->TakeSnapshot();
  if (MiningObserver* observer = observer_or_null(); observer != nullptr) {
    observer->OnRunComplete(report.telemetry);
  }
  return report;
}

}  // namespace dar
