// stream_drift — one writer feeds a StreamingMiner in a closed loop: the
// next 1,000-row batch goes in as soon as Ingest returns, Remine every
// 4,000 rows, SaveCheckpoint every 20,000 rows, then a simulated crash
// (RestoreCheckpoint of the last file and one Remine). Support counts, all
// five measures, pruning and snapshot diffing are on; 4 threads.
//
// The data is 80k rows of a 6-attribute, 4-cluster planted spec whose
// cluster means move by 0.4 of a slot at row 21k, so rules are born and
// die mid-pass. Its rows repeat almost entirely (a handful of distinct
// assignment tuples), and the support post-scan dominates each re-mine:
// this is the streaming quality path, with Phase I nearly absent.

#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "core/phase1_builder.h"
#include "core/rule_stats.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "quality/measure.h"
#include "quality/prune.h"
#include "stream/rule_index.h"
#include "stream/streaming_miner.h"

namespace darbench {
namespace {

constexpr int kThreads = 4;
constexpr size_t kRemineEveryBatches = 4;

struct StreamInput {
  dar::PlantedDataset data;
  std::vector<dar::Relation> batches;
  size_t checkpoint_every_batches = 0;
  dar::DarConfig config;
  dar::StreamConfig stream_config;
};

dar::Result<StreamInput> MakeInput(const Options& options) {
  const size_t n = options.smoke ? 8000 : 80000;
  const size_t batch_rows = options.smoke ? 250 : 1000;
  const size_t clusters = 4;
  const dar::PlantedDataSpec spec =
      dar::WbcdLikeSpec(6, clusters, 0.0, kStructureSeed);
  // The means move by 0.4 of a slot at 21/80 of the rows (21k of 80k).
  // 0.4 slot is ten cluster stddevs and more than the initial diameter, so
  // the shifted tuples form new clusters instead of widening the old ones.
  // Each pattern holds a quarter of the rows and the frequency threshold
  // is 12.5%, so the old clusters stop being frequent, and the new ones
  // start, at twice the drift row: the 44k re-mine sees every rule die and
  // be born again. A drift at 20k would put that crossover exactly on the
  // 40k re-mine, where sampling noise decides how many of both cluster sets
  // are frequent (1.4k to 6.3k rules), and the pass cost would depend on
  // the seed rather than on the code.
  const double slot = 1000.0 / static_cast<double>(clusters);
  const size_t drift_row = n * 21 / 80;
  StreamInput input;
  DAR_ASSIGN_OR_RETURN(input.data,
                       dar::GenerateDrifting(spec, n, drift_row, 0.4 * slot,
                                             options.seed + 1));
  for (size_t begin = 0; begin < n; begin += batch_rows) {
    DAR_ASSIGN_OR_RETURN(dar::Relation batch,
                         Slice(input.data.relation, begin,
                               std::min(n, begin + batch_rows)));
    input.batches.push_back(std::move(batch));
  }
  input.checkpoint_every_batches = (n / 4) / batch_rows;
  // The quality suite's settings (bench/bench_main.cc).
  dar::DarConfig& config = input.config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(6, 0.3 * slot);
  config.degree_threshold = 150.0;
  config.count_rule_support = true;
  dar::StreamConfig& sc = input.stream_config;
  sc.remine_every_rows = 0;  // the writer re-mines explicitly
  sc.score_measures = {"support", "confidence", "lift", "conviction", "chi2"};
  sc.prune_redundant = true;
  sc.prune_min_overlap = 0.5;
  sc.diff_snapshots = true;
  sc.drift_interval_tolerance = 0.25;
  sc.drift_degree_tolerance = 0.5;
  return input;
}

dar::Result<dar::Session> MakeSession(const dar::DarConfig& config,
                                      int threads) {
  return dar::Session::Builder().WithConfig(config).WithThreads(threads)
      .Build();
}

// One generation's output, fingerprinted in three parts: the mining
// result with support counts, the scores and pruning verdicts, the diff.
struct GenPrint {
  uint64_t result = 0;
  uint64_t scored = 0;
  uint64_t diff = 0;
  bool operator==(const GenPrint&) const = default;
};

GenPrint PrintOf(const dar::Phase1Result& phase1,
                 const dar::Phase2Result& phase2,
                 const dar::quality::ScoredRuleSet* scored,
                 const dar::quality::SnapshotDiffResult* diff) {
  GenPrint out;
  Fingerprint r;
  r.AddResult(phase1, phase2);
  out.result = r.value();
  if (scored != nullptr) {
    Fingerprint s;
    s.AddScored(*scored);
    out.scored = s.value();
  }
  if (diff != nullptr) {
    Fingerprint d;
    d.AddDiff(*diff);
    out.diff = d.value();
  }
  return out;
}

GenPrint PrintOf(const dar::RuleSnapshot& snapshot) {
  return PrintOf(snapshot.phase1(), snapshot.phase2(), snapshot.scored(),
                 snapshot.diff());
}

struct PassResult {
  double seconds = 0;          // ingest, re-mines and checkpoints
  double recover_seconds = 0;  // RestoreCheckpoint + the first Remine
  std::vector<double> remine_seconds;
  std::vector<GenPrint> generations;
  GenPrint recovered;
  size_t born = 0, died = 0, drifted = 0, pruned = 0;
  double row_rules = 0;  // post-scan work: rows x rules, summed
  std::shared_ptr<const dar::RuleSnapshot> last;
};

// The pass as a user runs it: facade calls only.
dar::Result<PassResult> FacadePass(const StreamInput& in,
                                   const dar::Session& session,
                                   const std::string& checkpoint) {
  PassResult out;
  dar::Stopwatch pass;
  DAR_ASSIGN_OR_RETURN(
      std::unique_ptr<dar::StreamingMiner> stream,
      session.OpenStream(in.data.relation.schema(), in.data.partition,
                         in.stream_config));
  for (size_t b = 0; b < in.batches.size(); ++b) {
    DAR_RETURN_IF_ERROR(stream->Ingest(in.batches[b]));
    if ((b + 1) % kRemineEveryBatches == 0) {
      dar::Stopwatch watch;
      DAR_ASSIGN_OR_RETURN(out.last, stream->Remine());
      out.remine_seconds.push_back(watch.ElapsedSeconds());
      out.generations.push_back(PrintOf(*out.last));
      out.row_rules += static_cast<double>(out.last->rows_ingested()) *
                       static_cast<double>(out.last->rules().size());
      if (const auto* diff = out.last->diff(); diff != nullptr) {
        out.born += diff->born;
        out.died += diff->died;
        out.drifted += diff->drifted;
      }
      out.pruned += out.last->scored()->num_pruned;
    }
    if ((b + 1) % in.checkpoint_every_batches == 0) {
      DAR_RETURN_IF_ERROR(stream->SaveCheckpoint(checkpoint));
    }
  }
  out.seconds = pass.ElapsedSeconds();
  stream.reset();  // the crash: only the checkpoint file survives

  dar::Stopwatch recover;
  DAR_ASSIGN_OR_RETURN(dar::RestoredStream restored,
                       session.RestoreCheckpoint(checkpoint));
  DAR_ASSIGN_OR_RETURN(auto snapshot, restored.stream->Remine());
  out.recover_seconds = recover.ElapsedSeconds();
  out.recovered = PrintOf(*snapshot);
  return out;
}

// The decomposed pass's shadow of the stream's writer-side state.
struct Shadow {
  dar::Phase1Builder builder;
  dar::Relation retained;
  dar::quality::MeasureRegistry measures;
  std::optional<dar::Phase1Result> prev_phase1;
  std::vector<dar::DistanceRule> prev_rules;
  uint64_t generation = 0;
};

struct TracedPassResult {
  double seconds = 0;  // whole pass and recovery, minus stream upkeep
  std::vector<GenPrint> generations;
  GenPrint recovered;
  size_t born = 0, died = 0, drifted = 0, pruned = 0;
  dar::Phase1Result last_phase1;
  Phase2Counts last_counts;
  int64_t checkpoint_bytes = 0;
  int64_t retained_rows = 0;
};

// StreamingMiner::Remine re-issued as its public calls: Snapshot on the
// shadow builder, Phase II, the post-scan, scoring, pruning, the diff and
// the rule index.
dar::Result<GenPrint> TracedRemine(const StreamInput& in, Shadow& shadow,
                                   dar::Executor* executor, SpanLog& log,
                                   TracedPassResult& out) {
  const dar::StreamConfig& sc = in.stream_config;
  auto remine = log.Span("stream.remine");
  dar::Phase1Result phase1;
  {
    auto span = log.Span("birch.finish");
    DAR_ASSIGN_OR_RETURN(phase1, shadow.builder.Snapshot());
  }
  dar::Phase2Result phase2 =
      TracedPhase2(phase1, in.config, executor, log, out.last_counts);
  std::vector<dar::RuleStats> stats;
  {
    auto span = log.Span("core.post_scan");
    DAR_ASSIGN_OR_RETURN(
        stats, dar::ComputeRuleStats(shadow.retained, in.data.partition,
                                     phase1.clusters, phase2.rules,
                                     executor));
    for (size_t k = 0; k < phase2.rules.size(); ++k) {
      phase2.rules[k].support_count = stats[k].both;
    }
  }
  dar::quality::ScoredRuleSet scored;
  {
    auto span = log.Span("quality.score");
    DAR_ASSIGN_OR_RETURN(scored, dar::quality::ScoreRules(
                                     std::move(stats), shadow.measures,
                                     sc.score_measures));
  }
  {
    auto span = log.Span("quality.prune");
    dar::quality::PruneOptions prune;
    prune.min_overlap = sc.prune_min_overlap;
    DAR_ASSIGN_OR_RETURN(
        dar::quality::PruneResult pruned,
        dar::quality::PruneRedundant(phase1.clusters, phase2.rules,
                                     scored.scores, prune));
    scored.representative = std::move(pruned.representative);
    scored.num_pruned = pruned.num_pruned;
  }
  const uint64_t generation = ++shadow.generation;
  std::optional<dar::quality::SnapshotDiffResult> diff;
  if (shadow.prev_phase1) {
    auto span = log.Span("quality.diff");
    dar::quality::DiffOptions options;
    options.interval_tolerance = sc.drift_interval_tolerance;
    options.degree_tolerance = sc.drift_degree_tolerance;
    DAR_ASSIGN_OR_RETURN(
        diff, dar::quality::DiffRuleSets(
                  shadow.prev_phase1->clusters, shadow.prev_rules,
                  generation - 1, phase1.clusters, phase2.rules, generation,
                  options));
  }
  {
    auto span = log.Span("stream.index_build");
    const dar::RuleIndex index =
        dar::RuleIndex::Build(phase1.clusters, phase2.rules,
                              in.data.partition);
    (void)index;
  }
  const GenPrint print =
      PrintOf(phase1, phase2, &scored, diff ? &*diff : nullptr);
  if (diff) {
    out.born += diff->born;
    out.died += diff->died;
    out.drifted += diff->drifted;
  }
  out.pruned += scored.num_pruned;
  shadow.prev_rules = phase2.rules;
  shadow.prev_phase1 = std::move(phase1);
  return print;
}

// The pass re-issued as public calls with spans. A real stream is kept in
// step only so SaveCheckpoint and RestoreCheckpoint have something to
// save; its upkeep (Ingest, and a Remine before each checkpoint so the
// file carries a snapshot as the facade pass's does) is timed and left out
// of the pass time.
dar::Result<TracedPassResult> TracedPass(const StreamInput& in,
                                         const dar::Session& session,
                                         SpanLog& log,
                                         const std::string& checkpoint) {
  TracedPassResult out;
  dar::Executor* executor = &session.executor();
  const dar::Schema& schema = in.data.relation.schema();
  dar::Stopwatch pass;
  dar::Stopwatch upkeep_watch;
  double upkeep = 0;
  DAR_ASSIGN_OR_RETURN(
      dar::Phase1Builder builder,
      dar::Phase1Builder::Make(in.config, schema, in.data.partition,
                               executor));
  Shadow shadow{std::move(builder), dar::Relation(schema), {}, {}, {}, 0};

  upkeep_watch.Reset();
  DAR_ASSIGN_OR_RETURN(
      std::unique_ptr<dar::StreamingMiner> stream,
      session.OpenStream(schema, in.data.partition, in.stream_config));
  upkeep += upkeep_watch.ElapsedSeconds();

  for (size_t b = 0; b < in.batches.size(); ++b) {
    const dar::Relation& batch = in.batches[b];
    log.BeginOp();
    {
      auto ingest = log.Span("stream.ingest");
      {
        auto span = log.Span("birch.feed");
        DAR_RETURN_IF_ERROR(shadow.builder.AddRelation(batch));
      }
      shadow.retained.Reserve(shadow.retained.num_rows() + batch.num_rows());
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        DAR_RETURN_IF_ERROR(shadow.retained.AppendRow(batch.Row(r)));
      }
    }
    upkeep_watch.Reset();
    DAR_RETURN_IF_ERROR(stream->Ingest(batch));
    upkeep += upkeep_watch.ElapsedSeconds();

    if ((b + 1) % kRemineEveryBatches == 0) {
      log.BeginOp();
      DAR_ASSIGN_OR_RETURN(GenPrint print,
                           TracedRemine(in, shadow, executor, log, out));
      out.generations.push_back(print);
    }
    if ((b + 1) % in.checkpoint_every_batches == 0) {
      upkeep_watch.Reset();
      DAR_ASSIGN_OR_RETURN(auto published, stream->Remine());
      (void)published;
      upkeep += upkeep_watch.ElapsedSeconds();
      log.BeginOp();
      auto span = log.Span("persist.save");
      DAR_RETURN_IF_ERROR(stream->SaveCheckpoint(checkpoint));
    }
  }
  stream.reset();
  out.last_phase1 = *shadow.prev_phase1;
  out.retained_rows = static_cast<int64_t>(shadow.retained.num_rows());
  out.checkpoint_bytes =
      static_cast<int64_t>(std::filesystem::file_size(checkpoint));

  // The crash: restore from the file, then re-mine. The shadow holds the
  // state the checkpoint recorded, so the re-mine is decomposed on it.
  log.BeginOp();
  {
    auto span = log.Span("persist.restore");
    DAR_ASSIGN_OR_RETURN(dar::RestoredStream restored,
                         session.RestoreCheckpoint(checkpoint));
    if (restored.stream->rows_ingested() != out.retained_rows) {
      return dar::Status::Internal("restored stream lost rows");
    }
  }
  log.BeginOp();
  DAR_ASSIGN_OR_RETURN(out.recovered,
                       TracedRemine(in, shadow, executor, log, out));
  out.seconds = pass.ElapsedSeconds() - upkeep;
  return out;
}

void PrintProperties(const StreamInput& in, const dar::Phase1Result& phase1,
                     size_t rules, Report& report) {
  const std::vector<int32_t> assignment =
      AssignRows(in.data.relation, in.data.partition, phase1.clusters);
  int64_t rebuilds = 0;
  for (const auto& stats : phase1.tree_stats) rebuilds += stats.rebuild_count;
  report.Info("input.rows", static_cast<double>(in.data.relation.num_rows()),
              "count");
  report.Info("input.distinct_tuple_share",
              DistinctTupleShare(assignment, in.data.partition.num_parts()),
              "ratio");
  report.Info("input.phase1_rebuilds", static_cast<double>(rebuilds),
              "count");
  report.Info("input.clusters", static_cast<double>(phase1.clusters.size()),
              "count");
  report.Info("input.rules", static_cast<double>(rules), "count");
}

// The pass's last snapshot must equal a one-shot Mine over the same rows,
// the recovered stream must re-mine to that snapshot, and the drift must
// show as born and died rules.
void CheckPass(const PassResult& pass, uint64_t reference, Report& report) {
  report.Attempt(3);
  if (pass.generations.empty()) {
    report.Fail("stream_drift: the pass published nothing", 3);
    return;
  }
  const GenPrint& last = pass.generations.back();
  if (last.result != reference) {
    report.Fail("stream_drift: last snapshot differs from Session::Mine");
  }
  if (pass.recovered.result != last.result ||
      pass.recovered.scored != last.scored) {
    report.Fail("stream_drift: recovered stream re-mines to another snapshot");
  }
  if (pass.born == 0 || pass.died == 0) {
    report.Fail("stream_drift: drift produced no born or no died rule");
  }
}

dar::Result<uint64_t> ReferencePrint(const StreamInput& in,
                                     const Options& options) {
  DAR_ASSIGN_OR_RETURN(dar::Session session, MakeSession(in.config, kThreads));
  DAR_ASSIGN_OR_RETURN(dar::MiningReport mined,
                       session.Mine(in.data.relation, in.data.partition));
  Fingerprint f;
  f.AddResult(mined.result.phase1, mined.result.phase2);
  if (options.corrupt_reference) f.Add(1);
  return f.value();
}

int RunUntraced(const Options& options, Report& report) {
  std::optional<StreamInput> input;
  std::optional<dar::Session> session;
  auto setups = TimedSetUps([&]() -> dar::Status {
    DAR_ASSIGN_OR_RETURN(input, MakeInput(options));
    DAR_ASSIGN_OR_RETURN(dar::Session built,
                         MakeSession(input->config, kThreads));
    session.emplace(std::move(built));
    return dar::Status::OK();
  });
  if (!setups.ok()) {
    std::fprintf(stderr, "stream_drift: %s\n",
                 setups.status().ToString().c_str());
    return 1;
  }
  const std::string checkpoint = options.work_dir + "/stream_drift.ckpt";

  std::vector<PassResult> passes;
  dar::Stopwatch window;
  while (passes.empty() || window.ElapsedSeconds() < options.seconds) {
    report.Attempt();
    auto pass = FacadePass(*input, *session, checkpoint);
    if (!pass.ok()) {
      report.Fail("stream_drift: " + pass.status().ToString());
      break;
    }
    passes.push_back(std::move(*pass));
  }
  const double peak_rss = PeakRssMb();
  std::filesystem::remove(checkpoint);
  if (passes.empty()) return 0;

  auto reference = ReferencePrint(*input, options);
  if (!reference.ok()) {
    report.Fail("stream_drift: reference Mine: " +
                reference.status().ToString());
    return 0;
  }
  for (const PassResult& pass : passes) CheckPass(pass, *reference, report);

  const PassResult& first = passes.front();
  PrintProperties(*input, first.last->phase1(), first.last->rules().size(),
                  report);
  report.Info("input.post_scan_row_rules", first.row_rules, "count",
              "rows x rules summed over the pass's re-mines");
  report.Info("quality.born", static_cast<double>(first.born), "count");
  report.Info("quality.died", static_cast<double>(first.died), "count");

  const double rows = static_cast<double>(input->data.relation.num_rows());
  std::vector<double> rows_per_s, remines, recovers;
  for (const PassResult& pass : passes) {
    rows_per_s.push_back(rows / pass.seconds);
    remines.insert(remines.end(), pass.remine_seconds.begin(),
                   pass.remine_seconds.end());
    recovers.push_back(pass.recover_seconds);
  }
  report.InfoTiming("setup_s", *setups);
  report.InfoTiming("ingest_rows_per_s", rows_per_s, "rows/s");
  report.InfoTiming("remine_p50_s", remines);
  report.InfoTiming("recover_s", recovers);
  report.Metric("setup_s", Median(*setups), "s");
  report.Metric("mine_p50_s", Median(remines), "s");
  report.Metric("throughput_per_s", Median(rows_per_s), "1/s");
  report.Metric("peak_rss_mb", peak_rss, "MB");
  return 0;
}

int RunTraced(const Options& options, Report& report) {
  auto made = MakeInput(options);
  if (!made.ok()) {
    std::fprintf(stderr, "stream_drift: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  const StreamInput input = std::move(*made);
  auto parallel = MakeSession(input.config, kThreads);
  auto serial = MakeSession(input.config, 1);
  if (!parallel.ok() || !serial.ok()) {
    std::fprintf(stderr, "stream_drift: session set-up failed\n");
    return 1;
  }
  const std::string checkpoint = options.work_dir + "/stream_drift.ckpt";

  // Facade and decomposed passes alternate twice at 4 threads (the second
  // pair is reported, the first shows warm-up), then one decomposed pass
  // at 1 thread.
  SpanLog cold_log(true, 0);
  SpanLog warm_log(true, 1'000'000);
  SpanLog serial_log(true, 2'000'000);
  std::vector<double> facade_seconds, traced_seconds;
  std::optional<TracedPassResult> warm;
  auto compare = [&](const PassResult& facade, const TracedPassResult& traced,
                     const char* label) {
    report.Attempt();
    if (traced.generations != facade.generations ||
        !(traced.recovered == facade.recovered)) {
      report.Fail(std::string("stream_drift: decomposed pass at ") + label +
                  " differs from the facade pass");
    }
  };
  std::optional<PassResult> facade_ref;
  for (int pair = 0; pair < 2; ++pair) {
    report.Attempt();
    auto facade = FacadePass(input, *parallel, checkpoint);
    if (!facade.ok()) {
      report.Fail("stream_drift: " + facade.status().ToString());
      return 0;
    }
    facade_seconds.push_back(facade->seconds + facade->recover_seconds);
    auto traced = TracedPass(input, *parallel, pair == 0 ? cold_log : warm_log,
                             checkpoint);
    if (!traced.ok()) {
      report.Fail("stream_drift: traced pass: " + traced.status().ToString());
      return 0;
    }
    traced_seconds.push_back(traced->seconds);
    compare(*facade, *traced, "4 threads");
    if (pair == 1) warm = std::move(*traced);
    facade_ref = std::move(*facade);
  }
  auto single = TracedPass(input, *serial, serial_log, checkpoint);
  std::filesystem::remove(checkpoint);
  if (!single.ok()) {
    report.Fail("stream_drift: traced pass: " + single.status().ToString());
    return 0;
  }
  compare(*facade_ref, *single, "1 thread");

  PrintProperties(input, warm->last_phase1,
                  static_cast<size_t>(warm->last_counts.rules), report);

  const SpanLog* warm_logs[] = {&warm_log};
  const SpanLog* serial_logs[] = {&serial_log};
  const LayerTimes times = SelfTimes(warm_logs);
  double layer_sum = 0;
  for (const auto& [name, t] : times) layer_sum += t.self_seconds;

  std::map<std::string, double> m;
  const dar::Phase1Result& p1 = warm->last_phase1;
  for (const char* layer :
       {"birch.feed", "birch.finish", "core.edge_sweep", "graph.clique",
        "core.rule_gen", "core.post_scan", "quality.score", "quality.prune",
        "quality.diff", "stream.index_build", "persist.save",
        "persist.restore"}) {
    m[std::string(layer) + "_s"] = PerCall(times, layer);
  }
  m["stream.ingest_s"] = PerCall(times, "stream.ingest");
  m["stream.remine_self_s"] = PerCall(times, "stream.remine");
  AddPhase1Counts(p1, m);
  AddPhase2Counts(warm->last_counts, m);
  m["core.post_scan_row_rules"] = static_cast<double>(warm->retained_rows) *
                                  static_cast<double>(warm->last_counts.rules);
  const std::vector<int32_t> assignment =
      AssignRows(input.data.relation, input.data.partition, p1.clusters);
  m["core.distinct_tuple_share"] =
      DistinctTupleShare(assignment, input.data.partition.num_parts());
  m["quality.born"] = static_cast<double>(warm->born);
  m["quality.died"] = static_cast<double>(warm->died);
  m["quality.drifted"] = static_cast<double>(warm->drifted);
  m["quality.pruned"] = static_cast<double>(warm->pruned);
  m["stream.retained_rows"] = static_cast<double>(warm->retained_rows);
  m["persist.checkpoint_bytes"] = static_cast<double>(warm->checkpoint_bytes);
  m["persist.bytes_per_row"] = static_cast<double>(warm->checkpoint_bytes) /
                               static_cast<double>(warm->retained_rows);
  AddSpeedups(times, SelfTimes(serial_logs), m);
  m["trace.coverage"] = layer_sum / traced_seconds[1];
  m["trace.overhead_share"] =
      (traced_seconds[1] - facade_seconds[1]) / facade_seconds[1];
  report.Info("trace.cold_overhead_share",
              (traced_seconds[0] - facade_seconds[0]) / facade_seconds[0],
              "ratio", "first facade/decomposition pair");
  for (const auto& [name, t] : times) {
    report.Info("share." + name, t.self_seconds / traced_seconds[1], "ratio");
  }
  const SpanLog* all_logs[] = {&cold_log, &warm_log, &serial_log};
  WriteSpans(options.work_dir + "/spans.jsonl", "stream_drift", all_logs);
  EmitPerLayer(m, report);
  return 0;
}

}  // namespace

int RunStreamDrift(const Options& options, Report& report) {
  return options.trace ? RunTraced(options, report)
                       : RunUntraced(options, report);
}

}  // namespace darbench
