// mine_sec72 — back-to-back Session::Mine calls, one caller, closed loop,
// over the paper's §7.2 data (30 attributes x 35 planted clusters, 90
// partial patterns, 20% outliers), support counts on, 4 executor threads.
//
// It is the paper's own experiment and the only workload where Phase I
// feed, rule generation and the support post-scan all carry weight; its
// rows never repeat an assignment tuple, so the post-scan sees no sharing.

#include <optional>

#include "bench.h"
#include "core/phase1_builder.h"
#include "core/rule_stats.h"
#include "core/session.h"
#include "datagen/planted.h"

namespace darbench {
namespace {

constexpr int kThreads = 4;

struct MineInput {
  dar::PlantedDataset data;
  dar::DarConfig config;
};

dar::Result<MineInput> MakeInput(const Options& options) {
  const size_t n = options.smoke ? 20000 : 200000;
  DAR_ASSIGN_OR_RETURN(
      dar::PlantedDataSpec spec,
      dar::WbcdPartialPatternSpec(30, 35, 90, 6, 0.2, kStructureSeed));
  MineInput input;
  DAR_ASSIGN_OR_RETURN(input.data,
                       dar::GeneratePlanted(spec, n, options.seed + n));
  // The thresholds of bench/sec72_phase2_stability.cc, except D0: 110
  // instead of 250. At 250 the rule set truncates at max_rules and the
  // post-scan dominates everything else. Around here the rule count
  // roughly quintuples per 10 units of D0 (110: about 400 rules, 120:
  // 1.8k-2.7k, 130: 7k-8.5k), so sampling noise in the degrees moves it
  // by about a fifth from seed to seed; at 110 that noise is a few percent
  // of a Mine instead of a fifth of it.
  dar::DarConfig& config = input.config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.005;
  config.refine_clusters = true;
  config.density_thresholds.assign(30, 125.0);
  config.phase2_leniency = 2.0;
  config.degree_threshold = 110.0;
  config.count_rule_support = true;
  return input;
}

dar::Result<dar::Session> MakeSession(const dar::DarConfig& config,
                                      int threads) {
  return dar::Session::Builder().WithConfig(config).WithThreads(threads)
      .Build();
}

uint64_t FingerprintOf(const dar::Phase1Result& phase1,
                       const dar::Phase2Result& phase2) {
  Fingerprint f;
  f.AddResult(phase1, phase2);
  return f.value();
}

// Session::Mine re-issued as its public calls, with a span around each.
struct Decomposed {
  dar::Phase1Result phase1;
  dar::Phase2Result phase2;
  Phase2Counts counts;
  double seconds = 0;
};

dar::Result<Decomposed> TracedMine(const MineInput& input,
                                   dar::Executor* executor, SpanLog& log) {
  const dar::Relation& rel = input.data.relation;
  const dar::AttributePartition& partition = input.data.partition;
  Decomposed out;
  dar::Stopwatch watch;
  log.BeginOp();
  {
    auto root = log.Span("mine");
    DAR_ASSIGN_OR_RETURN(
        dar::Phase1Builder builder,
        dar::Phase1Builder::Make(input.config, rel.schema(), partition,
                                 executor));
    {
      auto span = log.Span("birch.feed");
      DAR_RETURN_IF_ERROR(builder.AddRelation(rel));
    }
    {
      auto span = log.Span("birch.finish");
      DAR_ASSIGN_OR_RETURN(out.phase1, std::move(builder).Finish());
    }
    out.phase2 =
        TracedPhase2(out.phase1, input.config, executor, log, out.counts);
    {
      auto span = log.Span("core.post_scan");
      DAR_ASSIGN_OR_RETURN(
          std::vector<dar::RuleStats> stats,
          dar::ComputeRuleStats(rel, partition, out.phase1.clusters,
                                out.phase2.rules, executor));
      for (size_t k = 0; k < out.phase2.rules.size(); ++k) {
        out.phase2.rules[k].support_count = stats[k].both;
      }
    }
  }
  out.seconds = watch.ElapsedSeconds();
  return out;
}

// Input properties, printed on every run (not gated).
void PrintProperties(const MineInput& input, const dar::Phase1Result& phase1,
                     const dar::Phase2Result& phase2,
                     std::span<const int32_t> assignment, Report& report) {
  int64_t rebuilds = 0;
  for (const auto& stats : phase1.tree_stats) rebuilds += stats.rebuild_count;
  report.Info("input.rows", static_cast<double>(input.data.relation.num_rows()),
              "count");
  report.Info("input.distinct_tuple_share",
              DistinctTupleShare(assignment, input.data.partition.num_parts()),
              "ratio");
  report.Info("input.phase1_rebuilds", static_cast<double>(rebuilds), "count");
  report.Info("input.clusters", static_cast<double>(phase1.clusters.size()),
              "count");
  report.Info("input.rules", static_cast<double>(phase2.rules.size()),
              "count");
}

// Output checks every untraced run makes on its first Mine: no truncation,
// every degree within D0, and the support counts of a spread of rules
// against an independent recount from the benchmark's own assignment.
void CheckMine(const Options& options, const MineInput& input,
               const dar::Phase1Result& phase1,
               const dar::Phase2Result& phase2,
               std::span<const int32_t> assignment, Report& report) {
  const size_t parts = input.data.partition.num_parts();
  report.Attempt();
  if (phase2.rules.empty() || phase2.rules_truncated ||
      phase2.cliques_truncated) {
    report.Fail("mine_sec72: empty or truncated rule set");
  }
  for (const dar::DistanceRule& rule : phase2.rules) {
    if (rule.degree > input.config.degree_threshold) {
      report.Fail("mine_sec72: rule degree above D0");
      break;
    }
  }
  const size_t step = std::max<size_t>(1, phase2.rules.size() / 64);
  for (size_t k = 0; k < phase2.rules.size(); k += step) {
    report.Attempt();
    int64_t expected =
        RecountSupport(assignment, parts, phase1.clusters, phase2.rules[k]);
    if (options.corrupt_reference && k == 0) ++expected;
    if (expected != phase2.rules[k].support_count) {
      report.Fail("mine_sec72: support count of rule " + std::to_string(k) +
                  " is " + std::to_string(phase2.rules[k].support_count) +
                  ", recount gives " + std::to_string(expected));
    }
  }
}

int RunUntraced(const Options& options, Report& report) {
  std::optional<MineInput> input;
  std::optional<dar::Session> session;
  auto setups = TimedSetUps([&]() -> dar::Status {
    DAR_ASSIGN_OR_RETURN(input, MakeInput(options));
    DAR_ASSIGN_OR_RETURN(dar::Session built,
                         MakeSession(input->config, kThreads));
    session.emplace(std::move(built));
    return dar::Status::OK();
  });
  if (!setups.ok()) {
    std::fprintf(stderr, "mine_sec72: %s\n", setups.status().ToString().c_str());
    return 1;
  }

  const dar::Relation& rel = input->data.relation;
  std::vector<double> mine_seconds;
  std::optional<dar::MiningReport> first;
  uint64_t reference = 0;
  dar::Stopwatch window;
  while (mine_seconds.empty() || window.ElapsedSeconds() < options.seconds) {
    report.Attempt();
    dar::Stopwatch watch;
    auto mined = session->Mine(rel, input->data.partition);
    const double seconds = watch.ElapsedSeconds();
    if (!mined.ok()) {
      report.Fail("mine_sec72: Mine: " + mined.status().ToString());
      break;
    }
    mine_seconds.push_back(seconds);
    const uint64_t fp =
        FingerprintOf(mined->result.phase1, mined->result.phase2);
    if (!first) {
      first = std::move(*mined);
      reference = fp;
    } else if (fp != reference) {
      report.Fail("mine_sec72: Mine is not deterministic across calls");
    }
  }
  const double peak_rss = PeakRssMb();
  if (!first) return 0;  // the failure is already recorded

  const dar::Phase1Result& phase1 = first->result.phase1;
  const dar::Phase2Result& phase2 = first->result.phase2;
  const std::vector<int32_t> assignment =
      AssignRows(rel, input->data.partition, phase1.clusters);
  CheckMine(options, *input, phase1, phase2, assignment, report);
  PrintProperties(*input, phase1, phase2, assignment, report);

  const double rows = static_cast<double>(rel.num_rows());
  const double mine_p50 = Median(mine_seconds);
  report.InfoTiming("setup_s", *setups);
  report.InfoTiming("mine_s", mine_seconds);
  report.Metric("setup_s", Median(*setups), "s");
  report.Metric("mine_p50_s", mine_p50, "s");
  report.Metric("throughput_per_s", rows / mine_p50, "1/s");
  report.Metric("peak_rss_mb", peak_rss, "MB");
  return 0;
}

int RunTraced(const Options& options, Report& report) {
  auto made = MakeInput(options);
  if (!made.ok()) {
    std::fprintf(stderr, "mine_sec72: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const MineInput input = std::move(*made);
  auto parallel = MakeSession(input.config, kThreads);
  auto serial = MakeSession(input.config, 1);
  if (!parallel.ok() || !serial.ok()) {
    std::fprintf(stderr, "mine_sec72: session set-up failed\n");
    return 1;
  }
  const dar::Relation& rel = input.data.relation;

  // Facade and decomposition alternate twice at 4 threads; the second pair
  // gives the layer times and the tracing overhead, the first pair shows
  // how much of any gap is warm-up. Then one decomposition at 1 thread.
  SpanLog cold_log(true, 0);
  SpanLog warm_log(true, 1'000'000);
  SpanLog serial_log(true, 2'000'000);
  std::vector<double> facade_seconds;
  std::vector<double> traced_seconds;
  uint64_t reference = 0;
  std::optional<Decomposed> warm;
  for (int pair = 0; pair < 2; ++pair) {
    report.Attempt();
    dar::Stopwatch watch;
    auto mined = parallel->Mine(rel, input.data.partition);
    facade_seconds.push_back(watch.ElapsedSeconds());
    if (!mined.ok()) {
      report.Fail("mine_sec72: Mine: " + mined.status().ToString());
      return 0;
    }
    const uint64_t fp =
        FingerprintOf(mined->result.phase1, mined->result.phase2);
    if (pair == 0) reference = fp;
    if (fp != reference) report.Fail("mine_sec72: Mine is not deterministic");

    report.Attempt();
    auto traced = TracedMine(input, &parallel->executor(),
                             pair == 0 ? cold_log : warm_log);
    if (!traced.ok()) {
      report.Fail("mine_sec72: traced Mine: " + traced.status().ToString());
      return 0;
    }
    traced_seconds.push_back(traced->seconds);
    if (FingerprintOf(traced->phase1, traced->phase2) != reference) {
      report.Fail("mine_sec72: decomposition at 4 threads differs from "
                  "Session::Mine");
    }
    if (pair == 1) warm = std::move(*traced);
  }
  report.Attempt();
  auto single = TracedMine(input, &serial->executor(), serial_log);
  if (!single.ok()) {
    report.Fail("mine_sec72: traced Mine: " + single.status().ToString());
    return 0;
  }
  if (FingerprintOf(single->phase1, single->phase2) != reference) {
    report.Fail("mine_sec72: decomposition at 1 thread differs from "
                "Session::Mine at 4 threads");
  }

  const std::vector<int32_t> assignment =
      AssignRows(rel, input.data.partition, warm->phase1.clusters);
  PrintProperties(input, warm->phase1, warm->phase2, assignment, report);

  const SpanLog* warm_logs[] = {&warm_log};
  const SpanLog* serial_logs[] = {&serial_log};
  const LayerTimes times = SelfTimes(warm_logs);
  double layer_sum = 0;
  for (const auto& [name, t] : times) {
    if (name != "mine") layer_sum += t.self_seconds;
  }

  std::map<std::string, double> m;
  for (const char* layer : {"birch.feed", "birch.finish", "core.edge_sweep",
                            "graph.clique", "core.rule_gen",
                            "core.post_scan"}) {
    m[std::string(layer) + "_s"] = PerCall(times, layer);
  }
  AddPhase1Counts(warm->phase1, m);
  AddPhase2Counts(warm->counts, m);
  m["core.post_scan_row_rules"] = static_cast<double>(rel.num_rows()) *
                                  static_cast<double>(warm->counts.rules);
  m["core.distinct_tuple_share"] =
      DistinctTupleShare(assignment, input.data.partition.num_parts());
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
  WriteSpans(options.work_dir + "/spans.jsonl", "mine_sec72", all_logs);
  EmitPerLayer(m, report);
  return 0;
}

}  // namespace

int RunMineSec72(const Options& options, Report& report) {
  return options.trace ? RunTraced(options, report)
                       : RunUntraced(options, report);
}

}  // namespace darbench
