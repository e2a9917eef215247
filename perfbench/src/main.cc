// darbench — the repository benchmark binary.
//
//   darbench --workload <mine_sec72|stream_drift|serve_hotswap>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--smoke] [--corrupt-reference]
//
// Prints informational lines, then one JSON object as the last line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// re-issues each facade call as the public calls it is built from, with a
// span around each, and reports the per-layer metrics. Exits 1 when any
// operation or output check failed.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace darbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::printf("info %s %.10g %s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

void Report::InfoTiming(const std::string& name, std::vector<double> samples,
                        const std::string& unit) {
  // The highest of these percentiles that still has ten samples beyond it.
  static const double kLevels[] = {0.999, 0.99, 0.9, 0.5};
  std::string tail = "none";
  const double n = static_cast<double>(samples.size());
  for (double q : kLevels) {
    if (n * (1.0 - q) >= 10.0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "p%g=%.6g", q * 100.0,
                    Quantile(samples, q));
      tail = buf;
      break;
    }
  }
  std::string list;
  if (samples.size() <= 8) {
    for (double v : samples) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6g", list.empty() ? "" : ",", v);
      list += buf;
    }
    list = " samples=" + list;
  }
  std::printf("info %s %.10g %s  p50 n=%zu tail=%s%s\n", name.c_str(),
              Median(samples), unit.c_str(), samples.size(), tail.c_str(),
              list.c_str());
}

void Report::Fail(const std::string& why, int64_t count) {
  failed_ += count;
  std::fprintf(stderr, "darbench: check failed: %s\n", why.c_str());
}

void Report::PrintResult() const {
  std::printf("info error_rate %.10g ratio\n",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0);
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", value_unit.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"birch.feed_s", "s"},
      {"birch.finish_s", "s"},
      {"birch.inserts", "count"},
      {"birch.splits", "count"},
      {"birch.rebuilds", "count"},
      {"birch.tree_bytes", "bytes"},
      {"birch.frequent_share", "ratio"},
      {"core.edge_sweep_s", "s"},
      {"core.edge_evaluations", "count"},
      {"core.pruned_pairs", "count"},
      {"core.edge_yield", "ratio"},
      {"graph.clique_s", "s"},
      {"graph.components", "count"},
      {"graph.expansion_steps", "count"},
      {"graph.cliques", "count"},
      {"graph.nontrivial_cliques", "count"},
      {"core.rule_gen_s", "s"},
      {"core.clique_pairs", "count"},
      {"core.degree_evaluations", "count"},
      {"core.rules", "count"},
      {"core.rule_yield", "ratio"},
      {"core.post_scan_s", "s"},
      {"core.post_scan_row_rules", "count"},
      {"core.distinct_tuple_share", "ratio"},
      {"quality.score_s", "s"},
      {"quality.prune_s", "s"},
      {"quality.diff_s", "s"},
      {"quality.born", "count"},
      {"quality.died", "count"},
      {"quality.drifted", "count"},
      {"quality.pruned", "count"},
      {"stream.ingest_s", "s"},
      {"stream.remine_self_s", "s"},
      {"stream.index_build_s", "s"},
      {"stream.index_query_s", "s"},
      {"stream.index_refs_per_query", "count"},
      {"stream.index_hit_yield", "ratio"},
      {"stream.retained_rows", "count"},
      {"persist.save_s", "s"},
      {"persist.restore_s", "s"},
      {"persist.checkpoint_bytes", "bytes"},
      {"persist.bytes_per_row", "B/row"},
      {"serve.lookup_s", "s"},
      {"serve.list_s", "s"},
      {"serve.transport_s", "s"},
      {"serve.point_queries", "count"},
      {"serve.rule_lists", "count"},
      {"serve.snapshot_infos", "count"},
      {"serve.unavailable", "count"},
      {"serve.shed", "count"},
      {"serve.protocol_errors", "count"},
      {"common.speedup_feed", "ratio"},
      {"common.speedup_post_scan", "ratio"},
      {"common.speedup_rule_gen", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::map<std::string, double>& values,
                  Report& report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    report.Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& metric : PerLayerMetrics()) known |= metric.first == name;
    if (!known) report.Info(name, value, "-", "not a per-layer metric");
  }
}

namespace {

int Usage() {
  std::cerr << "usage: darbench --workload <mine_sec72|stream_drift|"
               "serve_hotswap> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--smoke] [--corrupt-reference]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Now();  // pins the time base to process start
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();

  Report report;
  int rc = 0;
  if (options.workload == "mine_sec72") {
    rc = RunMineSec72(options, report);
  } else if (options.workload == "stream_drift") {
    rc = RunStreamDrift(options, report);
  } else if (options.workload == "serve_hotswap") {
    rc = RunServeHotswap(options, report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;  // could not run: no result line
  report.PrintResult();
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace darbench

int main(int argc, char** argv) { return darbench::Main(argc, argv); }
