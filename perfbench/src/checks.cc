#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "core/clustering_graph.h"
#include "core/rule_gen.h"
#include "graph/clique.h"

namespace darbench {

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void Fingerprint::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::AddDouble(double v) { Add(std::bit_cast<uint64_t>(v)); }

void Fingerprint::AddResult(const dar::Phase1Result& phase1,
                            const dar::Phase2Result& phase2) {
  using dar::CfVector;
  Add(phase1.clusters.size());
  for (const dar::FoundCluster& c : phase1.clusters.clusters()) {
    Add(c.id);
    Add(c.part);
    for (size_t p = 0; p < c.acf.layout().num_parts(); ++p) {
      const CfVector& cf = c.acf.image(p);
      Add(static_cast<uint64_t>(cf.n()));
      for (size_t d = 0; d < cf.dim(); ++d) {
        AddDouble(cf.ls()[d]);
        AddDouble(cf.ss()[d]);
        AddDouble(cf.min()[d]);
        AddDouble(cf.max()[d]);
      }
    }
  }
  for (double d0 : phase1.effective_d0) AddDouble(d0);
  Add(phase2.cliques.size());
  for (const auto& clique : phase2.cliques) {
    Add(clique.size());
    for (size_t id : clique) Add(id);
  }
  Add(phase2.rules.size());
  for (const dar::DistanceRule& rule : phase2.rules) {
    Add(rule.antecedent.size());
    for (size_t id : rule.antecedent) Add(id);
    Add(rule.consequent.size());
    for (size_t id : rule.consequent) Add(id);
    AddDouble(rule.degree);
    AddDouble(rule.cooccurrence_slack);
    Add(static_cast<uint64_t>(rule.support_count));
  }
}

void Fingerprint::AddScored(const dar::quality::ScoredRuleSet& scored) {
  for (const auto& column : scored.scores) {
    for (double v : column) AddDouble(v);
  }
  for (uint8_t r : scored.representative) Add(r);
  Add(scored.num_pruned);
}

void Fingerprint::AddDiff(const dar::quality::SnapshotDiffResult& diff) {
  Add(diff.born);
  Add(diff.died);
  Add(diff.drifted);
  Add(diff.unchanged);
}

std::vector<int32_t> AssignRows(const dar::Relation& rel,
                                const dar::AttributePartition& partition,
                                const dar::ClusterSet& clusters) {
  const size_t parts = partition.num_parts();
  const size_t rows = rel.num_rows();
  std::vector<int32_t> out(rows * parts, -1);
  const size_t workers = 4;
  const size_t per = (rows + workers - 1) / workers;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<double> buf;
      const size_t end = std::min(rows, (w + 1) * per);
      for (size_t r = w * per; r < end; ++r) {
        for (size_t p = 0; p < parts; ++p) {
          rel.ProjectRow(r, partition.part(p).columns, buf);
          auto assigned = clusters.AssignToCluster(p, buf);
          if (assigned.ok()) {
            out[r * parts + p] = static_cast<int32_t>(*assigned);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

double DistinctTupleShare(std::span<const int32_t> assignment, size_t parts) {
  const size_t rows = parts > 0 ? assignment.size() / parts : 0;
  if (rows == 0) return 0;
  std::unordered_set<uint64_t> distinct;
  for (size_t r = 0; r < rows; ++r) {
    Fingerprint f;
    for (size_t p = 0; p < parts; ++p) {
      f.Add(static_cast<uint64_t>(assignment[r * parts + p]));
    }
    distinct.insert(f.value());
  }
  return static_cast<double>(distinct.size()) / static_cast<double>(rows);
}

int64_t RecountSupport(std::span<const int32_t> assignment, size_t parts,
                       const dar::ClusterSet& clusters,
                       const dar::DistanceRule& rule) {
  std::vector<std::pair<size_t, int32_t>> need;
  for (size_t id : rule.antecedent) {
    need.emplace_back(clusters.cluster(id).part, static_cast<int32_t>(id));
  }
  for (size_t id : rule.consequent) {
    need.emplace_back(clusters.cluster(id).part, static_cast<int32_t>(id));
  }
  int64_t count = 0;
  const size_t rows = assignment.size() / parts;
  for (size_t r = 0; r < rows; ++r) {
    bool all = true;
    for (const auto& [part, id] : need) {
      if (assignment[r * parts + part] != id) {
        all = false;
        break;
      }
    }
    if (all) ++count;
  }
  return count;
}

dar::Phase2Result TracedPhase2(const dar::Phase1Result& phase1,
                               const dar::DarConfig& config,
                               dar::Executor* executor, SpanLog& log,
                               Phase2Counts& counts) {
  dar::Phase2Result out;
  dar::ClusteringGraphOptions graph_opts;
  graph_opts.metric = config.metric;
  graph_opts.prune_low_density_images = config.prune_low_density_images;
  graph_opts.executor = executor;
  for (double d0 : phase1.effective_d0) {
    graph_opts.d0.push_back(d0 * config.phase2_leniency);
  }
  std::unique_ptr<dar::ClusteringGraph> graph;
  {
    auto span = log.Span("core.edge_sweep");
    graph = std::make_unique<dar::ClusteringGraph>(phase1.clusters,
                                                   graph_opts);
  }
  out.graph_edges = graph->num_edges();

  {
    auto span = log.Span("graph.clique");
    dar::graph::CliqueOptions clique_opts;
    clique_opts.max_cliques = config.max_cliques;
    clique_opts.max_steps =
        config.max_cliques != 0 ? 64 * config.max_cliques : 0;
    clique_opts.executor = executor;
    dar::graph::CliqueResult cliques = graph->EnumerateCliques(clique_opts);
    out.clique_cap_truncated = cliques.clique_cap_truncated;
    out.clique_steps_truncated = cliques.step_budget_truncated;
    out.cliques_truncated =
        out.clique_cap_truncated || out.clique_steps_truncated;
    out.cliques.reserve(cliques.cliques.size());
    for (const auto& q : cliques.cliques) {
      out.cliques.emplace_back(q.begin(), q.end());
      if (q.size() >= 2) ++out.num_nontrivial_cliques;
    }
    counts.components = static_cast<int64_t>(cliques.num_components);
    counts.expansion_steps = static_cast<int64_t>(cliques.steps);
  }

  {
    auto span = log.Span("core.rule_gen");
    dar::RuleGenOptions rule_opts;
    rule_opts.metric = config.metric;
    rule_opts.degree_threshold = config.degree_threshold;
    rule_opts.degree_thresholds = config.degree_thresholds;
    rule_opts.max_antecedent = config.max_antecedent;
    rule_opts.max_consequent = config.max_consequent;
    rule_opts.max_rules = config.max_rules;
    dar::RuleGenResult rules =
        dar::GenerateDistanceRules(phase1.clusters, out.cliques, rule_opts);
    out.rules = std::move(rules.rules);
    out.rules_truncated = rules.truncated;
    std::sort(out.rules.begin(), out.rules.end(),
              [](const dar::DistanceRule& a, const dar::DistanceRule& b) {
                return a.degree < b.degree;
              });
    counts.degree_evaluations = rules.degree_evaluations;
  }
  counts.edge_evaluations = graph->comparisons_made();
  counts.pruned_pairs = graph->comparisons_skipped();
  counts.edges = static_cast<int64_t>(out.graph_edges);
  counts.cliques = static_cast<int64_t>(out.cliques.size());
  counts.nontrivial_cliques = static_cast<int64_t>(out.num_nontrivial_cliques);
  counts.rules = static_cast<int64_t>(out.rules.size());
  return out;
}

void AddPhase1Counts(const dar::Phase1Result& phase1,
                     std::map<std::string, double>& m) {
  int64_t inserts = 0, splits = 0, rebuilds = 0, bytes = 0, raw = 0;
  for (const auto& s : phase1.tree_stats) {
    inserts += s.points_inserted;
    splits += s.split_count;
    rebuilds += s.rebuild_count;
    bytes += static_cast<int64_t>(s.approx_bytes);
  }
  for (size_t r : phase1.raw_cluster_counts) raw += static_cast<int64_t>(r);
  m["birch.inserts"] = static_cast<double>(inserts);
  m["birch.splits"] = static_cast<double>(splits);
  m["birch.rebuilds"] = static_cast<double>(rebuilds);
  m["birch.tree_bytes"] = static_cast<double>(bytes);
  m["birch.frequent_share"] =
      raw > 0 ? static_cast<double>(phase1.clusters.size()) / raw : 0.0;
}

void AddSpeedups(const LayerTimes& parallel, const LayerTimes& serial,
                 std::map<std::string, double>& m) {
  const std::pair<const char*, const char*> layers[] = {
      {"common.speedup_feed", "birch.feed"},
      {"common.speedup_post_scan", "core.post_scan"},
      {"common.speedup_rule_gen", "core.rule_gen"}};
  for (const auto& [metric, span] : layers) {
    const double parallel_s = PerCall(parallel, span);
    m[metric] = parallel_s > 0 ? PerCall(serial, span) / parallel_s : 0.0;
  }
}

void AddPhase2Counts(const Phase2Counts& c,
                     std::map<std::string, double>& m) {
  const auto d = [](int64_t v) { return static_cast<double>(v); };
  m["core.edge_evaluations"] = d(c.edge_evaluations);
  m["core.pruned_pairs"] = d(c.pruned_pairs);
  m["core.edge_yield"] =
      c.edge_evaluations > 0 ? d(c.edges) / d(c.edge_evaluations) : 0.0;
  m["graph.components"] = d(c.components);
  m["graph.expansion_steps"] = d(c.expansion_steps);
  m["graph.cliques"] = d(c.cliques);
  m["graph.nontrivial_cliques"] = d(c.nontrivial_cliques);
  const double pairs = d(c.cliques) * d(c.cliques);
  m["core.clique_pairs"] = pairs;
  m["core.degree_evaluations"] = d(c.degree_evaluations);
  m["core.rules"] = d(c.rules);
  m["core.rule_yield"] = pairs > 0 ? d(c.rules) / pairs : 0.0;
}

dar::Result<dar::Relation> Slice(const dar::Relation& rel, size_t begin,
                                 size_t end) {
  dar::Relation out(rel.schema());
  out.Reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    DAR_RETURN_IF_ERROR(out.AppendRow(rel.Row(r)));
  }
  return out;
}

}  // namespace darbench
