// dar_mine: a small command-line miner. Reads a CSV, derives thresholds
// with the advisor (unless overridden), mines distance-based association
// rules, and prints a text summary or a JSON report.
//
// Usage:
//   dar_mine <file.csv> [options]
//     --nominal=col1,col2     treat these columns as nominal
//     --frequency=0.05        cluster frequency threshold s0 (fraction)
//     --memory-mb=32          Phase-I memory budget
//     --max-antecedent=3      rule arity caps
//     --max-consequent=2
//     --support               post-scan support counting
//     --threads=4             worker threads (0 = hardware, default 1);
//                             the output is identical for every value
//     --json                  emit the JSON report instead of the summary
//
// Example:
//   ./build/examples/dar_mine policies.csv --nominal=region --json

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/advisor.h"
#include "core/report.h"
#include "core/session.h"
#include "relation/csv.h"

namespace {

struct CliOptions {
  std::string path;
  std::vector<std::string> nominal;
  double frequency = 0.05;
  size_t memory_mb = 32;
  size_t max_antecedent = 3;
  size_t max_consequent = 2;
  int threads = 1;
  bool support = false;
  bool json = false;
};

bool ParseArgs(int argc, char** argv, CliOptions& opts, std::string& error) {
  using dar::Split;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--nominal=", 0) == 0) {
      opts.nominal = Split(value_of("--nominal="), ',');
    } else if (arg.rfind("--frequency=", 0) == 0) {
      opts.frequency = std::strtod(value_of("--frequency=").c_str(), nullptr);
    } else if (arg.rfind("--memory-mb=", 0) == 0) {
      opts.memory_mb =
          std::strtoull(value_of("--memory-mb=").c_str(), nullptr, 10);
    } else if (arg.rfind("--max-antecedent=", 0) == 0) {
      opts.max_antecedent =
          std::strtoull(value_of("--max-antecedent=").c_str(), nullptr, 10);
    } else if (arg.rfind("--max-consequent=", 0) == 0) {
      opts.max_consequent =
          std::strtoull(value_of("--max-consequent=").c_str(), nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.threads =
          static_cast<int>(std::strtol(value_of("--threads=").c_str(),
                                       nullptr, 10));
    } else if (arg == "--support") {
      opts.support = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown option: " + arg;
      return false;
    } else if (opts.path.empty()) {
      opts.path = arg;
    } else {
      error = "unexpected argument: " + arg;
      return false;
    }
  }
  if (opts.path.empty()) {
    error = "usage: dar_mine <file.csv> [--nominal=a,b] [--frequency=0.05] "
            "[--memory-mb=32] [--threads=N] [--support] [--json]";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dar;

  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, cli, error)) {
    std::cerr << error << "\n";
    return 2;
  }

  CsvOptions csv;
  csv.nominal_columns = cli.nominal;
  auto table = ReadCsvFile(cli.path, csv);
  if (!table.ok()) {
    std::cerr << "reading " << cli.path << ": " << table.status() << "\n";
    return 1;
  }
  const Schema& schema = table->relation.schema();
  AttributePartition partition = AttributePartition::SingletonPartition(schema);
  std::cerr << "read " << table->relation.num_rows() << " rows over "
            << schema.ToString() << "\n";

  auto advice = SuggestThresholds(table->relation, partition);
  if (!advice.ok()) {
    std::cerr << "advisor: " << advice.status() << "\n";
    return 1;
  }
  std::cerr << advice->rationale;

  DarConfig config;
  config.memory_budget_bytes = cli.memory_mb << 20;
  config.frequency_fraction = cli.frequency;
  config.initial_diameters = advice->initial_diameters;
  config.density_thresholds = advice->density_thresholds;
  config.degree_thresholds = advice->degree_thresholds;
  config.max_antecedent = cli.max_antecedent;
  config.max_consequent = cli.max_consequent;
  config.count_rule_support = cli.support;
  config.refine_clusters = true;

  auto session = Session::Builder()
                     .WithConfig(config)
                     .WithThreads(cli.threads)
                     .Build();
  if (!session.ok()) {
    std::cerr << "config: " << session.status() << "\n";
    return 1;
  }
  auto result = session->Mine(table->relation, partition);
  if (!result.ok()) {
    std::cerr << "mining: " << result.status() << "\n";
    return 1;
  }
  if (cli.json) {
    std::cout << MiningResultToJson(result->result, schema, partition)
              << "\n";
  } else {
    std::cout << MiningResultSummary(result->result, schema, partition, 40);
  }
  return 0;
}
