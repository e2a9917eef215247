// Shared pieces of the darbench binary: run options, the result report,
// the span log used by traced runs, output checks and the re-issued
// (decomposed) forms of the library's facade calls.
#ifndef DARBENCH_BENCH_H_
#define DARBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "core/config.h"
#include "core/miner_result.h"
#include "core/model.h"
#include "quality/diff.h"
#include "quality/scored_rules.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace darbench {

// --- Run options -----------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test sizes: every workload finishes in seconds.
  bool smoke = false;
  // Self-test hook: perturbs the reference each workload checks against,
  // so the run must report failed operations.
  bool corrupt_reference = false;
  // Directory for checkpoint files and the span dump (inside the checkout).
  std::string work_dir = ".";
};

// Seed of every workload's planted structure (cluster centres, and which
// attributes each pattern spans). It is fixed, and --seed draws the rows:
// each seed is another sample of the same workload, so run-to-run spread
// measures the code, not a different rule set per seed.
inline constexpr uint64_t kStructureSeed = 1997;

// --- Report ------------------------------------------------------------------

// What one run prints: informational lines as it goes, then one JSON
// object on the last line with the gated metrics.
class Report {
 public:
  // A gated metric for the final JSON line.
  void Metric(const std::string& name, double value, const std::string& unit);
  // An informational figure, printed at once ("info <name> <value> <unit>").
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  // A timing distribution, printed as median, sample count and the highest
  // percentile with at least ten samples beyond it.
  void InfoTiming(const std::string& name, std::vector<double> samples,
                  const std::string& unit = "s");
  void Attempt(int64_t n = 1) { attempted_ += n; }
  // Records `count` failed operations or output checks, with the reason on
  // stderr.
  void Fail(const std::string& why, int64_t count = 1);

  [[nodiscard]] int64_t failed() const { return failed_; }
  // Prints the final JSON line.
  void PrintResult() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

double Median(std::vector<double> values);
// Nearest-rank quantile q in [0, 1] of `values` (sorted copy).
double Quantile(std::vector<double> values, double q);
// Peak resident set size of this process so far, in MB (VmHWM).
double PeakRssMb();

// Seconds since process start on the steady clock (the span time base).
double Now();

// --- Spans -------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  double start = 0;
  double end = 0;
  int64_t id = 0;
  int64_t parent = -1;  // id of the enclosing span on the same thread
  int64_t op = 0;       // shared by every span of one traced operation
  double child_seconds = 0;
};

// One thread's spans, kept in memory. Spans nest by scope: a span's parent
// is the innermost span open on the same log when it starts. A disabled
// log records nothing, so untraced code paths can take one too.
class SpanLog {
 public:
  SpanLog(bool enabled, int64_t id_base)
      : enabled_(enabled), next_id_(id_base), next_op_(id_base) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    size_t index_ = 0;
  };

  // Opens a span that closes when the returned scope ends.
  [[nodiscard]] Scope Span(const char* name) {
    return Scope(enabled_ ? this : nullptr, name);
  }
  // Starts a new operation: later spans share its id until the next call.
  void BeginOp() { op_ = ++next_op_; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t next_id_;
  int64_t next_op_;
  int64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

// Self time per span name: duration minus the time its child spans cover.
struct LayerTime {
  double self_seconds = 0;
  int64_t calls = 0;
};
using LayerTimes = std::map<std::string, LayerTime>;
LayerTimes SelfTimes(std::span<const SpanLog* const> logs);
// Mean self seconds per call of span `name` (0 when it never ran).
double PerCall(const LayerTimes& times, const std::string& name);
// Appends every span of `logs` to `path` as JSON lines.
void WriteSpans(const std::string& path, const std::string& label,
                std::span<const SpanLog* const> logs);

// --- Output checks -----------------------------------------------------------

// 64-bit FNV-1a over the bits of a mining result: every frequent
// cluster's ACF images, the per-part d0, the cliques and every rule with
// its degree, slack and support count. Equal fingerprints mean
// bit-identical results.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void AddDouble(double v);
  void AddResult(const dar::Phase1Result& phase1,
                 const dar::Phase2Result& phase2);
  void AddScored(const dar::quality::ScoredRuleSet& scored);
  void AddDiff(const dar::quality::SnapshotDiffResult& diff);
  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Per row, the id of the cluster each part's projection is assigned to
// (the §4.3.2 assignment the support post-scan uses), row-major.
std::vector<int32_t> AssignRows(const dar::Relation& rel,
                                const dar::AttributePartition& partition,
                                const dar::ClusterSet& clusters);
// Distinct assignment tuples divided by rows.
double DistinctTupleShare(std::span<const int32_t> assignment, size_t parts);
// Rows assigned to every cluster of `rule` — an independent recount of the
// §6.2 support count.
int64_t RecountSupport(std::span<const int32_t> assignment, size_t parts,
                       const dar::ClusterSet& clusters,
                       const dar::DistanceRule& rule);

// --- Re-issued facade calls --------------------------------------------------

// Phase II as RunPhase2OnSummaries issues it — ClusteringGraph,
// EnumerateCliques, GenerateDistanceRules and the degree sort — with a
// span around each public call. Counts of the run go to `counts`.
struct Phase2Counts {
  int64_t edge_evaluations = 0;
  int64_t pruned_pairs = 0;
  int64_t edges = 0;
  int64_t components = 0;
  int64_t expansion_steps = 0;
  int64_t cliques = 0;
  int64_t nontrivial_cliques = 0;
  int64_t degree_evaluations = 0;
  int64_t rules = 0;
};
dar::Phase2Result TracedPhase2(const dar::Phase1Result& phase1,
                               const dar::DarConfig& config,
                               dar::Executor* executor, SpanLog& log,
                               Phase2Counts& counts);

// Rows [begin, end) of `rel` as their own relation.
dar::Result<dar::Relation> Slice(const dar::Relation& rel, size_t begin,
                                 size_t end);

// The workloads. Each fills `report` and returns 0, or 1 when it could not
// run at all (setup failure).
int RunMineSec72(const Options& options, Report& report);
int RunStreamDrift(const Options& options, Report& report);
int RunServeHotswap(const Options& options, Report& report);

// The per-layer metric names every traced run prints, with their units; a
// workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
// Reports every per-layer metric, taking values from `values` (0 when
// absent).
void EmitPerLayer(const std::map<std::string, double>& values, Report& report);
// Adds the counts of `phase1`'s final trees to `values`.
void AddPhase1Counts(const dar::Phase1Result& phase1,
                     std::map<std::string, double>& values);
// Adds the Phase II counts and their yields to `values`.
void AddPhase2Counts(const Phase2Counts& counts,
                     std::map<std::string, double>& values);
// Adds common.speedup_*: each layer's 1-thread time per call over its
// 4-thread time per call.
void AddSpeedups(const LayerTimes& parallel, const LayerTimes& serial,
                 std::map<std::string, double>& values);

// Runs `set_up` (a callable returning dar::Status) three times and returns
// how long each took; the first is timed from process start. Reporting the
// median keeps one slow set-up from reading as a regression.
template <typename SetUp>
dar::Result<std::vector<double>> TimedSetUps(SetUp&& set_up) {
  std::vector<double> seconds;
  for (int k = 0; k < 3; ++k) {
    const double start = k == 0 ? 0.0 : Now();
    DAR_RETURN_IF_ERROR(set_up());
    seconds.push_back(Now() - start);
  }
  return seconds;
}

}  // namespace darbench

#endif  // DARBENCH_BENCH_H_
