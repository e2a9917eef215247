// serve_hotswap — a RuleServer on loopback answering three closed-loop
// RuleClient connections (one thread each; 70% PointQuery on a data tuple,
// 20% ListRules limit 8, 10% SnapshotInfo) while a writer thread ingests
// 2,000 rows and re-mines once per second on a fixed schedule, hot-swapping
// what is served. The stream is preloaded with 40k rows of a 10-attribute,
// 8-cluster spec with 5% outliers (~75k rules); the writer runs serially,
// without the support post-scan.
//
// It is the only workload that exercises dar::serve and RuleIndex::Query;
// running writes beside reads shows when a change moves work between the
// query path and the publish path.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/phase1_builder.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "serve/client.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "stream/rule_index.h"
#include "stream/rule_snapshot.h"
#include "stream/streaming_miner.h"
#include "telemetry/metrics.h"

namespace darbench {
namespace {

constexpr size_t kClients = 3;

struct ServeInput {
  dar::PlantedDataset data;
  dar::Relation preload;
  std::vector<dar::Relation> writes;  // one batch per writer tick
  dar::DarConfig config;
};

dar::Result<ServeInput> MakeInput(const Options& options) {
  const size_t preload = options.smoke ? 4000 : 40000;
  const size_t write_rows = options.smoke ? 200 : 2000;
  const size_t ticks = static_cast<size_t>(options.seconds) + 2;
  const size_t clusters = 8;
  const dar::PlantedDataSpec spec =
      dar::WbcdLikeSpec(10, clusters, 0.05, kStructureSeed);
  ServeInput input;
  DAR_ASSIGN_OR_RETURN(input.data,
                       dar::GeneratePlanted(spec, preload + ticks * write_rows,
                                            options.seed + 1));
  DAR_ASSIGN_OR_RETURN(input.preload, Slice(input.data.relation, 0, preload));
  for (size_t t = 0; t < ticks; ++t) {
    const size_t begin = preload + t * write_rows;
    DAR_ASSIGN_OR_RETURN(dar::Relation batch,
                         Slice(input.data.relation, begin, begin + write_rows));
    input.writes.push_back(std::move(batch));
  }
  // The serve suite's settings (bench/bench_main.cc).
  dar::DarConfig& config = input.config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(10, 0.3 * 1000.0 / clusters);
  config.degree_threshold = 150.0;
  return input;
}

uint64_t PrintOf(const dar::Phase1Result& phase1,
                 const dar::Phase2Result& phase2) {
  Fingerprint f;
  f.AddResult(phase1, phase2);
  return f.value();
}

using Publication = std::pair<uint64_t, int64_t>;  // generation, rows

// What the writer publishes through: the facade stream (untraced), or the
// decomposed re-mine on a shadow builder whose snapshots are attached to
// the service directly (traced).
class Writer {
 public:
  virtual ~Writer() = default;
  Writer() = default;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  // Ingests `batch` and publishes a new generation.
  struct Step {
    double remine_seconds = 0;
    uint64_t print = 0;  // fingerprint of the published generation
  };
  virtual dar::Result<Step> IngestAndPublish(const dar::Relation& batch,
                                             SpanLog& log) = 0;
  // The latest published snapshot (traced writers only; null otherwise).
  virtual std::shared_ptr<const dar::RuleSnapshot> latest() const {
    return nullptr;
  }
  virtual Publication published() const = 0;
};

class FacadeWriter : public Writer {
 public:
  static dar::Result<std::unique_ptr<FacadeWriter>> Make(
      const ServeInput& in, const dar::Session& session,
      dar::QueryService& service) {
    auto w = std::make_unique<FacadeWriter>();
    dar::StreamConfig sc;
    sc.remine_every_rows = 0;  // the writer publishes explicitly
    DAR_ASSIGN_OR_RETURN(w->stream_,
                         session.OpenStream(in.preload.schema(),
                                            in.data.partition, sc));
    DAR_RETURN_IF_ERROR(w->stream_->Ingest(in.preload));
    DAR_ASSIGN_OR_RETURN(auto snapshot, w->stream_->Remine());
    w->first_print_ = PrintOf(snapshot->phase1(), snapshot->phase2());
    service.AttachStream(*w->stream_);
    return w;
  }
  dar::Result<Step> IngestAndPublish(const dar::Relation& batch,
                                     SpanLog&) override {
    DAR_RETURN_IF_ERROR(stream_->Ingest(batch));
    Step step;
    dar::Stopwatch watch;
    DAR_ASSIGN_OR_RETURN(auto snapshot, stream_->Remine());
    step.remine_seconds = watch.ElapsedSeconds();
    step.print = PrintOf(snapshot->phase1(), snapshot->phase2());
    return step;
  }
  Publication published() const override {
    return {stream_->generation(), stream_->rows_ingested()};
  }
  uint64_t first_print() const { return first_print_; }

 private:
  std::unique_ptr<dar::StreamingMiner> stream_;
  uint64_t first_print_ = 0;
};

class TracedWriter : public Writer {
 public:
  static dar::Result<std::unique_ptr<TracedWriter>> Make(
      const ServeInput& in, dar::QueryService& service) {
    DAR_ASSIGN_OR_RETURN(
        dar::Phase1Builder builder,
        dar::Phase1Builder::Make(in.config, in.preload.schema(),
                                 in.data.partition));
    auto w = std::unique_ptr<TracedWriter>(
        new TracedWriter(in, service, std::move(builder)));
    SpanLog untraced(false, 0);
    DAR_ASSIGN_OR_RETURN(Step first, w->IngestAndPublish(in.preload, untraced));
    w->first_print_ = first.print;
    return w;
  }
  // StreamingMiner::Ingest + Remine re-issued as public calls. The
  // snapshot is built with its index (RuleSnapshot's constructor runs
  // RuleIndex::Build) and attached to the service, which is the swap the
  // stream's publication performs for a stream-bound service.
  dar::Result<Step> IngestAndPublish(const dar::Relation& batch,
                                     SpanLog& log) override {
    log.BeginOp();
    {
      auto ingest = log.Span("stream.ingest");
      auto span = log.Span("birch.feed");
      DAR_RETURN_IF_ERROR(builder_.AddRelation(batch));
    }
    log.BeginOp();
    Step step;
    dar::Stopwatch watch;
    const uint64_t generation = generation_ + 1;
    const int64_t rows = builder_.rows_added();
    std::shared_ptr<const dar::RuleSnapshot> snapshot;
    {
      auto remine = log.Span("stream.remine");
      dar::Phase1Result phase1;
      {
        auto span = log.Span("birch.finish");
        DAR_ASSIGN_OR_RETURN(phase1, builder_.Snapshot());
      }
      dar::Phase2Result phase2 =
          TracedPhase2(phase1, in_.config, nullptr, log, counts_);
      auto span = log.Span("stream.index_build");
      snapshot = std::make_shared<const dar::RuleSnapshot>(
          generation, rows, std::move(phase1), std::move(phase2),
          in_.data.partition, /*build_index=*/true);
    }
    latest_.store(snapshot);
    service_.AttachSnapshot(snapshot, in_.preload.schema(),
                            in_.data.partition);
    step.remine_seconds = watch.ElapsedSeconds();
    generation_ = generation;
    rows_ = rows;
    step.print = PrintOf(snapshot->phase1(), snapshot->phase2());
    return step;
  }
  std::shared_ptr<const dar::RuleSnapshot> latest() const override {
    return latest_.load();
  }
  Publication published() const override { return {generation_, rows_}; }
  uint64_t first_print() const { return first_print_; }
  const Phase2Counts& counts() const { return counts_; }

 private:
  TracedWriter(const ServeInput& in, dar::QueryService& service,
               dar::Phase1Builder builder)
      : in_(in), service_(service), builder_(std::move(builder)) {}

  const ServeInput& in_;
  dar::QueryService& service_;
  dar::Phase1Builder builder_;
  std::atomic<std::shared_ptr<const dar::RuleSnapshot>> latest_;
  uint64_t generation_ = 0;
  int64_t rows_ = 0;
  uint64_t first_print_ = 0;
  Phase2Counts counts_;
};

// A server with its service, registry, writer and connected clients.
struct Serving {
  dar::telemetry::MetricsRegistry registry;
  dar::QueryService service{&registry};
  std::unique_ptr<Writer> writer;
  std::unique_ptr<dar::serve::RuleServer> server;
  std::vector<dar::serve::RuleClient> clients;
  uint64_t first_print = 0;
};

dar::Result<std::unique_ptr<Serving>> MakeServing(const ServeInput& in,
                                                  const dar::Session& session,
                                                  bool traced) {
  auto s = std::make_unique<Serving>();
  if (traced) {
    DAR_ASSIGN_OR_RETURN(auto writer, TracedWriter::Make(in, s->service));
    s->first_print = writer->first_print();
    s->writer = std::move(writer);
  } else {
    DAR_ASSIGN_OR_RETURN(auto writer,
                         FacadeWriter::Make(in, session, s->service));
    s->first_print = writer->first_print();
    s->writer = std::move(writer);
  }
  dar::serve::ServerConfig config;
  config.admission.max_concurrent = 0;  // never shed: every request must
  config.admission.max_per_tenant = 0;  // be answered
  config.admission.max_tenant_requests = 0;
  s->server = std::make_unique<dar::serve::RuleServer>(s->service, config,
                                                       &s->registry);
  DAR_RETURN_IF_ERROR(s->server->Start());
  for (size_t c = 0; c < kClients; ++c) {
    DAR_ASSIGN_OR_RETURN(
        dar::serve::RuleClient client,
        dar::serve::RuleClient::Connect("127.0.0.1", s->server->port(),
                                        "bench-" + std::to_string(c)));
    s->clients.push_back(std::move(client));
  }
  return s;
}

struct ClientLog {
  std::vector<double> latencies;
  std::vector<Publication> seen;  // deduplicated
  int64_t failed = 0;
  int64_t in_process_calls = 0;  // traced windows only
  int64_t points = 0;
  int64_t firing = 0;  // firing rules summed over point queries
  int64_t index_mismatches = 0;
  int64_t refs = 0;  // rule references the index gathered
  int64_t hits = 0;  // firing rules the index returned
  std::unique_ptr<SpanLog> log;
};

struct WindowResult {
  double seconds = 0;
  std::vector<ClientLog> clients;
  std::vector<double> remine_seconds;
  std::vector<Publication> ledger;
  std::vector<uint64_t> prints;  // per generation, from 1
  int64_t writer_failures = 0;
  std::unique_ptr<SpanLog> writer_log;
};

void Note(ClientLog& log, Publication pair) {
  for (const Publication& p : log.seen) {
    if (p == pair) return;
  }
  log.seen.push_back(pair);
}

// One client's closed loop. In a traced window each point query is
// re-issued layer by layer: RuleIndex::Query on the published snapshot,
// QueryService::PointQuery in process, then the RuleClient round trip.
void ClientLoop(const ServeInput& in, Serving& serving, size_t c,
                bool traced, const std::atomic<bool>& stop, ClientLog& out) {
  auto in_process = [&out](const dar::Status& status) {
    ++out.in_process_calls;
    if (!status.ok()) ++out.failed;
    return status.ok();
  };
  dar::serve::RuleClient& client = serving.clients[c];
  SpanLog& log = *out.log;
  dar::PointQueryResponse point;
  dar::PointQueryResponse local;
  dar::RuleListResponse list;
  dar::SnapshotInfoResponse info;
  dar::RuleIndex::QueryScratch scratch;
  const size_t rows = in.preload.num_rows();
  for (size_t idx = 0; !stop.load(std::memory_order_relaxed); ++idx) {
    log.BeginOp();
    dar::Status status = dar::Status::OK();
    bool local_ok = false;
    double seconds = 0;
    if (idx % 10 < 7) {
      const std::vector<double> tuple =
          in.preload.Row((c * 131 + idx * 17) % rows);
      dar::PointQueryRequest request;
      request.tuple = tuple;
      if (traced) {
        const auto snapshot = serving.writer->latest();
        {
          auto span = log.Span("stream.index_query");
          auto hits = snapshot->index()->Query(tuple, scratch);
          if (hits.ok()) {
            out.refs += static_cast<int64_t>(scratch.touched.size());
            out.hits += static_cast<int64_t>(hits->rules.size());
          }
        }
        auto span = log.Span("serve.lookup");
        local_ok = in_process(serving.service.PointQuery(request, local));
      }
      dar::Stopwatch watch;
      {
        auto span = log.Span("serve.request");
        status = client.PointQuery(request, point);
      }
      seconds = watch.ElapsedSeconds();
      if (status.ok()) {
        Note(out, {point.generation, point.rows_ingested});
        ++out.points;
        out.firing += point.total_rule_matches;
        if (local_ok && local.generation == point.generation &&
            local.rules != point.rules) {
          ++out.index_mismatches;
        }
      }
    } else if (idx % 10 < 9) {
      dar::RuleListRequest request;
      request.offset = static_cast<uint32_t>(idx % 3);
      request.limit = 8;
      if (traced) {
        auto span = log.Span("serve.list");
        in_process(serving.service.ListRules(request, list));
      }
      dar::Stopwatch watch;
      status = client.ListRules(request, list);
      seconds = watch.ElapsedSeconds();
      if (status.ok()) Note(out, {list.generation, list.rows_ingested});
    } else {
      dar::Stopwatch watch;
      status = client.SnapshotInfo(info);
      seconds = watch.ElapsedSeconds();
      if (status.ok()) Note(out, {info.generation, info.rows_ingested});
    }
    out.latencies.push_back(seconds);
    if (!status.ok()) ++out.failed;
  }
}

WindowResult RunWindow(const ServeInput& in, Serving& serving,
                       const Options& options, bool traced) {
  WindowResult out;
  out.clients.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    out.clients[c].log = std::make_unique<SpanLog>(
        traced, static_cast<int64_t>(c + 1) * 10'000'000);
  }
  out.writer_log = std::make_unique<SpanLog>(traced, 0);
  out.ledger.push_back(serving.writer->published());
  out.prints.push_back(serving.first_print);

  std::atomic<bool> stop{false};
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(in, serving, c, traced, stop, out.clients[c]);
    });
  }
  // The writer: one ingest + re-mine per second, on a fixed schedule, with
  // no tick at or after the end of the window.
  threads.emplace_back([&] {
    for (size_t tick = 1; tick < in.writes.size(); ++tick) {
      const auto due = start + std::chrono::seconds(tick);
      if (due >= end) return;
      std::this_thread::sleep_until(due);
      auto step = serving.writer->IngestAndPublish(in.writes[tick - 1],
                                                   *out.writer_log);
      if (!step.ok()) {
        ++out.writer_failures;
        std::fprintf(stderr, "serve_hotswap: writer: %s\n",
                     step.status().ToString().c_str());
        return;
      }
      out.remine_seconds.push_back(step->remine_seconds);
      out.ledger.push_back(serving.writer->published());
      out.prints.push_back(step->print);
    }
  });
  std::this_thread::sleep_until(end);
  stop.store(true);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  for (std::thread& t : threads) t.join();
  return out;
}

std::vector<double> AllLatencies(const WindowResult& w) {
  std::vector<double> all;
  for (const ClientLog& c : w.clients) {
    all.insert(all.end(), c.latencies.begin(), c.latencies.end());
  }
  return all;
}

// No request may fail, and every (generation, rows) pair a client saw
// must be one the writer published.
void CheckWindow(const WindowResult& w, const Options& options,
                 Report& report) {
  std::vector<Publication> ledger = w.ledger;
  if (options.corrupt_reference) ++ledger.front().second;
  report.Attempt(w.writer_failures + static_cast<int64_t>(w.ledger.size()));
  if (w.writer_failures > 0) {
    report.Fail("serve_hotswap: writer step failed", w.writer_failures);
  }
  for (const ClientLog& c : w.clients) {
    report.Attempt(static_cast<int64_t>(c.latencies.size()) +
                   c.in_process_calls);
    if (c.failed > 0) {
      report.Fail("serve_hotswap: " + std::to_string(c.failed) +
                      " requests failed",
                  c.failed);
    }
    for (const Publication& pair : c.seen) {
      report.Attempt();
      if (std::find(ledger.begin(), ledger.end(), pair) == ledger.end()) {
        report.Fail("serve_hotswap: a client saw generation " +
                    std::to_string(pair.first) + " at " +
                    std::to_string(pair.second) +
                    " rows, which the writer never published");
      }
    }
    if (c.index_mismatches > 0) {
      report.Fail("serve_hotswap: RuleIndex::Query and the served answer "
                  "differ for the same generation");
    }
  }
}

void PrintProperties(const ServeInput& in, const WindowResult& w,
                     const dar::Session& session, Report& report) {
  int64_t points = 0, firing = 0;
  for (const ClientLog& c : w.clients) {
    points += c.points;
    firing += c.firing;
  }
  report.Info("input.rows", static_cast<double>(in.preload.num_rows()),
              "count", "preloaded; the writer adds 2000 per second");
  report.Info("input.firing_rules_per_query",
              points > 0 ? static_cast<double>(firing) / points : 0.0,
              "count");
  // The preloaded generation, mined once more for its properties.
  auto mined = session.Mine(in.preload, in.data.partition);
  if (!mined.ok()) return;
  const dar::Phase1Result& p1 = mined->result.phase1;
  int64_t rebuilds = 0;
  for (const auto& s : p1.tree_stats) rebuilds += s.rebuild_count;
  const std::vector<int32_t> assignment =
      AssignRows(in.preload, in.data.partition, p1.clusters);
  report.Info("input.distinct_tuple_share",
              DistinctTupleShare(assignment, in.data.partition.num_parts()),
              "ratio");
  report.Info("input.phase1_rebuilds", static_cast<double>(rebuilds),
              "count");
  report.Info("input.clusters", static_cast<double>(p1.clusters.size()),
              "count");
  report.Info("input.rules",
              static_cast<double>(mined->result.phase2.rules.size()), "count");
}

dar::Result<dar::Session> SerialSession(const dar::DarConfig& config) {
  return dar::Session::Builder().WithConfig(config).WithThreads(1).Build();
}

int RunUntraced(const Options& options, Report& report) {
  std::optional<ServeInput> input;
  std::optional<dar::Session> session;
  std::unique_ptr<Serving> serving;
  auto setups = TimedSetUps([&]() -> dar::Status {
    serving.reset();
    DAR_ASSIGN_OR_RETURN(input, MakeInput(options));
    DAR_ASSIGN_OR_RETURN(dar::Session built, SerialSession(input->config));
    session.emplace(std::move(built));
    DAR_ASSIGN_OR_RETURN(serving,
                         MakeServing(*input, *session, /*traced=*/false));
    return dar::Status::OK();
  });
  if (!setups.ok()) {
    std::fprintf(stderr, "serve_hotswap: %s\n",
                 setups.status().ToString().c_str());
    return 1;
  }

  const WindowResult w = RunWindow(*input, *serving, options, false);
  const double peak_rss = PeakRssMb();
  serving->server->Stop();
  CheckWindow(w, options, report);
  PrintProperties(*input, w, *session, report);

  const std::vector<double> latencies = AllLatencies(w);
  const double qps = static_cast<double>(latencies.size()) / w.seconds;
  report.InfoTiming("setup_s", *setups);
  report.InfoTiming("query_s", latencies);
  report.Info("query_p50_s", Quantile(latencies, 0.5), "s");
  report.Info("query_p99_s", Quantile(latencies, 0.99), "s");
  report.Info("query_p999_s", Quantile(latencies, 0.999), "s", "not gated");
  report.Info("qps", qps, "1/s");
  report.InfoTiming("remine_p50_s", w.remine_seconds);
  report.Metric("setup_s", Median(*setups), "s");
  report.Metric("mine_p50_s", Median(w.remine_seconds), "s");
  report.Metric("throughput_per_s", qps, "1/s");
  report.Metric("peak_rss_mb", peak_rss, "MB");
  return 0;
}

int RunTraced(const Options& options, Report& report) {
  auto made = MakeInput(options);
  if (!made.ok()) {
    std::fprintf(stderr, "serve_hotswap: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  const ServeInput input = std::move(*made);
  auto session = SerialSession(input.config);
  if (!session.ok()) {
    std::fprintf(stderr, "serve_hotswap: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  // An untraced window first (the reference and the overhead baseline),
  // then the traced window over the same rows and schedule.
  WindowResult windows[2];
  for (int traced = 0; traced < 2; ++traced) {
    auto up = MakeServing(input, *session, traced == 1);
    if (!up.ok()) {
      std::fprintf(stderr, "serve_hotswap: %s\n",
                   up.status().ToString().c_str());
      return 1;
    }
    windows[traced] = RunWindow(input, **up, options, traced == 1);
    (*up)->server->Stop();
    CheckWindow(windows[traced], options, report);
    if (traced == 1) {
      const auto snap = (*up)->registry.TakeSnapshot();
      std::map<std::string, double> m;
      for (const char* name :
           {"serve.point_queries", "serve.rule_lists", "serve.snapshot_infos",
            "serve.unavailable", "serve.shed", "serve.protocol_errors"}) {
        m[name] = static_cast<double>(snap.CounterOr(name));
      }
      const WindowResult& w = windows[1];
      std::vector<const SpanLog*> logs = {w.writer_log.get()};
      int64_t refs = 0, hits = 0, points = 0;
      for (const ClientLog& c : w.clients) {
        logs.push_back(c.log.get());
        refs += c.refs;
        hits += c.hits;
        points += c.points;
      }
      const LayerTimes times = SelfTimes(logs);
      for (const char* layer :
           {"birch.feed", "birch.finish", "core.edge_sweep", "graph.clique",
            "core.rule_gen", "stream.index_build", "stream.index_query"}) {
        m[std::string(layer) + "_s"] = PerCall(times, layer);
      }
      m["stream.ingest_s"] = PerCall(times, "stream.ingest");
      m["stream.remine_self_s"] = PerCall(times, "stream.remine");
      m["serve.lookup_s"] = PerCall(times, "serve.lookup");
      m["serve.list_s"] = PerCall(times, "serve.list");
      m["serve.transport_s"] =
          PerCall(times, "serve.request") - PerCall(times, "serve.lookup");
      m["stream.index_refs_per_query"] =
          points > 0 ? static_cast<double>(refs) / points : 0.0;
      m["stream.index_hit_yield"] =
          refs > 0 ? static_cast<double>(hits) / refs : 0.0;
      const auto* writer = static_cast<const TracedWriter*>((*up)->writer.get());
      AddPhase2Counts(writer->counts(), m);
      AddPhase1Counts(writer->latest()->phase1(), m);
      const double untraced_p50 = Quantile(AllLatencies(windows[0]), 0.5);
      m["trace.overhead_share"] =
          (Quantile(AllLatencies(windows[1]), 0.5) - untraced_p50) /
          untraced_p50;
      for (const auto& [name, t] : times) {
        report.Info("calls." + name, static_cast<double>(t.calls), "count");
      }
      WriteSpans(options.work_dir + "/spans.jsonl", "serve_hotswap", logs);
      PrintProperties(input, w, *session, report);
      EmitPerLayer(m, report);
    }
  }
  // Both windows publish the same rows in the same order: every
  // generation both reached must be bit-identical.
  const size_t common =
      std::min(windows[0].prints.size(), windows[1].prints.size());
  report.Attempt(static_cast<int64_t>(common));
  for (size_t g = 0; g < common; ++g) {
    if (windows[0].prints[g] != windows[1].prints[g]) {
      report.Fail("serve_hotswap: decomposed re-mine of generation " +
                  std::to_string(g + 1) + " differs from Remine");
    }
  }
  return 0;
}

}  // namespace

int RunServeHotswap(const Options& options, Report& report) {
  return options.trace ? RunTraced(options, report)
                       : RunUntraced(options, report);
}

}  // namespace darbench
