// Tests for the observability subsystem: per-operator tracing through
// api::Session on all three backends, exporter well-formedness, the
// cancelled-trace drain guarantee at the executor level, and the
// continuous session metrics.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gtest/gtest.h"
#include "mt/pipeline_executor.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace hierdb::api {
namespace {

// The acceptance-criteria query: a 2-join chain over real data, plus a
// GROUP BY variant of the same chain.
struct Fixture {
  Session db;
  RelId fact, d1, d2;

  explicit Fixture(size_t fact_rows = 20000, SessionOptions so = {})
      : db(so) {
    fact = db.AddTable(mt::MakeTable("fact", fact_rows, 3, 400, 7));
    d1 = db.AddTable(mt::MakeTable("d1", 400, 2, 50, 8));
    d2 = db.AddTable(mt::MakeTable("d2", 400, 2, 50, 9));
  }

  Query Join2() const {
    return db.NewQuery().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Build();
  }
  Query Join2GroupBy() const {
    return db.NewQuery()
        .Scan(fact)
        .Probe(d1, 1, 0)
        .Probe(d2, 2, 0)
        .GroupBy(d1, 1)
        .Count()
        .Build();
  }
};

ExecOptions Opts(Backend backend, uint32_t nodes, uint32_t threads) {
  ExecOptions o;
  o.backend = backend;
  o.strategy = Strategy::kDP;
  o.nodes = nodes;
  o.threads_per_node = threads;
  o.trace = true;
  return o;
}

/// Structural span checks every backend's trace must satisfy.
void CheckSpans(const obs::QueryTrace& t) {
  ASSERT_FALSE(t.ops.empty());
  ASSERT_FALSE(t.events.empty());
  size_t spans = 0;
  uint64_t prev_start = 0;
  for (const obs::TraceEvent& ev : t.events) {
    // Drain() sorts by start time.
    EXPECT_GE(ev.start_ns, prev_start);
    prev_start = ev.start_ns;
    EXPECT_LE(ev.start_ns, ev.end_ns);
    if (ev.kind != obs::EventKind::kSpan) continue;
    ++spans;
    ASSERT_GE(ev.op, 0);
    ASSERT_LT(static_cast<size_t>(ev.op), t.ops.size());
    EXPECT_GT(ev.activations, 0u);
    // A real per-worker span's busy time fits inside its wall extent
    // (virtual spans aggregate every processor, so theirs may not).
    if (!t.virtual_time) {
      EXPECT_LE(ev.detail, ev.end_ns - ev.start_ns + 1);
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(t.TotalBusyNs(), 0u);
  EXPECT_GT(t.MaxEndNs(), 0u);
}

TEST(ObsTrace, ThreadsTraceSpansAndCards) {
  Fixture f;
  auto r = f.db.Execute(f.Join2(), Opts(Backend::kThreads, 1, 4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ExecutionReport& rep = r.value();
  ASSERT_NE(rep.trace, nullptr);
  EXPECT_EQ(rep.trace->backend, "threads");
  EXPECT_FALSE(rep.trace->virtual_time);
  CheckSpans(*rep.trace);
  // Workers stay within the machine shape.
  for (const obs::TraceEvent& ev : rep.trace->events) {
    EXPECT_EQ(ev.node, 0);
    EXPECT_LT(ev.worker, 4);
  }
  // Chain cards: estimates from the optimizer, actuals measured; the
  // final chain's actual is the query's result cardinality.
  ASSERT_EQ(rep.chain_cards.size(), 1u);
  EXPECT_GT(rep.chain_cards[0].est_rows, 0.0);
  ASSERT_TRUE(rep.chain_cards[0].has_actual);
  EXPECT_EQ(rep.chain_cards[0].actual_rows, rep.result_rows);
  // The terminal probe op carries the same actual.
  bool found = false;
  for (const obs::TraceOp& op : rep.trace->ops) {
    if (op.actual_rows == rep.result_rows && op.kind == "probe") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ObsTrace, TraceOffMeansNoTraceButCardsRemain) {
  Fixture f;
  ExecOptions o = Opts(Backend::kThreads, 1, 4);
  o.trace = false;
  auto r = f.db.Execute(f.Join2(), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().trace, nullptr);
  // Actual cardinalities are measured unconditionally.
  ASSERT_EQ(r.value().chain_cards.size(), 1u);
  EXPECT_TRUE(r.value().chain_cards[0].has_actual);
}

TEST(ObsTrace, EveryBackendEmitsAValidChromeTrace) {
  struct Shape {
    Backend backend;
    uint32_t nodes, threads;
  };
  for (const Shape& s : {Shape{Backend::kSimulated, 2, 2},
                         Shape{Backend::kThreads, 1, 4},
                         Shape{Backend::kCluster, 2, 2}}) {
    SCOPED_TRACE(BackendName(s.backend));
    Fixture f;
    auto r =
        f.db.Execute(f.Join2GroupBy(), Opts(s.backend, s.nodes, s.threads));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r.value().trace, nullptr);
    const obs::QueryTrace& t = *r.value().trace;
    CheckSpans(t);
    EXPECT_EQ(t.virtual_time, s.backend == Backend::kSimulated);
    std::string json = obs::ChromeTraceJson(t);
    Status ok = obs::ValidateChromeTraceJson(json);
    EXPECT_TRUE(ok.ok()) << ok.ToString() << "\n" << json.substr(0, 400);
    std::string dot = obs::PlanDot(t);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_FALSE(obs::PlanJson(t).empty());
  }
}

// Guest lanes (foreign help) export as their own named threads after the
// node's workers, never onto a worker's timeline.
TEST(ObsTrace, ChromeTraceGivesGuestLanesTheirOwnThreads) {
  obs::QueryTrace t;
  t.backend = "threads";
  t.strategy = "DP";
  t.workers_per_node = 4;
  obs::TraceOp op;
  op.label = "c0.probe0(d1)";
  op.kind = "probe";
  t.ops.push_back(op);
  obs::TraceEvent worker_span;
  worker_span.worker = 1;
  worker_span.op = 0;
  worker_span.start_ns = 1000;
  worker_span.end_ns = 5000;
  worker_span.activations = 3;
  obs::TraceEvent guest_span = worker_span;
  guest_span.worker = -1;
  guest_span.guest = 2;
  obs::TraceEvent guest_steal;
  guest_steal.kind = obs::EventKind::kSteal;
  guest_steal.guest = 2;
  guest_steal.start_ns = guest_steal.end_ns = 6000;
  guest_steal.detail = 1;
  t.events = {worker_span, guest_span, guest_steal};

  const std::string json = obs::ChromeTraceJson(t);
  Status ok = obs::ValidateChromeTraceJson(json);
  ASSERT_TRUE(ok.ok()) << ok.ToString() << "\n" << json;
  // Guest lane 2 is tid 4 + 2, named once.
  const std::string name_row =
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":6,"
      "\"args\":{\"name\":\"guest 2\"}}";
  const size_t at = json.find(name_row);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(json.find(name_row, at + 1), std::string::npos) << json;
  EXPECT_EQ(json.find("\"guest 0\""), std::string::npos);
  // The worker span stays on tid 1; both guest events land on tid 6.
  EXPECT_NE(json.find("\"pid\":0,\"tid\":1,\"ts\":1,\"ph\":\"X\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pid\":0,\"tid\":6,\"ts\":1,\"ph\":\"X\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"steal\",\"pid\":0,\"tid\":6"),
            std::string::npos)
      << json;
}

// A pool wider than the query's shape leaves idle pool threads that help
// through the steal hook; their work must carry a guest label, never a
// worker id outside the shape. The flight recorder holds exactly one
// steal instant per foreign activation the pool ran, tagged with the
// query's seq.
TEST(ObsTrace, ForeignHelpIsLabelledAsGuestLanes) {
  SessionOptions so;
  so.pool_threads = 6;
  // Rings large enough that no steal instant is overwritten.
  so.recorder_rings = 16;
  so.recorder_ring_events = 1u << 15;
  Fixture f(20000, so);
  obs::FlightRecorder* rec = f.db.recorder();
  ASSERT_NE(rec, nullptr);
  constexpr uint32_t T = 2;
  for (int q = 0; q < 5; ++q) {
    const uint64_t since_ns = rec->NowNs();
    const uint64_t steals_before = f.db.pool_stats().foreign_steals;
    auto r = f.db.Execute(f.Join2(), Opts(Backend::kThreads, 1, T));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const uint64_t steals = f.db.pool_stats().foreign_steals - steals_before;
    // Fewer events in the whole session than one ring holds: no ring
    // has wrapped, so the snapshot holds every steal instant.
    ASSERT_LT(rec->stats().recorded, rec->stats().events_per_ring);
    ASSERT_EQ(rec->stats().dropped, 0u);
    uint64_t seq = 0;
    std::vector<uint64_t> steal_queries;
    for (const obs::TraceEvent& ev : rec->Snapshot()) {
      if (ev.start_ns < since_ns) continue;
      if (ev.kind == obs::EventKind::kSubmit) seq = ev.query;
      if (ev.kind == obs::EventKind::kSteal) steal_queries.push_back(ev.query);
    }
    ASSERT_NE(seq, 0u);
    EXPECT_EQ(steal_queries.size(), steals);
    for (uint64_t query : steal_queries) EXPECT_EQ(query, seq);
    ASSERT_NE(r.value().trace, nullptr);
    const obs::QueryTrace& t = *r.value().trace;
    EXPECT_EQ(t.workers_per_node, T);
    CheckSpans(t);
    for (const obs::TraceEvent& ev : t.events) {
      if (ev.worker >= 0) {
        EXPECT_LT(ev.worker, static_cast<int32_t>(T));
        EXPECT_EQ(ev.guest, -1);
      } else if (ev.kind == obs::EventKind::kSpan ||
                 ev.kind == obs::EventKind::kSteal) {
        // Ran by some thread but no worker of the query: a guest lane.
        EXPECT_EQ(ev.worker, -1);
        EXPECT_GE(ev.guest, 0);
      }
    }
    Status ok = obs::ValidateChromeTraceJson(obs::ChromeTraceJson(t));
    EXPECT_TRUE(ok.ok()) << ok.ToString();
  }
}

TEST(ObsTrace, SimulatedSpansSumToVirtualResponse) {
  Fixture f;
  auto r = f.db.Execute(f.Join2(), Opts(Backend::kSimulated, 1, 4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().trace, nullptr);
  const obs::QueryTrace& t = *r.value().trace;
  EXPECT_TRUE(t.virtual_time);
  // Virtual spans end at per-op completion times, so the last span end is
  // the virtual response time (SimTime is nanoseconds).
  double max_end_ms = static_cast<double>(t.MaxEndNs()) / 1e6;
  EXPECT_LE(max_end_ms, r.value().response_ms * 1.01 + 1e-6);
  EXPECT_GE(max_end_ms, r.value().response_ms * 0.5);
  // Sim chain cards are estimate-only.
  for (const obs::ChainCard& cc : r.value().chain_cards) {
    EXPECT_FALSE(cc.has_actual);
  }
}

TEST(ObsTrace, ClusterTraceTagsNodesAndAggPhase) {
  Fixture f;
  auto r = f.db.Execute(f.Join2GroupBy(), Opts(Backend::kCluster, 2, 2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().trace, nullptr);
  const obs::QueryTrace& t = *r.value().trace;
  bool saw_node1 = false, saw_agg_span = false;
  const uint32_t agg_op = static_cast<uint32_t>(t.ops.size()) - 1;
  ASSERT_EQ(t.ops.back().kind, "agg");
  for (const obs::TraceEvent& ev : t.events) {
    EXPECT_LT(ev.node, 2);
    if (ev.node == 1) saw_node1 = true;
    if (ev.kind == obs::EventKind::kSpan &&
        ev.op == static_cast<int32_t>(agg_op)) {
      saw_agg_span = true;
    }
  }
  EXPECT_TRUE(saw_node1);
  EXPECT_TRUE(saw_agg_span);
}

// The cancelled-trace guarantee lives at the executor layer: span cells
// are flushed into the sink on every exit path, so a query stopped
// mid-flight still leaves an inspectable trace.
TEST(ObsTrace, CancelledExecutionStillDrainsSpans) {
  mt::Table fact = mt::MakeTable("fact", 400000, 3, 2000, 3);
  mt::Table dim = mt::MakeTable("dim", 2000, 2, 100, 4);
  std::vector<const mt::Table*> tables = {&fact, &dim};
  mt::PipelinePlan plan;
  mt::Chain chain;
  chain.input = mt::Source::OfTable(0);
  chain.joins.push_back({mt::Source::OfTable(1), 1, 0});
  plan.chains.push_back(chain);

  obs::TraceSink sink;
  std::atomic<bool> stop{false};
  ThreadSpawnContext ctx(&stop);
  // Cancel on first progress, not on a timer: the scan's first output row
  // reaches the capture at point 0 inside a scan morsel, and that morsel
  // runs to its end and folds into its span cell whenever the stop is
  // seen — so at least one cell exists however loaded the host is.
  obs::RowCapture first_row(1);
  mt::PipelineOptions po;
  po.threads = 2;
  po.morsel_rows = 512;  // many activations => cancel lands mid-run
  po.ctx = &ctx;
  po.trace = &sink;
  po.captures = {{0, 0, &first_row}};
  mt::PipelineExecutor executor(po);
  std::atomic<bool> returned{false};
  std::thread canceller([&] {
    while (first_row.offered() == 0 &&
           !returned.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });
  auto got = executor.Execute(plan, tables);
  returned.store(true, std::memory_order_release);
  canceller.join();
  EXPECT_GT(first_row.offered(), 0u);
  // Whether the cancel won the race or the query finished first, the
  // sink holds whatever ran, monotonic and well-formed.
  std::vector<obs::TraceEvent> events = sink.Drain();
  ASSERT_FALSE(events.empty());
  for (const obs::TraceEvent& ev : events) {
    EXPECT_LE(ev.start_ns, ev.end_ns);
  }
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
        << got.status().ToString();
  }
}

TEST(ObsTrace, MetricsSnapshotAndJsonlExport) {
  std::string path = "obs_metrics_test.jsonl";
  std::remove(path.c_str());
  {
    SessionOptions so;
    so.metrics_export_path = path;
    so.metrics_export_every = 1;
    Fixture f(4000, so);
    ExecOptions o = Opts(Backend::kThreads, 1, 2);
    o.trace = false;
    for (int i = 0; i < 3; ++i) {
      auto r = f.db.Execute(f.Join2(), o);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    SessionMetrics m = f.db.MetricsSnapshot();
    EXPECT_EQ(m.queries, 3u);
    EXPECT_GT(m.exec_p50_ms, 0.0);
    EXPECT_GE(m.exec_p95_ms, m.exec_p50_ms);
    EXPECT_GE(m.exec_p99_ms, m.exec_p95_ms);
    EXPECT_EQ(m.scheduler.completed, 3u);
    EXPECT_NE(m.ToJson().find("\"queries\":3"), std::string::npos);
    EXPECT_NE(m.ToString().find("3 queries"), std::string::npos);
  }  // destructor appends the final snapshot line
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 4);  // one per query + the destructor flush
  in.close();
  std::remove(path.c_str());
}

TEST(ObsTrace, ExplainDotRendersThePlanGraph) {
  Fixture f;
  for (Backend b :
       {Backend::kSimulated, Backend::kThreads, Backend::kCluster}) {
    SCOPED_TRACE(BackendName(b));
    auto dot = f.db.ExplainDot(
        f.Join2(), Opts(b, b == Backend::kCluster ? 2 : 1,
                        b == Backend::kThreads ? 4 : 2));
    ASSERT_TRUE(dot.ok()) << dot.status().ToString();
    EXPECT_NE(dot.value().find("digraph"), std::string::npos);
    // Operator labels: "probe d1" on the real backends, "Probe1" on the
    // simulator's physical plan.
    EXPECT_TRUE(dot.value().find("probe") != std::string::npos ||
                dot.value().find("Probe") != std::string::npos);
  }
}

TEST(ObsTrace, StreamReportCarriesP99AndCardError) {
  Fixture f;
  ExecOptions o = Opts(Backend::kThreads, 1, 2);
  o.trace = false;
  std::vector<Query> queries(4, f.Join2());
  StreamReport sr = f.db.RunStream(queries, o);
  EXPECT_EQ(sr.succeeded, 4u);
  EXPECT_GT(sr.p99_ms, 0.0);
  EXPECT_GE(sr.p99_ms, sr.p50_ms);
  // Every chain measured an actual, so the mean error is defined (it may
  // legitimately be zero if estimates were exact; probe fan-out on random
  // FKs makes that vanishingly unlikely but not impossible).
  EXPECT_NE(sr.ToString().find("p99="), std::string::npos);
}

}  // namespace
}  // namespace hierdb::api
