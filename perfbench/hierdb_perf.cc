// hierdb end-to-end benchmark.
//
//   hierdb_perf --workload <star_threads|adhoc_cluster|paper_sim>
//               --seed <n> --seconds <s> --trace <0|1>
//
// Runs one closed-loop workload through the public api::Session: two
// clients, each submitting its next operation only after Take returned the
// previous one. Every answer is checked after the timed phase (check.h),
// and a wrong or missing answer counts as a failed operation. The last
// line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the same operations with ExecOptions::trace on in every other
// round, and reports the per-layer metrics of the traced operations, read
// from outside the program: the benchmark's own spans around Submit/Take,
// QueryResult and ExecutionReport fields, the per-operator trace spans,
// pool_stats() and MetricsSnapshot(). See README.md for what each metric
// should move.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "check.h"
#include "inputs.h"

namespace perfbench {
namespace {

namespace api = hierdb::api;
using hierdb::Strategy;
using hierdb::catalog::RelId;
using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear interpolation between closest ranks; `p` in [0, 100].
double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------ workloads --

/// A session with a workload's inputs registered.
struct Bound {
  std::unique_ptr<api::Session> db;
  std::vector<RelId> ids;
};

/// One operation as its client saw it.
struct OpRecord {
  uint64_t index = 0;
  double submit_ms = 0.0;   ///< inside Session::Submit
  double latency_ms = 0.0;  ///< Submit call -> Take return
  double end_ms = 0.0;      ///< Take return, since the phase began
  bool traced = false;      ///< ran with ExecOptions::trace
  hierdb::Status status;
  api::QueryResult result;
  std::string failure;  ///< "" = answer checked and correct
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Operations after which the workload's mix of operations repeats. A
  /// timed phase always ends on a whole round, so every run attempts the
  /// same mix; a traced run alternates untraced and traced rounds.
  virtual uint32_t round_ops() const = 0;
  /// Untimed operations of the set-up.
  virtual uint32_t warmup_ops() const { return round_ops(); }
  /// Builds a session and registers the workload's inputs.
  virtual Bound NewSession() const = 0;
  virtual api::QueryHandle Submit(const Bound& b, uint64_t index,
                                  bool trace) const = 0;
  /// Sets OpRecord::failure on every operation whose answer is wrong or
  /// missing.
  virtual void Check(std::vector<OpRecord>* ops) const = 0;
};

constexpr uint32_t kClients = 2;

api::SessionOptions RealBackendSession() {
  api::SessionOptions so;
  so.max_concurrent_queries = kClients;  // one admission lane per client
  so.pool_threads = 4;  // the same worker shape on any host
  // Ad hoc customer filters publish a new build per query; a budget keeps
  // the cache bounded over a long run.
  so.build_cache_bytes = 32ULL << 20;
  return so;
}

/// star_threads and adhoc_cluster: star queries over one generated schema.
class StarWorkload : public Workload {
 public:
  using QueryFn = StarQuery (*)(uint64_t seed, uint64_t index);

  StarWorkload(uint64_t seed, api::ExecOptions base, QueryFn query,
               uint32_t round)
      : seed_(seed),
        base_(std::move(base)),
        query_(query),
        round_(round),
        schema_(MakeStarSchema(StarSizes{}, seed)),
        reference_(schema_) {}

  uint32_t round_ops() const override { return round_; }

  Bound NewSession() const override {
    Bound b;
    b.db = std::make_unique<api::Session>(RealBackendSession());
    for (const hierdb::mt::Table* t :
         {&schema_.fact, &schema_.customer, &schema_.product,
          &schema_.store}) {
      b.ids.push_back(b.db->AddTable(*t));
    }
    return b;
  }

  api::QueryHandle Submit(const Bound& b, uint64_t index,
                          bool trace) const override {
    const StarQuery q = query_(seed_, index);
    const RelId f = b.ids[0], c = b.ids[1], p = b.ids[2], s = b.ids[3];
    api::QueryBuilder qb = b.db->NewQuery();
    qb.Scan(f)
        .Where(f, fact::kQty, api::CmpOp::kLe, q.qty_max)
        .Probe(c, fact::kCust, customer::kId)
        .Probe(p, fact::kProd, product::kId)
        .Probe(s, fact::kStore, store::kId);
    if (q.customer_filter) {
      qb.Where(c, customer::kBalance, api::CmpOp::kLt, q.balance_max);
    }
    switch (q.group) {
      case GroupKey::kStoreRegion: qb.GroupBy(s, store::kRegion); break;
      case GroupKey::kCustomerNation: qb.GroupBy(c, customer::kNation); break;
      case GroupKey::kCustomerSegment:
        qb.GroupBy(c, customer::kSegment);
        break;
    }
    qb.Count()
        .Agg(api::AggFn::kSum, f, fact::kPrice)
        .Agg(api::AggFn::kMax, f, fact::kQty);
    api::ExecOptions opts = base_;
    opts.strategy = q.strategy;
    opts.trace = trace;
    return b.db->Submit(qb.Build(), opts);
  }

  void Check(std::vector<OpRecord>* ops) const override {
    for (OpRecord& op : *ops) {
      if (!op.status.ok()) {
        op.failure = op.status.ToString();
      } else if (!op.result.materialized) {
        op.failure = "no materialized rows";
      } else {
        op.failure = CheckStar(reference_.Answer(query_(seed_, op.index)),
                               op.result.rows);
      }
    }
  }

 private:
  uint64_t seed_;
  api::ExecOptions base_;
  QueryFn query_;
  uint32_t round_;
  StarSchema schema_;
  StarReference reference_;
};

std::unique_ptr<Workload> MakeStarThreads(uint64_t seed) {
  api::ExecOptions o;
  o.backend = api::Backend::kThreads;
  o.nodes = 1;
  o.threads_per_node = 4;
  o.materialize = true;
  // 12 = the strategy rotation (3) times the build-cache mix (4).
  return std::make_unique<StarWorkload>(seed, o, &StarThreadsQuery, 12);
}

std::unique_ptr<Workload> MakeAdhocCluster(uint64_t seed) {
  api::ExecOptions o;
  o.backend = api::Backend::kCluster;
  o.nodes = 2;
  o.threads_per_node = 2;
  // Global load balancing stays off: with it on, about one query in 500
  // of this shape returned wrong groups (README.md, lb_fault_probe).
  o.global_lb = false;
  o.materialize = true;
  // 12 = four rounds of the group-key rotation (3).
  return std::make_unique<StarWorkload>(seed, o, &AdhocClusterQuery, 12);
}

/// paper_sim: the paper's random 12-relation queries on the simulator.
class PaperSimWorkload : public Workload {
 public:
  struct Machine {
    const char* name;
    uint32_t nodes;
    uint32_t procs;
    Strategy strategy;
  };
  /// Each pool query runs every (machine, strategy) below twice. Each FP
  /// entry directly follows the DP entry of its machine. SP is
  /// left out: its simulated busy time can exceed response time x
  /// threads on some generated plans (see README.md).
  static constexpr Machine kMachines[] = {{"1x32", 1, 32, Strategy::kDP},
                                          {"1x32", 1, 32, Strategy::kFP},
                                          {"4x8", 4, 8, Strategy::kDP},
                                          {"4x8", 4, 8, Strategy::kFP}};
  static constexpr uint32_t kConfigs = std::size(kMachines);
  static constexpr uint32_t kRepeats = 2;
  static constexpr uint32_t kPerQuery = kConfigs * kRepeats;
  /// The first four queries of the paper's workload: a run cycles through
  /// them several times, so every run does nearly the same work.
  static constexpr uint32_t kPoolQueries = 4;
  static constexpr double kScale = 0.005;
  static constexpr double kSkewTheta = 0.6;

  explicit PaperSimWorkload(uint64_t seed)
      : seed_(seed), queries_(MakePaperQueries(kPoolQueries, kScale)) {}

  /// A round runs every pool query; the warm-up runs the first one.
  uint32_t round_ops() const override { return kPerQuery * kPoolQueries; }
  uint32_t warmup_ops() const override { return kPerQuery; }

  /// Which pool query and (machine, strategy) operation `index` runs.
  static uint32_t QueryOf(uint64_t index) {
    return static_cast<uint32_t>((index / kPerQuery) % kPoolQueries);
  }
  static const Machine& MachineOf(uint64_t index) {
    return kMachines[(index % kPerQuery) / kRepeats];
  }

  Bound NewSession() const override {
    Bound b;
    api::SessionOptions so;
    so.max_concurrent_queries = kClients;
    b.db = std::make_unique<api::Session>(so);
    for (const auto& wp : queries_) {
      b.ids.push_back(static_cast<RelId>(b.db->catalog().size()));
      for (const auto& rel : wp.catalog.relations()) {
        b.db->AddRelation(rel.name, rel.cardinality, rel.tuple_bytes);
      }
    }
    return b;
  }

  api::QueryHandle Submit(const Bound& b, uint64_t index,
                          bool trace) const override {
    const uint32_t qi = QueryOf(index);
    const Machine& m = MachineOf(index);
    const RelId base = b.ids[qi];
    api::QueryBuilder qb = b.db->NewQuery();
    for (const auto& e : queries_[qi].edges) {
      qb.Join(base + e.a, base + e.b, e.selectivity);
    }
    api::ExecOptions opts;
    opts.backend = api::Backend::kSimulated;
    opts.strategy = m.strategy;
    hierdb::sim::SystemConfig cfg;
    cfg.num_nodes = m.nodes;
    cfg.procs_per_node = m.procs;
    opts.sim_config = cfg;
    opts.seed = PaperSimSeed(seed_, qi);
    opts.skew_theta = kSkewTheta;
    opts.trace = trace;
    return b.db->Submit(qb.Build(), opts);
  }

  void Check(std::vector<OpRecord>* ops) const override {
    std::map<uint64_t, OpRecord*> by_index;
    for (OpRecord& op : *ops) {
      if (!op.status.ok()) {
        op.failure = op.status.ToString();
      } else if (!op.result.report.sim.has_value()) {
        op.failure = "no simulator metrics";
      } else {
        op.failure = CheckOne(op.result.report);
      }
      by_index[op.index] = &op;
    }
    auto find = [&](uint64_t i) -> OpRecord* {
      auto it = by_index.find(i);
      return it == by_index.end() || !it->second->status.ok() ? nullptr
                                                               : it->second;
    };
    for (auto& [index, op] : by_index) {
      // The second run of each pair must agree exactly with the first.
      if (index % kRepeats == 1 && op->failure.empty()) {
        const OpRecord* first = find(index - 1);
        if (first == nullptr) {
          op->failure = "first run of the pair is missing";
        } else if (!SameRun(first->result.report, op->result.report)) {
          op->failure = "the two runs of one (plan, machine, strategy, "
                        "seed) disagree";
        }
      }
      // DP and FP process the same tuples for one plan and seed.
      if (MachineOf(index).strategy == Strategy::kFP && op->failure.empty()) {
        const OpRecord* dp = find(index - kRepeats);
        if (dp == nullptr) {
          op->failure = "DP run of the same plan is missing";
        } else if (dp->result.report.tuples != op->result.report.tuples) {
          op->failure = "DP and FP processed different tuple counts";
        }
      }
    }
  }

 private:
  static std::string CheckOne(const api::ExecutionReport& rep) {
    const hierdb::exec::RunMetrics& m = *rep.sim;
    if (m.response_time <= 0) return "non-positive response time";
    if (static_cast<double>(m.response_time) * m.threads <
        static_cast<double>(m.busy_ns_total)) {
      return "busy time exceeds response time x threads";
    }
    for (hierdb::SimTime end : m.op_end_time) {
      if (end > m.response_time) return "an operator ends after the response";
    }
    return "";
  }

  static bool SameRun(const api::ExecutionReport& a,
                      const api::ExecutionReport& b) {
    return a.sim->response_time == b.sim->response_time &&
           a.sim->busy_ns_total == b.sim->busy_ns_total &&
           a.activations == b.activations && a.tuples == b.tuples &&
           a.steals == b.steals && a.lb_bytes == b.lb_bytes &&
           a.pipeline_bytes == b.pipeline_bytes &&
           a.sim->op_end_time == b.sim->op_end_time;
  }

  uint64_t seed_;
  std::vector<hierdb::opt::WorkloadPlan> queries_;
};

// ---------------------------------------------------------------- phases --

/// A span the benchmark records around one call into the program.
struct Span {
  const char* name = "";
  double start_ms = 0.0;  ///< since the phase began
  double end_ms = 0.0;
};

/// One closed-loop phase: clients run operations until a deadline (ending
/// on a whole round) or until `limit` operations have been claimed.
struct Phase {
  std::vector<OpRecord> ops;  ///< sorted by index
  std::vector<Span> spans;
  double wall_s = 0.0;  ///< phase start -> last completion
  double cpu_s = 0.0;   ///< process CPU over the phase
  api::PoolStats pool_before, pool_after;
  uint64_t recorded_before = 0, recorded_after = 0;

  uint64_t failed() const {
    return static_cast<uint64_t>(std::count_if(
        ops.begin(), ops.end(),
        [](const OpRecord& o) { return !o.failure.empty(); }));
  }
  /// Median over kWindows equal slices of the phase of the operations
  /// completed per second: a slice the host stalled does not move it.
  double WindowedQps() const {
    constexpr int kWindows = 5;
    if (wall_s <= 0) return 0.0;
    const double width_ms = wall_s * 1000.0 / kWindows;
    std::vector<double> done(kWindows, 0.0);
    for (const OpRecord& op : ops) {
      const int w = std::min(kWindows - 1, static_cast<int>(op.end_ms / width_ms));
      done[static_cast<size_t>(w)] += 1.0;
    }
    std::vector<double> rates;
    for (double d : done) rates.push_back(d * 1000.0 / width_ms);
    return Percentile(rates, 50);
  }
};

class Claims {
 public:
  Claims(uint64_t first, uint64_t limit, uint32_t round,
         Clock::time_point deadline)
      : first_(first), next_(first), limit_(limit), round_(round),
        deadline_(deadline) {}

  bool Claim(uint64_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return false;
    const uint64_t n = next_ - first_;
    if (n >= limit_ || (n % round_ == 0 && Clock::now() >= deadline_)) {
      done_ = true;
      return false;
    }
    *index = next_++;
    return true;
  }

 private:
  std::mutex mu_;
  const uint64_t first_;
  uint64_t next_;
  const uint64_t limit_;
  const uint32_t round_;
  const Clock::time_point deadline_;
  bool done_ = false;
};

/// `alternate_trace` traces every other round.
Phase RunPhase(const Workload& w, const Bound& b, uint64_t first,
               uint64_t limit, double seconds, bool alternate_trace) {
  Phase ph;
  ph.pool_before = b.db->pool_stats();
  ph.recorded_before = b.db->MetricsSnapshot().recorder.recorded;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      seconds > 0 ? t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds))
                  : Clock::time_point::max();
  Claims claims(first, limit, w.round_ops(), deadline);

  struct ClientLog {
    std::vector<OpRecord> ops;
    std::vector<Span> spans;
    Clock::time_point last_end;
  };
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      log.last_end = t0;
      uint64_t index = 0;
      while (claims.Claim(&index)) {
        const bool trace =
            alternate_trace && (index / w.round_ops()) % 2 == 1;
        const Clock::time_point s0 = Clock::now();
        api::QueryHandle h = w.Submit(b, index, trace);
        const Clock::time_point s1 = Clock::now();
        auto r = h.Take();
        const Clock::time_point s2 = Clock::now();
        OpRecord rec;
        rec.index = index;
        rec.submit_ms = Ms(s1 - s0);
        rec.latency_ms = Ms(s2 - s0);
        rec.end_ms = Ms(s2 - t0);
        rec.traced = trace;
        rec.status = r.status();
        if (r.ok()) rec.result = std::move(r).value();
        log.ops.push_back(std::move(rec));
        log.spans.push_back({"submit", Ms(s0 - t0), Ms(s1 - t0)});
        log.spans.push_back({"take", Ms(s1 - t0), Ms(s2 - t0)});
        log.last_end = s2;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  ph.cpu_s = CpuSeconds() - cpu0;
  Clock::time_point end = t0;
  for (ClientLog& log : logs) {
    end = std::max(end, log.last_end);
    for (OpRecord& op : log.ops) ph.ops.push_back(std::move(op));
    ph.spans.insert(ph.spans.end(), log.spans.begin(), log.spans.end());
  }
  ph.wall_s = Ms(end - t0) / 1000.0;
  std::sort(ph.ops.begin(), ph.ops.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.index < b.index;
            });
  ph.pool_after = b.db->pool_stats();
  ph.recorded_after = b.db->MetricsSnapshot().recorder.recorded;
  return ph;
}

/// Warm-up operations come from an index range the timed phases never
/// reach, starting a round.
uint64_t WarmupFirst(const Workload& w) {
  return (1ULL << 32) * w.round_ops();
}

/// Builds a session and runs the untimed warm-up operations.
/// Returns the set-up time in seconds.
double SetUp(const Workload& w, Bound* b) {
  const Clock::time_point t0 = Clock::now();
  *b = w.NewSession();
  Phase warm = RunPhase(w, *b, WarmupFirst(w), w.warmup_ops(), 0.0, false);
  const double s = Ms(Clock::now() - t0) / 1000.0;
  for (const OpRecord& op : warm.ops) {
    if (!op.status.ok()) {
      std::fprintf(stderr, "warm-up operation failed: %s\n",
                   op.status.ToString().c_str());
      std::exit(1);
    }
  }
  return s;
}

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

void ReportFailures(const char* phase, const Phase& ph) {
  for (const OpRecord& op : ph.ops) {
    if (op.failure.empty()) continue;
    std::fprintf(stderr, "FAILED %s op %llu: %s\n", phase,
                 static_cast<unsigned long long>(op.index),
                 op.failure.c_str());
  }
}

std::vector<Metric> EndToEnd(const Phase& ph, double setup_s) {
  std::vector<double> lat;
  for (const OpRecord& op : ph.ops) lat.push_back(op.latency_ms);
  const double done = static_cast<double>(ph.ops.size());
  return {
      {"setup_s", "s", setup_s},
      {"qps", "1/s", ph.WindowedQps()},
      {"latency_p50_ms", "ms", Percentile(lat, 50)},
      {"latency_p90_ms", "ms", Percentile(lat, 90)},
      {"cpu_ms_per_query", "ms", ph.cpu_s * 1000.0 / done},
      {"peak_rss_mb", "MiB", PeakRssMiB()},
  };
}

/// Busy time and work of one backend's trace spans, summed over a phase.
struct SpanSums {
  double scan_ms = 0, build_ms = 0, probe_ms = 0, agg_ms = 0;
  uint64_t probe_rows_in = 0, probe_activations = 0;
  /// Per probe label ("probe customer", ...): rows in and activations.
  std::map<std::string, std::pair<uint64_t, uint64_t>> per_probe;

  void Add(const hierdb::obs::QueryTrace& qt) {
    for (const auto& ev : qt.events) {
      if (ev.kind != hierdb::obs::EventKind::kSpan || ev.op < 0 ||
          static_cast<size_t>(ev.op) >= qt.ops.size()) {
        continue;
      }
      const auto& op = qt.ops[static_cast<size_t>(ev.op)];
      const double ms = static_cast<double>(ev.detail) / 1e6;
      if (op.kind == "scan") {
        scan_ms += ms;
      } else if (op.kind == "build" || op.kind == "buildscan") {
        build_ms += ms;
      } else if (op.kind == "agg") {
        agg_ms += ms;
      } else if (op.kind == "probe") {
        probe_ms += ms;
        probe_rows_in += ev.rows_in;
        probe_activations += ev.activations;
        auto& pp = per_probe[op.label];
        pp.first += ev.rows_in;
        pp.second += ev.activations;
      }
    }
  }
};

double Div(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Per-layer metrics of a phase that alternated untraced and traced
/// blocks. Per-operation means come from the traced operations; pool,
/// recorder and simulator rates cover the whole phase, whose two halves
/// run the same mix.
std::vector<Metric> PerLayer(const Phase& ph) {
  double submit_ms = 0, queue_ms = 0, exec_ms = 0;
  double lat_traced = 0, lat_plain = 0, n_plain = 0;
  // Threads backend.
  double mt_n = 0, mt_data_acts = 0, mt_idle = 0, mt_imb = 0;
  double mt_hits = 0, mt_misses = 0;
  SpanSums mt_spans;
  // Cluster backend.
  double cl_n = 0, cl_acts = 0, cl_imb = 0, cl_idle = 0;
  double net_msgs = 0, net_bytes = 0, net_dataflow = 0, net_agg = 0;
  SpanSums cl_spans;
  // Simulator: one response time per distinct (query, machine, strategy);
  // the values are deterministic for one seed.
  double sim_acts = 0;
  std::map<std::string, std::map<std::pair<uint32_t, std::string>, double>>
      sim_response;
  for (const OpRecord& op : ph.ops) {
    const api::ExecutionReport& rep = op.result.report;
    if (!op.status.ok() || rep.backend != api::Backend::kSimulated) continue;
    sim_acts += rep.activations;
    sim_response[hierdb::StrategyName(rep.strategy)]
                [{PaperSimWorkload::QueryOf(op.index),
                  PaperSimWorkload::MachineOf(op.index).name}] =
                    rep.response_ms;
  }

  double n = 0;
  for (const OpRecord& op : ph.ops) {
    if (!op.status.ok()) continue;
    if (!op.traced) {
      lat_plain += op.latency_ms;
      ++n_plain;
      continue;
    }
    ++n;
    lat_traced += op.latency_ms;
    const api::ExecutionReport& rep = op.result.report;
    submit_ms += op.submit_ms;
    queue_ms += op.result.queue_ms;
    exec_ms += op.result.exec_ms;
    if (rep.backend == api::Backend::kThreads) {
      ++mt_n;
      if (rep.threads) mt_data_acts += rep.threads->data_activations;
      mt_idle += rep.idle_waits;
      mt_imb += rep.imbalance;
      mt_hits += rep.build_cache_hits;
      mt_misses += rep.build_cache_misses;
      if (rep.trace) mt_spans.Add(*rep.trace);
    } else if (rep.backend == api::Backend::kCluster) {
      ++cl_n;
      cl_acts += rep.activations;
      cl_imb += rep.imbalance;
      cl_idle += rep.idle_waits;
      net_agg += rep.agg_repartition_bytes;
      if (rep.cluster) {
        net_msgs += rep.cluster->fabric.messages;
        net_bytes += rep.cluster->fabric.bytes;
        net_dataflow += rep.cluster->dataflow_bytes;
      }
      if (rep.trace) cl_spans.Add(*rep.trace);
    }
  }
  auto geo = [&](const char* strategy) {
    auto it = sim_response.find(strategy);
    if (it == sim_response.end()) return 0.0;
    double log_sum = 0;
    for (const auto& [key, ms] : it->second) log_sum += std::log(ms);
    return std::exp(log_sum / static_cast<double>(it->second.size()));
  };
  for (const auto* s : {&mt_spans, &cl_spans}) {
    for (const auto& [label, pp] : s->per_probe) {
      std::fprintf(stderr, "probe spans %-20s rows_in %12llu activations "
                   "%10llu rows/activation %.3f\n",
                   label.c_str(), static_cast<unsigned long long>(pp.first),
                   static_cast<unsigned long long>(pp.second),
                   Div(pp.first, pp.second));
    }
  }
  const double all = static_cast<double>(ph.ops.size());
  // In a closed loop throughput is clients / mean latency, so this is
  // 1 - traced qps / untraced qps.
  const double overhead =
      n > 0 && n_plain > 0 ? 1.0 - (lat_plain / n_plain) / (lat_traced / n)
                           : 0.0;
  return {
      {"api.submit_ms", "ms", Div(submit_ms, n)},
      {"api.pool_foreign_steals_per_query", "count",
       Div(ph.pool_after.foreign_steals - ph.pool_before.foreign_steals,
           all)},
      {"api.pool_gang_threads_per_query", "count",
       Div(ph.pool_after.gang_threads - ph.pool_before.gang_threads, all)},
      {"sched.queue_ms", "ms", Div(queue_ms, n)},
      {"sched.exec_ms", "ms", Div(exec_ms, n)},
      {"mt.scan_busy_ms", "ms", Div(mt_spans.scan_ms, mt_n)},
      {"mt.build_busy_ms", "ms", Div(mt_spans.build_ms, mt_n)},
      {"mt.probe_busy_ms", "ms", Div(mt_spans.probe_ms, mt_n)},
      {"mt.data_activations_per_query", "count", Div(mt_data_acts, mt_n)},
      {"mt.rows_per_data_activation", "count",
       Div(mt_spans.probe_rows_in, mt_spans.probe_activations)},
      {"mt.idle_waits_per_query", "count", Div(mt_idle, mt_n)},
      {"mt.build_cache_hit_ratio", "ratio",
       Div(mt_hits, mt_hits + mt_misses)},
      {"mt.imbalance", "ratio", Div(mt_imb, mt_n)},
      {"cluster.scan_busy_ms", "ms", Div(cl_spans.scan_ms, cl_n)},
      {"cluster.build_busy_ms", "ms", Div(cl_spans.build_ms, cl_n)},
      {"cluster.probe_busy_ms", "ms", Div(cl_spans.probe_ms, cl_n)},
      {"cluster.agg_busy_ms", "ms", Div(cl_spans.agg_ms, cl_n)},
      {"cluster.data_activations_per_query", "count", Div(cl_acts, cl_n)},
      {"cluster.rows_per_data_activation", "count",
       Div(cl_spans.probe_rows_in, cl_spans.probe_activations)},
      {"cluster.node_imbalance", "ratio", Div(cl_imb, cl_n)},
      {"cluster.idle_waits_per_query", "count", Div(cl_idle, cl_n)},
      {"net.messages_per_query", "count", Div(net_msgs, cl_n)},
      {"net.bytes_per_query", "bytes", Div(net_bytes, cl_n)},
      {"net.dataflow_bytes_per_query", "bytes", Div(net_dataflow, cl_n)},
      {"net.agg_repartition_bytes_per_query", "bytes", Div(net_agg, cl_n)},
      {"sim.activations_per_cpu_ms", "1/ms",
       Div(sim_acts, ph.cpu_s * 1000.0)},
      {"sim.virtual_response_ms.dp", "ms", geo("DP")},
      {"sim.virtual_response_ms.fp", "ms", geo("FP")},
      {"obs.recorder_events_per_query", "count",
       Div(static_cast<double>(ph.recorded_after - ph.recorded_before), all)},
      {"obs.trace_overhead_frac", "ratio", overhead},
  };
}

void PrintResult(uint64_t attempted, uint64_t failed, bool correct,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintSpanSummary(const std::vector<Span>& spans) {
  std::map<std::string, std::pair<double, uint64_t>> by_name;
  for (const Span& s : spans) {
    auto& e = by_name[s.name];
    e.first += s.end_ms - s.start_ms;
    ++e.second;
  }
  for (const auto& [name, e] : by_name) {
    std::fprintf(stderr, "bench span %-8s n=%-6llu mean %.3f ms\n",
                 name.c_str(), static_cast<unsigned long long>(e.second),
                 e.first / static_cast<double>(e.second));
  }
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

constexpr int kSetups = 3;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hierdb_perf --workload "
                 "<star_threads|adhoc_cluster|paper_sim> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> w;
  if (args.workload == "star_threads") {
    w = MakeStarThreads(args.seed);
  } else if (args.workload == "adhoc_cluster") {
    w = MakeAdhocCluster(args.seed);
  } else if (args.workload == "paper_sim") {
    w = std::make_unique<PaperSimWorkload>(args.seed);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Bound b;
  if (!args.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      b = Bound();  // tear the previous session down outside the timing
      setups.push_back(SetUp(*w, &b));
    }
    Phase ph = RunPhase(*w, b, 0, UINT64_MAX, args.seconds, false);
    w->Check(&ph.ops);
    ReportFailures("timed", ph);
    PrintSpanSummary(ph.spans);
    PrintResult(ph.ops.size(), ph.failed(), !ph.ops.empty(),
                EndToEnd(ph, Percentile(setups, 50)));
    return 0;
  }

  const Clock::time_point s0 = Clock::now();
  SetUp(*w, &b);
  std::vector<Span> spans = {{"warmup", 0.0, Ms(Clock::now() - s0)}};
  Phase ph = RunPhase(*w, b, 0, UINT64_MAX, args.seconds, true);
  w->Check(&ph.ops);
  ReportFailures("traced run", ph);
  spans.insert(spans.end(), ph.spans.begin(), ph.spans.end());
  PrintSpanSummary(spans);
  PrintResult(ph.ops.size(), ph.failed(), !ph.ops.empty(), PerLayer(ph));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
