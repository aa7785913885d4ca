// Flight-recorder overhead bench: the always-on black box is only
// "always-on" if it is too cheap to turn off. This runs the same
// threads-backend query stream through two sessions — recorder armed
// (the default) and disarmed (SessionOptions::flight_recorder=false,
// every Record call reduced to one branch) — and measures the
// throughput delta the recorder costs.
//
// Trials run in `--repeats` armed/disarmed pairs, back to back and in
// alternating order (armed first in odd pairs), so both trials of a pair
// see the same host load. Each pair gives one overhead, 1 - armed qps /
// disarmed qps; the gate takes the median over the pairs and prints
// their spread. Stream makespans on a shared host drift by several
// percent between trials, which a best-of-3 per mode compared as if it
// were the recorder's cost. The acceptance gate: the armed recorder
// costs at most 5% of disarmed throughput.
//
// Flags: --queries=N  stream length per trial (default 600)
//        --repeats=N  armed/disarmed pairs (default 40)
//        --quick      CI smoke: 200 queries
//        --seed=N     table/synthesis seed
//        --out=PATH   JSON baseline path (default BENCH_obs.json)
//        --check      enforce the <= 5% gate with nonzero exit instead
//                     of rewriting the baseline

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "mt/row.h"

using namespace hierdb;

namespace {

struct Args {
  uint32_t queries = 600;
  uint32_t repeats = 40;
  uint64_t seed = 42;
  std::string out = "BENCH_obs.json";
  bool check = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--queries=%u", &a.queries) == 1) continue;
    if (sscanf(argv[i], "--repeats=%u", &a.repeats) == 1) continue;
    if (sscanf(argv[i], "--seed=%lu", &a.seed) == 1) continue;
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      a.out = argv[i] + 6;
      continue;
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.queries = 200;
      continue;
    }
    if (std::strcmp(argv[i], "--check") == 0) {
      a.check = true;
      continue;
    }
  }
  if (a.queries < 50) a.queries = 50;
  if (a.repeats < 1) a.repeats = 1;
  return a;
}

/// Median of `v` (copied: callers keep their order).
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Trial {
  double qps = 0.0;
  double makespan_ms = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
};

struct ModeResult {
  bool armed = false;
  std::vector<Trial> trials;     ///< in pair order
  uint64_t events_recorded = 0;  ///< recorder lifetime counter (armed)
  uint64_t events_dropped = 0;
  uint32_t rings_claimed = 0;
};

/// One stream trial: submit `queries` 2-join chain queries through the
/// async scheduler (4 lanes) and drain them all.
Trial RunTrial(api::Session& db, const api::Query& q, uint32_t queries,
               uint64_t seed, int* failures) {
  api::ExecOptions o;
  o.backend = api::Backend::kThreads;
  o.strategy = Strategy::kDP;
  o.threads_per_node = 2;
  o.seed = seed;

  Trial t;
  const double t0 = NowMs();
  std::vector<api::QueryHandle> handles;
  handles.reserve(queries);
  for (uint32_t i = 0; i < queries; ++i) handles.push_back(db.Submit(q, o));
  std::vector<double> lat_ms;
  lat_ms.reserve(queries);
  for (uint32_t i = 0; i < handles.size(); ++i) {
    auto r = handles[i].Take();
    if (!r.ok()) {
      ++*failures;
      std::fprintf(stderr, "FAIL: query %u: %s\n", i,
                   r.status().ToString().c_str());
      continue;
    }
    lat_ms.push_back(r.value().queue_ms + r.value().exec_ms);
  }
  t.makespan_ms = NowMs() - t0;
  t.qps = queries / (t.makespan_ms / 1000.0);
  bench::ThroughputSummary sum = bench::Summarize(lat_ms, t.makespan_ms);
  t.p50_ms = sum.p50_ms;
  t.p99_ms = sum.p99_ms;
  return t;
}

/// One mode's session and its trials: trials are paired across modes by
/// main() so neither mode systematically inherits a colder machine or a
/// warmer allocator than the other.
struct Mode {
  explicit Mode(const Args& args, bool armed_in) : armed(armed_in) {
    api::SessionOptions so;
    so.flight_recorder = armed;
    so.max_concurrent_queries = 4;
    so.max_queued = args.queries + 16;
    db = std::make_unique<api::Session>(so);
    api::RelId fact =
        db->AddTable(mt::MakeTable("fact", 20000, 3, 400, args.seed));
    api::RelId d1 =
        db->AddTable(mt::MakeTable("d1", 400, 2, 40, args.seed + 1));
    api::RelId d2 =
        db->AddTable(mt::MakeTable("d2", 400, 2, 40, args.seed + 2));
    q = db->NewQuery().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Build();
  }

  void RunOne(const Args& args, uint32_t rep, int* failures) {
    Trial t = RunTrial(*db, q, args.queries, args.seed + rep, failures);
    std::printf("  %-8s pair %u: %8.1f qps  p50 %6.2f  p99 %6.2f  "
                "%8.0f ms\n",
                armed ? "armed" : "disarmed", rep + 1, t.qps, t.p50_ms,
                t.p99_ms, t.makespan_ms);
    result.trials.push_back(t);
  }

  ModeResult Finish() {
    result.armed = armed;
    const api::SessionMetrics metrics = db->MetricsSnapshot();
    result.events_recorded = metrics.recorder.recorded;
    result.events_dropped = metrics.recorder.dropped;
    result.rings_claimed = metrics.recorder.rings_claimed;
    return result;
  }

  bool armed;
  std::unique_ptr<api::Session> db;
  api::Query q;
  ModeResult result;
};

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  std::printf("=== flight-recorder overhead: %u threads-backend queries x "
              "%u trials, armed vs disarmed ===\n\n",
              args.queries, args.repeats);

  int failures = 0;
  bench::JsonBaseline json;

  Mode off(args, /*armed=*/false);
  Mode on(args, /*armed=*/true);
  // One untimed warmup per session (thread pools spun up, caches and
  // allocator warm), then interleaved timed trials.
  {
    int warm_failures = 0;
    std::printf("  (warmup)\n");
    RunTrial(*off.db, off.q, args.queries / 2 + 1, args.seed, &warm_failures);
    RunTrial(*on.db, on.q, args.queries / 2 + 1, args.seed, &warm_failures);
    failures += warm_failures;
  }
  for (uint32_t rep = 0; rep < args.repeats; ++rep) {
    Mode& first = rep % 2 == 0 ? off : on;
    Mode& second = rep % 2 == 0 ? on : off;
    first.RunOne(args, rep, &failures);
    second.RunOne(args, rep, &failures);
  }
  ModeResult disarmed = off.Finish();
  ModeResult armed = on.Finish();

  // One overhead per pair; the median is the gated estimate.
  std::vector<double> pair_overheads;
  for (uint32_t i = 0; i < args.repeats; ++i) {
    const double base = disarmed.trials[i].qps;
    pair_overheads.push_back(base > 0.0 ? 1.0 - armed.trials[i].qps / base
                                        : 0.0);
  }
  std::sort(pair_overheads.begin(), pair_overheads.end());
  const double overhead = Median(pair_overheads);
  const double overhead_lo = pair_overheads.front();
  const double overhead_hi = pair_overheads.back();
  const double overhead_q1 = pair_overheads[pair_overheads.size() / 4];
  const double overhead_q3 = pair_overheads[pair_overheads.size() * 3 / 4];
  // Lifetime counter over every query the armed session ran, warmup
  // included.
  const double events_per_query =
      static_cast<double>(armed.events_recorded) /
      (args.queries * args.repeats + args.queries / 2 + 1);

  for (const ModeResult* m : {&disarmed, &armed}) {
    std::vector<double> qps, p50, p99;
    for (const Trial& t : m->trials) {
      qps.push_back(t.qps);
      p50.push_back(t.p50_ms);
      p99.push_back(t.p99_ms);
    }
    json.Row()
        .Str("sweep", "recorder_overhead")
        .Str("mode", m->armed ? "armed" : "disarmed")
        .Num("queries", static_cast<uint64_t>(args.queries))
        .Num("pairs", static_cast<uint64_t>(args.repeats))
        .Num("median_qps", Median(qps))
        .Num("median_p50_ms", Median(p50))
        .Num("median_p99_ms", Median(p99))
        .Num("events_recorded", m->events_recorded)
        .Num("events_dropped", m->events_dropped)
        .Num("rings_claimed", static_cast<uint64_t>(m->rings_claimed));
  }
  json.Row()
      .Str("sweep", "recorder_overhead")
      .Str("mode", "delta")
      .Num("overhead_frac", overhead)
      .Num("overhead_min", overhead_lo)
      .Num("overhead_q1", overhead_q1)
      .Num("overhead_q3", overhead_q3)
      .Num("overhead_max", overhead_hi)
      .Num("events_per_query", events_per_query);

  std::printf("\nmedian of %u paired overheads: %+.2f%% (quartiles %+.2f%% "
              "to %+.2f%%, pairs span %+.2f%% to %+.2f%%; %.1f events/query, "
              "%llu dropped)\n",
              args.repeats, 100.0 * overhead, 100.0 * overhead_q1,
              100.0 * overhead_q3, 100.0 * overhead_lo, 100.0 * overhead_hi,
              events_per_query, (unsigned long long)armed.events_dropped);

  // The gate: always-on must cost <= 5% of disarmed throughput. Absolute,
  // not baseline-relative — a recorder that got expensive fails CI even
  // if it got expensive slowly.
  if (overhead > 0.05) {
    ++failures;
    std::fprintf(stderr, "FAIL[check]: recorder overhead %.2f%% > 5%%\n",
                 100.0 * overhead);
  }
  if (armed.events_recorded == 0) {
    ++failures;
    std::fprintf(stderr, "FAIL[check]: armed recorder recorded nothing\n");
  }
  if (args.check) {
    std::printf("%s\n", failures == 0 ? "check OK" : "check FAILED");
  } else if (failures == 0 && json.Write(args.out)) {
    std::printf("baseline written to %s\n", args.out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
