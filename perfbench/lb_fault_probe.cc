// Load-balancing fault probe (not a benchmark workload).
//
//   lb_fault_probe [--runs N] [--seed S]
//
// Runs the cluster executor's sweep shape -- FP, 4 nodes x 3 threads, a
// 12k-row fact probing two 250-row dimensions, with round-robin and
// Zipf(0.8) fact placement alternating -- N times with global load
// balancing on and N times with it off, through api::Session with
// materialized rows. Every answer is checked against the benchmark's own
// single-threaded hash join (check.h). Prints the wrong-answer count of
// each arm; exits 0 whatever the counts, non-zero only on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/session.h"
#include "check.h"
#include "inputs.h"

namespace perfbench {
namespace {

namespace api = hierdb::api;

struct Arm {
  uint32_t wrong = 0;
  uint32_t errors = 0;
  uint64_t steals = 0;
};

/// One run: fresh session, fresh inputs for (seed, run), one FP query.
void RunOnce(uint64_t seed, uint32_t run, bool global_lb, Arm* arm) {
  const ChainInputs in = MakeChainInputs(12000, 250, SubSeed(seed, 0x70, run));
  api::Session db;
  const auto f = db.AddTable(in.fact);
  const auto d0 = db.AddTable(in.dim0);
  const auto d1 = db.AddTable(in.dim1);
  api::Query q = db.NewQuery().Scan(f).Probe(d0, 1, 0).Probe(d1, 2, 0).Build();
  api::ExecOptions o;
  o.backend = api::Backend::kCluster;
  o.strategy = hierdb::Strategy::kFP;
  o.nodes = 4;
  o.threads_per_node = 3;
  o.buckets = 64;
  o.morsel_rows = 1000;
  o.batch_rows = 128;
  o.queue_capacity = 32;
  o.placement_theta = run % 2 == 0 ? 0.0 : 0.8;
  o.global_lb = global_lb;
  o.materialize = true;
  o.seed = SubSeed(seed, 0x71, run);
  auto r = db.Submit(q, o).Take();
  if (!r.ok()) {
    ++arm->errors;
    std::fprintf(stderr, "run %u lb=%d: %s\n", run, global_lb,
                 r.status().ToString().c_str());
    return;
  }
  arm->steals += r.value().report.steals;
  const std::string diff =
      CompareRows(ExpectedChain(in), RowsOf(r.value().rows));
  if (!diff.empty()) {
    ++arm->wrong;
    std::fprintf(stderr, "run %u lb=%d placement_theta=%.1f wrong: %s\n", run,
                 global_lb, o.placement_theta, diff.c_str());
  }
}

int Main(int argc, char** argv) {
  uint32_t runs = 100;
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--runs") == 0) {
      runs = static_cast<uint32_t>(std::strtoul(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: lb_fault_probe [--runs N] [--seed S]\n");
      return 2;
    }
  }
  if (argc % 2 == 0 || runs == 0) {
    std::fprintf(stderr, "usage: lb_fault_probe [--runs N] [--seed S]\n");
    return 2;
  }
  Arm on, off;
  for (uint32_t run = 0; run < runs; ++run) {
    RunOnce(seed, run, true, &on);
    RunOnce(seed, run, false, &off);
  }
  std::printf("lb_fault_probe: FP 4x3, 12000-row fact, two 250-row dims, "
              "seed %llu\n",
              static_cast<unsigned long long>(seed));
  std::printf("global_lb=on : %u wrong, %u errors of %u runs (%llu steals)\n",
              on.wrong, on.errors, runs,
              static_cast<unsigned long long>(on.steals));
  std::printf("global_lb=off: %u wrong, %u errors of %u runs (%llu steals)\n",
              off.wrong, off.errors, runs,
              static_cast<unsigned long long>(off.steals));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
