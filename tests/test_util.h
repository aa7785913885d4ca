// Shared helpers for the test suite: tiny canned catalogs, plans and
// configurations so individual tests stay focused on behaviour.

#ifndef HIERDB_TESTS_TEST_UTIL_H_
#define HIERDB_TESTS_TEST_UTIL_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "cluster/cluster_executor.h"
#include "exec/engine.h"
#include "opt/workload.h"
#include "plan/join_graph.h"
#include "plan/operator_tree.h"
#include "sim/config.h"

namespace hierdb::test {

/// A catalog with relations R0..R{n-1} of the given cardinalities.
catalog::Catalog MakeCatalog(std::initializer_list<uint64_t> cards);

/// The paper's Figure 2 query: four relations joined along a chain-ish
/// acyclic graph, producing a bushy tree with three joins.
struct Fig2Query {
  catalog::Catalog catalog;
  plan::JoinTree tree;
  plan::PhysicalPlan plan;
};
Fig2Query MakeFig2Query(uint64_t scale = 1000);

/// A two-relation join (the Section 3.3 example).
struct SimpleJoin {
  catalog::Catalog catalog;
  plan::PhysicalPlan plan;
};
SimpleJoin MakeSimpleJoin(uint64_t r_card, uint64_t s_card);

/// Small fast system configuration for engine tests.
sim::SystemConfig SmallConfig(uint32_t nodes, uint32_t procs);

/// Runs a plan and requires success; returns the metrics.
exec::RunMetrics MustRun(const sim::SystemConfig& cfg, exec::Strategy strat,
                         const catalog::Catalog& cat,
                         const plan::PhysicalPlan& plan,
                         const exec::RunOptions& opts = {});

/// A one-chain cluster query: `input` (table 0) probed at `probe_cols`
/// against `builds` (tables 1..J, joined on their column 0) in order.
cluster::PlanQuery ChainPlanQuery(
    const cluster::PartitionedTable* input,
    const std::vector<const cluster::PartitionedTable*>& builds,
    const std::vector<uint32_t>& probe_cols);

}  // namespace hierdb::test

#endif  // HIERDB_TESTS_TEST_UTIL_H_
