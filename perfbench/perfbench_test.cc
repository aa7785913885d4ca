// Self-tests of the benchmark's inputs and answer checker.
//
//   .bench_build/perfbench_test
//
// Shows that the checker rejects a perturbed group row and a dropped
// group, that one seed regenerates identical inputs while another seed
// gives different ones, and that the checker agrees with the program on a
// small star query. Exits non-zero when any check fails.

#include <cstdio>
#include <string>
#include <vector>

#include "api/session.h"
#include "check.h"
#include "inputs.h"

namespace perfbench {
namespace {

namespace api = hierdb::api;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("[%s] %s\n", ok ? " OK " : "FAIL", what);
  if (!ok) ++failures;
}

StarSizes Small() {
  StarSizes s;
  s.fact_rows = 5000;
  s.customers = 800;
  s.products = 50;
  s.stores = 16;
  return s;
}

hierdb::mt::Batch ToBatch(const Rows& rows) {
  hierdb::mt::Batch b(static_cast<uint32_t>(rows.front().size()));
  for (const Row& r : rows) b.AppendRow(r.data());
  return b;
}

bool SameTable(const hierdb::mt::Table& a, const hierdb::mt::Table& b) {
  return a.width() == b.width() && a.batch.data() == b.batch.data();
}

void CheckerRejectsWrongAnswers() {
  const StarSchema schema = MakeStarSchema(Small(), 3);
  const StarReference ref(schema);
  StarQuery q;
  q.group = GroupKey::kCustomerNation;
  q.qty_max = 70;
  const StarAnswer ans = ref.Answer(q);
  Expect(ans.rows.size() > 2, "reference answer has several groups");

  Rows reordered(ans.rows.rbegin(), ans.rows.rend());
  Expect(CheckStar(ans, ToBatch(reordered)).empty(),
         "checker accepts the expected groups in any order");

  Rows perturbed = ans.rows;
  perturbed[1][2] += 1;  // SUM(price) of one group
  Expect(!CheckStar(ans, ToBatch(perturbed)).empty(),
         "checker rejects a perturbed aggregate");

  Rows regrouped = ans.rows;
  regrouped[0][0] += 1000;  // group value no query can produce
  Expect(!CheckStar(ans, ToBatch(regrouped)).empty(),
         "checker rejects a perturbed group value");

  Rows dropped = ans.rows;
  dropped.pop_back();
  Expect(!CheckStar(ans, ToBatch(dropped)).empty(),
         "checker rejects a dropped group");

  // Moving one count between groups keeps the COUNT sum but not the rows.
  Rows shifted = ans.rows;
  shifted[0][1] += 1;
  shifted[1][1] -= 1;
  Expect(!CheckStar(ans, ToBatch(shifted)).empty(),
         "checker rejects counts moved between groups");

  const ChainInputs in = MakeChainInputs(500, 40, 3);
  Rows chain = ExpectedChain(in);
  Expect(chain.size() == 500, "every chain fact row finds both dimensions");
  Rows chain_dropped(chain.begin() + 1, chain.end());
  Expect(!CompareRows(chain, chain_dropped).empty(),
         "row comparison rejects a dropped row");
  Rows chain_dup = chain;
  chain_dup.back() = chain_dup.front();
  Expect(!CompareRows(chain, chain_dup).empty(),
         "row comparison rejects a duplicated row in place of another");
}

void SeedsRegenerateInputs() {
  const StarSchema a = MakeStarSchema(Small(), 11);
  const StarSchema b = MakeStarSchema(Small(), 11);
  const StarSchema c = MakeStarSchema(Small(), 12);
  Expect(SameTable(a.fact, b.fact) && SameTable(a.customer, b.customer) &&
             SameTable(a.product, b.product) && SameTable(a.store, b.store),
         "one seed regenerates identical star tables");
  Expect(!SameTable(a.fact, c.fact) && !SameTable(a.customer, c.customer),
         "another seed gives different star tables");

  bool same = true, differ = false;
  for (uint64_t i = 0; i < 24; ++i) {
    const StarQuery x = StarThreadsQuery(11, i), y = StarThreadsQuery(11, i);
    const StarQuery z = StarThreadsQuery(12, i);
    same = same && x.qty_max == y.qty_max && x.balance_max == y.balance_max;
    differ = differ || x.qty_max != z.qty_max || x.balance_max != z.balance_max;
    const StarQuery u = AdhocClusterQuery(11, i), v = AdhocClusterQuery(11, i);
    same = same && u.qty_max == v.qty_max && u.balance_max == v.balance_max;
  }
  Expect(same, "one seed regenerates the same query sequence");
  Expect(differ, "another seed gives a different query sequence");

  const ChainInputs p = MakeChainInputs(300, 20, 5);
  const ChainInputs r = MakeChainInputs(300, 20, 5);
  const ChainInputs s = MakeChainInputs(300, 20, 6);
  Expect(SameTable(p.fact, r.fact) && SameTable(p.dim0, r.dim0),
         "one seed regenerates identical probe inputs");
  Expect(!SameTable(p.fact, s.fact), "another seed gives other probe inputs");

  auto cards = [](const std::vector<hierdb::opt::WorkloadPlan>& plans) {
    std::vector<uint64_t> out;
    for (const auto& wp : plans) {
      for (const auto& rel : wp.catalog.relations()) {
        out.push_back(rel.cardinality);
      }
    }
    return out;
  };
  Expect(cards(MakePaperQueries(2, 0.005)) == cards(MakePaperQueries(2, 0.005)),
         "the paper's query set is regenerated identically");
  Expect(PaperSimSeed(11, 3) == PaperSimSeed(11, 3) &&
             PaperSimSeed(11, 3) != PaperSimSeed(12, 3) &&
             PaperSimSeed(11, 3) != PaperSimSeed(11, 4),
         "the simulator seed follows the run seed and the query");
}

void CheckerAgreesWithProgram() {
  const StarSchema schema = MakeStarSchema(Small(), 21);
  const StarReference ref(schema);
  api::Session db;
  const auto f = db.AddTable(schema.fact);
  const auto c = db.AddTable(schema.customer);
  const auto p = db.AddTable(schema.product);
  const auto s = db.AddTable(schema.store);
  StarQuery q;
  q.qty_max = 80;
  q.customer_filter = true;
  q.balance_max = 400000;
  q.group = GroupKey::kStoreRegion;
  api::Query query = db.NewQuery()
                         .Scan(f)
                         .Where(f, fact::kQty, api::CmpOp::kLe, q.qty_max)
                         .Where(c, customer::kBalance, api::CmpOp::kLt,
                                q.balance_max)
                         .Probe(c, fact::kCust)
                         .Probe(p, fact::kProd)
                         .Probe(s, fact::kStore)
                         .GroupBy(s, store::kRegion)
                         .Count()
                         .Agg(api::AggFn::kSum, f, fact::kPrice)
                         .Agg(api::AggFn::kMax, f, fact::kQty)
                         .Build();
  api::ExecOptions o;
  o.backend = api::Backend::kThreads;
  o.threads_per_node = 2;
  o.materialize = true;
  auto r = db.Submit(query, o).Take();
  Expect(r.ok() && r.value().materialized, "threads backend answers");
  if (r.ok()) {
    const std::string diff = CheckStar(ref.Answer(q), r.value().rows);
    if (!diff.empty()) std::printf("  %s\n", diff.c_str());
    Expect(diff.empty(), "checker agrees with the threads backend");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CheckerRejectsWrongAnswers();
  perfbench::SeedsRegenerateInputs();
  perfbench::CheckerAgreesWithProgram();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
