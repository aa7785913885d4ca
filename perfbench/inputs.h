// Seeded inputs of the hierdb benchmark: the star schema the two real
// backends query, the per-operation query parameters, and the
// load-balancing fault probe's chain inputs.
//
// Everything here derives from the benchmark's own seeded generator
// (SplitMix64), never from the program's table synthesis, so the expected
// answers in check.h are computed apart from the code under test. The same
// seed always yields the same tables and the same query sequence.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "common/strategy.h"
#include "mt/row.h"
#include "opt/workload.h"

namespace perfbench {

/// SplitMix64: small, fast and fully specified, so inputs are the same on
/// every compiler and standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Mixes a seed with a stream tag and an index into an independent seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag, uint64_t index = 0);

// Column layouts of the star schema. Every column is int64.
namespace fact {
inline constexpr uint32_t kId = 0, kCust = 1, kProd = 2, kStore = 3,
                          kQty = 4, kPrice = 5, kWidth = 6;
}
namespace customer {
inline constexpr uint32_t kId = 0, kNation = 1, kSegment = 2, kBalance = 3,
                          kWidth = 4;
inline constexpr int64_t kNations = 25, kSegments = 5, kBalanceMax = 1000000;
}
namespace product {
inline constexpr uint32_t kId = 0, kCategory = 1, kBrand = 2, kWidth = 3;
inline constexpr int64_t kCategories = 40, kBrands = 200;
}
namespace store {
inline constexpr uint32_t kId = 0, kRegion = 1, kSize = 2, kWidth = 3;
inline constexpr int64_t kRegions = 8;
}
inline constexpr int64_t kQtyMax = 100, kPriceMax = 1000;

struct StarSizes {
  uint64_t fact_rows = 200000;
  uint64_t customers = 100000;
  uint64_t products = 2000;
  uint64_t stores = 64;
  /// Zipf skew of the fact's customer foreign key (rank 0 is the most
  /// frequent customer; ranks are scattered over customer ids).
  double customer_theta = 0.8;
};

/// Fact(id, cust, prod, store, qty, price) with every foreign key valid;
/// dimensions keyed by a dense id in column 0.
struct StarSchema {
  hierdb::mt::Table fact;
  hierdb::mt::Table customer;
  hierdb::mt::Table product;
  hierdb::mt::Table store;
};

StarSchema MakeStarSchema(const StarSizes& sizes, uint64_t seed);

/// Which column a star query groups by.
enum class GroupKey { kStoreRegion, kCustomerNation, kCustomerSegment };

/// One star query: fact.qty <= qty_max, optionally customer.balance <
/// balance_max (the ad hoc build), probes of all three dimensions, then
/// GROUP BY `group` with COUNT(*), SUM(fact.price), MAX(fact.qty).
struct StarQuery {
  hierdb::Strategy strategy = hierdb::Strategy::kDP;
  int64_t qty_max = kQtyMax;
  bool customer_filter = false;
  int64_t balance_max = customer::kBalanceMax;
  GroupKey group = GroupKey::kStoreRegion;
};

/// star_threads operation `index`: strategy rotates DP, FP, SP; one query
/// in four carries an ad hoc customer filter.
StarQuery StarThreadsQuery(uint64_t seed, uint64_t index);
/// adhoc_cluster operation `index`: DP, and always a customer filter.
StarQuery AdhocClusterQuery(uint64_t seed, uint64_t index);

/// The fault probe's chain inputs, the shape of the cluster executor's
/// parameterized sweep test: fact(id, fk0, fk1) over two dimensions
/// dim(id, x) of `dim_rows` rows each.
struct ChainInputs {
  hierdb::mt::Table fact;
  hierdb::mt::Table dim0;
  hierdb::mt::Table dim1;
};

ChainInputs MakeChainInputs(uint64_t fact_rows, uint64_t dim_rows,
                            uint64_t seed);

/// paper_sim's plans: the paper's workload of random 12-relation join
/// queries over catalog-only relations (Section 5.1.2: random acyclic
/// predicate graphs, cardinalities from the small/medium/large ranges
/// scaled by `scale`, kept when their sequential time lies in the paper's
/// 30-60 minute band), drawn by the program's query generator from the
/// benches' master seed 42. The set is the same for every run; a run's
/// seed varies the simulation instead (PaperSimSeed).
std::vector<hierdb::opt::WorkloadPlan> MakePaperQueries(uint32_t count,
                                                        double scale);

/// The simulator seed (bucket shuffles, redistribution-skew placement) of
/// pool query `query` in a run with seed `seed`.
uint64_t PaperSimSeed(uint64_t seed, uint32_t query);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
