#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace perfbench {

using hierdb::mt::Table;

namespace {

enum Tag : uint64_t {
  kTagFact = 1,
  kTagCustomer,
  kTagProduct,
  kTagStore,
  kTagZipfPerm,
  kTagStarQuery,
  kTagAdhocQuery,
  kTagChainFact,
  kTagChainDim,
  kTagPaper,
};

Table NewTable(std::string name, uint32_t width, uint64_t rows) {
  Table t;
  t.name = std::move(name);
  t.batch = hierdb::mt::Batch(width);
  t.batch.Reserve(rows);
  return t;
}

/// Zipf(theta) ranks over [0, n) by inverse CDF on the exact weights
/// 1/(r+1)^theta.
class ZipfTable {
 public:
  ZipfTable(uint64_t n, double theta) : cdf_(n) {
    double acc = 0.0;
    for (uint64_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = acc;
    }
  }
  uint64_t Sample(SplitMix& rng) const {
    const double u = rng.Unit() * cdf_.back();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()),
                              cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  SplitMix m(seed ^ (tag * 0xD1B54A32D192ED03ULL));
  m.Next();
  SplitMix n(m.Next() + index * 0x9E3779B97F4A7C15ULL);
  return n.Next();
}

StarSchema MakeStarSchema(const StarSizes& sizes, uint64_t seed) {
  StarSchema s;

  // Zipf ranks land on a seeded permutation of customer ids, so the hot
  // customers are spread over the key space (and over hash buckets).
  // rank_of[id] is the customer's popularity rank (0 = most frequent).
  std::vector<int64_t> perm(sizes.customers);
  std::iota(perm.begin(), perm.end(), 0);
  SplitMix zrng(SubSeed(seed, kTagZipfPerm));
  for (uint64_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[zrng.Below(i)]);
  }
  std::vector<uint64_t> rank_of(sizes.customers);
  for (uint64_t r = 0; r < perm.size(); ++r) {
    rank_of[static_cast<size_t>(perm[r])] = r;
  }

  // A customer's balance is a fixed function of its popularity rank (the
  // golden-ratio sequence, which spreads the hot customers evenly over
  // [0, kBalanceMax)). A balance filter then keeps the same share of fact
  // rows under every seed; the seed decides which ids are popular.
  s.customer = NewTable("customer", customer::kWidth, sizes.customers);
  SplitMix crng(SubSeed(seed, kTagCustomer));
  for (uint64_t i = 0; i < sizes.customers; ++i) {
    double frac = 0.5 + 0.6180339887498949 * static_cast<double>(rank_of[i]);
    frac -= std::floor(frac);
    const int64_t row[customer::kWidth] = {
        static_cast<int64_t>(i), crng.Range(0, customer::kNations - 1),
        crng.Range(0, customer::kSegments - 1),
        static_cast<int64_t>(frac * customer::kBalanceMax)};
    s.customer.batch.AppendRow(row);
  }

  s.product = NewTable("product", product::kWidth, sizes.products);
  SplitMix prng(SubSeed(seed, kTagProduct));
  for (uint64_t i = 0; i < sizes.products; ++i) {
    const int64_t row[product::kWidth] = {
        static_cast<int64_t>(i), prng.Range(0, product::kCategories - 1),
        prng.Range(0, product::kBrands - 1)};
    s.product.batch.AppendRow(row);
  }

  s.store = NewTable("store", store::kWidth, sizes.stores);
  SplitMix srng(SubSeed(seed, kTagStore));
  for (uint64_t i = 0; i < sizes.stores; ++i) {
    const int64_t row[store::kWidth] = {static_cast<int64_t>(i),
                                        srng.Range(0, store::kRegions - 1),
                                        srng.Range(100, 5000)};
    s.store.batch.AppendRow(row);
  }

  const ZipfTable zipf(sizes.customers, sizes.customer_theta);
  s.fact = NewTable("fact", fact::kWidth, sizes.fact_rows);
  SplitMix frng(SubSeed(seed, kTagFact));
  for (uint64_t i = 0; i < sizes.fact_rows; ++i) {
    const int64_t row[fact::kWidth] = {
        static_cast<int64_t>(i),
        perm[zipf.Sample(frng)],
        static_cast<int64_t>(frng.Below(sizes.products)),
        static_cast<int64_t>(frng.Below(sizes.stores)),
        frng.Range(1, kQtyMax),
        frng.Range(1, kPriceMax)};
    s.fact.batch.AppendRow(row);
  }
  return s;
}

namespace {

constexpr GroupKey kGroupKeys[] = {GroupKey::kStoreRegion,
                                   GroupKey::kCustomerNation,
                                   GroupKey::kCustomerSegment};

/// Point `index` of a Kronecker sequence with a seeded offset, scaled to
/// [lo, hi]: consecutive queries spread evenly over the range, so any run
/// of queries draws nearly the same mean threshold under every seed.
int64_t Spread(uint64_t seed, uint64_t tag, double alpha, uint64_t index,
               int64_t lo, int64_t hi) {
  double f = SplitMix(SubSeed(seed, tag)).Unit() +
             alpha * static_cast<double>(index);
  f -= std::floor(f);
  return std::min(hi, lo + static_cast<int64_t>(f * static_cast<double>(
                                                        hi - lo + 1)));
}

/// A query's thresholds: fact.qty <= [50, 100] and, when the query
/// filters customers ad hoc, balance < [balance_lo, balance_hi].
StarQuery DrawStarQuery(uint64_t seed, uint64_t tag, uint64_t index,
                        int64_t balance_lo, int64_t balance_hi) {
  StarQuery q;
  q.qty_max = Spread(seed, tag, 0.6180339887498949, index, 50, kQtyMax);
  q.balance_max =
      Spread(seed, tag + 100, 0.4142135623730950, index, balance_lo,
             balance_hi);
  return q;
}

}  // namespace

StarQuery StarThreadsQuery(uint64_t seed, uint64_t index) {
  // Broad filters: the ad hoc build holds 30-100% of the customers.
  StarQuery q = DrawStarQuery(seed, kTagStarQuery, index, 300000,
                              customer::kBalanceMax - 1);
  static constexpr hierdb::Strategy kRotation[] = {
      hierdb::Strategy::kDP, hierdb::Strategy::kFP, hierdb::Strategy::kSP};
  q.strategy = kRotation[index % 3];
  // Every nine consecutive queries cover every (strategy, group) pair, so
  // a warm-up of one round publishes every cacheable build.
  q.group = kGroupKeys[(index / 3) % 3];
  q.customer_filter = index % 4 == 3;
  return q;
}

StarQuery AdhocClusterQuery(uint64_t seed, uint64_t index) {
  // Selective filters (10-25% of the customers), as an analyst's ad hoc
  // slice would be; every build still scans the whole dimension.
  StarQuery q = DrawStarQuery(seed, kTagAdhocQuery, index, 100000, 250000);
  q.strategy = hierdb::Strategy::kDP;
  q.group = kGroupKeys[index % 3];
  q.customer_filter = true;
  return q;
}

ChainInputs MakeChainInputs(uint64_t fact_rows, uint64_t dim_rows,
                            uint64_t seed) {
  ChainInputs in;
  in.fact = NewTable("fact", 3, fact_rows);
  SplitMix frng(SubSeed(seed, kTagChainFact));
  for (uint64_t i = 0; i < fact_rows; ++i) {
    const int64_t row[3] = {static_cast<int64_t>(i),
                            static_cast<int64_t>(frng.Below(dim_rows)),
                            static_cast<int64_t>(frng.Below(dim_rows))};
    in.fact.batch.AppendRow(row);
  }
  Table* dims[2] = {&in.dim0, &in.dim1};
  for (uint64_t d = 0; d < 2; ++d) {
    *dims[d] = NewTable("dim" + std::to_string(d), 2, dim_rows);
    SplitMix drng(SubSeed(seed, kTagChainDim, d));
    for (uint64_t i = 0; i < dim_rows; ++i) {
      const int64_t row[2] = {static_cast<int64_t>(i), drng.Range(0, 99)};
      dims[d]->batch.AppendRow(row);
    }
  }
  return in;
}

std::vector<hierdb::opt::WorkloadPlan> MakePaperQueries(uint32_t count,
                                                        double scale) {
  hierdb::opt::WorkloadOptions o;
  o.num_queries = count;
  o.trees_per_query = 1;
  o.seed = 42;
  o.query.num_relations = 12;
  o.query.scale = scale;
  return hierdb::opt::MakeWorkload(o);
}

uint64_t PaperSimSeed(uint64_t seed, uint32_t query) {
  return SubSeed(seed, kTagPaper, query);
}

}  // namespace perfbench
