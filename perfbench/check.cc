#include "check.h"

#include <algorithm>
#include <unordered_map>
#include <sstream>

namespace perfbench {

namespace {

std::unordered_map<int64_t, const int64_t*> KeyIndex(
    const hierdb::mt::Table& t) {
  std::unordered_map<int64_t, const int64_t*> m;
  m.reserve(t.rows());
  for (size_t i = 0; i < t.rows(); ++i) m.emplace(t.batch.at(i, 0), t.batch.row(i));
  return m;
}

std::string RowText(const Row& r) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < r.size(); ++i) os << (i ? "," : "") << r[i];
  os << "]";
  return os.str();
}

}  // namespace

Rows RowsOf(const hierdb::mt::Batch& batch) {
  Rows rows;
  rows.reserve(batch.rows());
  for (size_t i = 0; i < batch.rows(); ++i) {
    rows.emplace_back(batch.row(i), batch.row(i) + batch.width());
  }
  return rows;
}

std::string CompareRows(Rows expected, Rows got) {
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  if (expected == got) return "";
  std::ostringstream os;
  os << "expected " << expected.size() << " rows, got " << got.size();
  auto [e, g] = std::mismatch(expected.begin(), expected.end(), got.begin(),
                              got.end());
  if (e != expected.end()) os << "; first expected-only " << RowText(*e);
  if (g != got.end()) os << "; first unexpected " << RowText(*g);
  return os.str();
}

StarReference::StarReference(const StarSchema& schema) {
  const auto customers = KeyIndex(schema.customer);
  const auto products = KeyIndex(schema.product);
  const auto stores = KeyIndex(schema.store);
  const hierdb::mt::Batch& f = schema.fact.batch;
  joined_.reserve(f.rows());
  for (size_t i = 0; i < f.rows(); ++i) {
    const int64_t* row = f.row(i);
    auto c = customers.find(row[fact::kCust]);
    auto p = products.find(row[fact::kProd]);
    auto s = stores.find(row[fact::kStore]);
    if (c == customers.end() || p == products.end() || s == stores.end()) {
      continue;  // inner joins drop a fact row with a dangling key
    }
    joined_.push_back({row[fact::kQty], row[fact::kPrice],
                       c->second[customer::kBalance],
                       c->second[customer::kNation],
                       c->second[customer::kSegment],
                       s->second[store::kRegion]});
  }
}

StarAnswer StarReference::Answer(const StarQuery& q) const {
  struct Acc {
    int64_t count = 0;
    int64_t sum_price = 0;
    int64_t max_qty = 0;
  };
  std::unordered_map<int64_t, Acc> groups;
  StarAnswer ans;
  for (const Joined& j : joined_) {
    if (j.qty > q.qty_max) continue;
    if (q.customer_filter && j.balance >= q.balance_max) continue;
    int64_t key = 0;
    switch (q.group) {
      case GroupKey::kStoreRegion: key = j.region; break;
      case GroupKey::kCustomerNation: key = j.nation; break;
      case GroupKey::kCustomerSegment: key = j.segment; break;
    }
    Acc& a = groups[key];
    a.max_qty = a.count == 0 ? j.qty : std::max(a.max_qty, j.qty);
    ++a.count;
    a.sum_price += j.price;
    ++ans.passing_fact_rows;
  }
  for (const auto& [key, a] : groups) {
    ans.rows.push_back({key, a.count, a.sum_price, a.max_qty});
  }
  return ans;
}

std::string CheckStar(const StarAnswer& expected,
                      const hierdb::mt::Batch& got) {
  Rows rows = RowsOf(got);
  uint64_t counted = 0;
  for (const Row& r : rows) {
    if (r.size() != 4) return "result rows are not 4 columns wide";
    counted += static_cast<uint64_t>(r[1]);
  }
  if (counted != expected.passing_fact_rows) {
    std::ostringstream os;
    os << "group COUNTs sum to " << counted << ", but "
       << expected.passing_fact_rows << " fact rows pass the filters";
    return os.str();
  }
  return CompareRows(expected.rows, std::move(rows));
}

Rows ExpectedChain(const ChainInputs& in) {
  const auto d0 = KeyIndex(in.dim0);
  const auto d1 = KeyIndex(in.dim1);
  Rows rows;
  rows.reserve(in.fact.rows());
  for (size_t i = 0; i < in.fact.rows(); ++i) {
    const int64_t* f = in.fact.batch.row(i);
    auto a = d0.find(f[1]);
    auto b = d1.find(f[2]);
    if (a == d0.end() || b == d1.end()) continue;
    rows.push_back({f[0], f[1], f[2], a->second[0], a->second[1],
                    b->second[0], b->second[1]});
  }
  return rows;
}

}  // namespace perfbench
