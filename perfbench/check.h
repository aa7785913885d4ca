// Independent answer checks of the hierdb benchmark.
//
// Expected answers come from a single-threaded hash join plus hash
// aggregation written here, over the benchmark's own generated tables. No
// code of the program under test computes them (no mt::ReferenceExecute,
// no ExecOptions::validate); only the comparison reads the program's
// materialized rows.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "mt/row.h"

namespace perfbench {

using Row = std::vector<int64_t>;
using Rows = std::vector<Row>;

/// Rows of a materialized batch.
Rows RowsOf(const hierdb::mt::Batch& batch);

/// Compares two row multisets. Returns "" when they are equal, otherwise a
/// short description of the first difference.
std::string CompareRows(Rows expected, Rows got);

/// Expected result of one star query: group rows
/// [group value, COUNT(*), SUM(fact.price), MAX(fact.qty)] and the number
/// of fact rows that pass the query's filters.
struct StarAnswer {
  Rows rows;
  uint64_t passing_fact_rows = 0;
};

/// The star schema's fact rows hash-joined once, single-threaded, with
/// their three dimensions; each query then filters and hash-aggregates the
/// joined rows.
class StarReference {
 public:
  explicit StarReference(const StarSchema& schema);

  StarAnswer Answer(const StarQuery& q) const;

 private:
  /// The columns of one joined fact row that any star query reads.
  struct Joined {
    int64_t qty = 0;
    int64_t price = 0;
    int64_t balance = 0;
    int64_t nation = 0;
    int64_t segment = 0;
    int64_t region = 0;
  };
  std::vector<Joined> joined_;
};

/// Checks a materialized star result: the group rows must equal the
/// expected ones, and the COUNT column must sum to the passing fact rows.
/// Returns "" when correct.
std::string CheckStar(const StarAnswer& expected,
                      const hierdb::mt::Batch& got);

/// Expected rows of fact JOIN dim0 ON fk0 JOIN dim1 ON fk1: the fact's
/// columns, then dim0's, then dim1's.
Rows ExpectedChain(const ChainInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
