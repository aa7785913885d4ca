// Unit tests for the node data plane shared by the threads and cluster
// executors: FP thread apportionment, the outbox retry pass, the scratch
// pool's nesting, and the scatter and probe kernels.

#include "mt/node_plane.h"

#include <map>

#include "gtest/gtest.h"

namespace hierdb::mt {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> Ranges(
    const std::vector<ThreadRange>& r) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (const ThreadRange& t : r) out.push_back({t.lo, t.hi});
  return out;
}

TEST(ApportionThreads, EveryOperatorGetsAtLeastOneThread) {
  // 100:1 cost, 4 threads: the cheap operator still keeps one.
  auto r = ApportionThreads({100.0, 1.0}, 4);
  EXPECT_EQ(Ranges(r), (std::vector<std::pair<uint32_t, uint32_t>>{
                           {0, 3}, {3, 4}}));
}

TEST(ApportionThreads, LargestRemainderTakesTheLeftoverThreads) {
  // 9 threads, 3 operators: 6 beyond the floor, shares 6 * (0.5, 0.3,
  // 0.2) = 3.0, 1.8, 1.2; wholes 3, 1, 1 leave one thread, which goes to
  // the largest remainder (0.8, the second operator).
  auto r = ApportionThreads({5.0, 3.0, 2.0}, 9);
  EXPECT_EQ(Ranges(r), (std::vector<std::pair<uint32_t, uint32_t>>{
                           {0, 4}, {4, 7}, {7, 9}}));
  // Remainders 0.9 vs 0.1: the larger remainder wins the spare thread.
  r = ApportionThreads({0.9, 0.1}, 3);
  EXPECT_EQ(Ranges(r), (std::vector<std::pair<uint32_t, uint32_t>>{
                           {0, 2}, {2, 3}}));
}

TEST(ApportionThreads, MoreOperatorsThanThreadsShareRoundRobin) {
  auto r = ApportionThreads({1.0, 2.0, 3.0, 4.0, 5.0}, 2);
  EXPECT_EQ(Ranges(r), (std::vector<std::pair<uint32_t, uint32_t>>{
                           {0, 1}, {1, 2}, {0, 1}, {1, 2}, {0, 1}}));
  EXPECT_TRUE(r[2].Holds(0));
  EXPECT_FALSE(r[2].Holds(1));
}

TEST(ApportionThreads, ZeroTotalCostSplitsEvenly) {
  auto r = ApportionThreads({0.0, 0.0}, 6);
  EXPECT_EQ(Ranges(r), (std::vector<std::pair<uint32_t, uint32_t>>{
                           {0, 3}, {3, 6}}));
  EXPECT_TRUE(ApportionThreads({}, 4).empty());
}

TEST(ApportionThreads, RangesRoundTripThroughPacking) {
  for (const ThreadRange& t : ApportionThreads({3.0, 1.0, 7.0}, 9)) {
    const ThreadRange u = ThreadRange::Unpack(t.Pack());
    EXPECT_EQ(u.lo, t.lo);
    EXPECT_EQ(u.hi, t.hi);
  }
}

Activation Act(uint32_t op, uint32_t bucket) {
  Activation a;
  a.op = op;
  a.bucket = bucket;
  a.rows = Batch(1);
  int64_t v = bucket;
  a.rows.AppendRow(&v);
  return a;
}

TEST(Outbox, RetryKeepsOrderOfWhatStays) {
  Outbox box;
  for (uint32_t b = 0; b < 6; ++b) box.Push(Act(0, b));
  // Accept the odd buckets: the even ones stay, oldest first.
  std::vector<uint32_t> taken;
  EXPECT_TRUE(box.Retry([&](Activation& a) {
    if (a.bucket % 2 == 0) return false;
    taken.push_back(a.bucket);
    return true;
  }));
  EXPECT_EQ(taken, (std::vector<uint32_t>{1, 3, 5}));
  std::vector<uint32_t> left;
  for (const Activation& a : box.items()) {
    left.push_back(a.bucket);
    EXPECT_EQ(a.rows.at(0, 0), static_cast<int64_t>(a.bucket));
  }
  EXPECT_EQ(left, (std::vector<uint32_t>{0, 2, 4}));
  // A pass that places nothing reports no progress and keeps everything.
  EXPECT_FALSE(box.Retry([](Activation&) { return false; }));
  EXPECT_EQ(box.items().size(), 3u);
}

TEST(Outbox, DrainsIntoBoundedQueuesInOrder) {
  ActivationQueues queues;
  queues.Init(/*ops=*/1, /*threads=*/1);
  Outbox box;
  for (uint32_t b = 0; b < 5; ++b) box.Push(Act(0, b));
  // Capacity 2: each pass places the two oldest, and a drained queue
  // hands them back in the order they were staged.
  std::vector<uint32_t> drained;
  while (!box.empty()) {
    box.Retry([&](Activation& a) { return queues.TryPush(a, 2); });
    Activation out;
    while (queues.TryPopFront(0, 0, &out)) drained.push_back(out.bucket);
  }
  EXPECT_EQ(drained, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(ScratchPool, NestedLeasesGetDistinctScratch) {
  ScratchPool pool;
  pool.Init(/*slots=*/2, /*buckets=*/8);
  Scratch* outer = nullptr;
  {
    ScratchPool::Lease a(pool, 0);
    outer = &*a;
    EXPECT_EQ(a->bucket.size(), 8u);
    ScratchPool::Lease b(pool, 0);
    EXPECT_NE(&*b, outer);
  }
  ScratchPool::Lease again(pool, 0);
  EXPECT_EQ(&*again, outer);  // depth 0 is reused after release
}

TEST(ScatterMorsel, FiltersProjectsAndBucketsRows) {
  // Rows (key, a, b) with key 0..99; keep a >= 50, emit (b, key) and
  // bucket on emitted column 1 (the key).
  Batch src(3);
  for (int64_t k = 0; k < 100; ++k) {
    const int64_t row[3] = {k, k % 100, 1000 + k};
    src.AppendRow(row);
  }
  const std::vector<Predicate> preds = {{1, CmpOp::kGe, 50}};
  const std::vector<uint32_t> proj = {2, 0};
  ScanSpec spec;
  spec.src = &src;
  spec.preds = &preds;
  spec.proj = &proj;
  ASSERT_EQ(spec.out_width(), 2u);

  const uint32_t B = 4;
  Scratch sc;
  sc.bucket.resize(B);
  std::map<uint32_t, std::vector<int64_t>> emitted;  // bucket -> keys
  size_t batches = 0, seen = 0;
  // Rows [10, 90): 40 pass (keys 50..89); flush at 4 rows per batch.
  const size_t kept = ScatterMorsel(
      spec, 10, 90, /*key_col=*/1, B, /*flush_rows=*/4, sc,
      [&](uint32_t bucket, Batch& rows) {
        ++batches;
        EXPECT_EQ(rows.width(), 2u);
        EXPECT_LE(rows.rows(), 4u);
        for (size_t i = 0; i < rows.rows(); ++i) {
          const int64_t key = rows.at(i, 1);
          EXPECT_EQ(rows.at(i, 0), 1000 + key);  // projected (b, key)
          EXPECT_EQ(HashKey(key) % B, bucket);
          emitted[bucket].push_back(key);
        }
      },
      [&](const int64_t* row, uint32_t width) {
        EXPECT_EQ(width, 2u);
        EXPECT_EQ(row[0], 1000 + row[1]);
        ++seen;
      });
  EXPECT_EQ(kept, 40u);
  EXPECT_EQ(seen, 40u);
  std::vector<int64_t> keys;
  for (const auto& [bucket, ks] : emitted) {
    keys.insert(keys.end(), ks.begin(), ks.end());
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 40u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], static_cast<int64_t>(50 + i));
  }
  EXPECT_GE(batches, 10u);    // 40 rows, at most 4 per batch
  EXPECT_TRUE(sc.hit.empty());  // every bucket flushed
}

TEST(ProbeKernels, JoinTerminalAndForward) {
  // Build: key k -> (k, 10k), keys 0..9, in one table.
  RowTable table(2, 0);
  for (int64_t k = 0; k < 10; ++k) {
    const int64_t row[2] = {k, 10 * k};
    table.Insert(row);
  }
  // Probe rows (id, fk): fk in 0..19, so half miss.
  Batch probe(2);
  for (int64_t i = 0; i < 20; ++i) {
    const int64_t row[2] = {100 + i, i};
    probe.AppendRow(row);
  }
  Scratch sc;
  sc.bucket.resize(4);
  ResultDigest digest;
  Batch keep(4);
  const TerminalSink sink{nullptr, &digest, &keep};
  EXPECT_EQ(ProbeRows(probe, 1, table, sc, sink), 10u);
  EXPECT_EQ(digest.count, 10u);
  ASSERT_EQ(keep.rows(), 10u);
  for (size_t i = 0; i < keep.rows(); ++i) {
    EXPECT_EQ(keep.at(i, 0), 100 + keep.at(i, 1));  // probe columns first
    EXPECT_EQ(keep.at(i, 3), 10 * keep.at(i, 1));   // then build columns
  }
  // Forward on the build's payload column (joined column 3).
  size_t forwarded = 0;
  EXPECT_EQ(ProbeForward(
                probe, 1, table, /*next_col=*/3, /*buckets=*/4,
                /*flush_rows=*/2, sc,
                [&](uint32_t bucket, Batch& rows) {
                  for (size_t i = 0; i < rows.rows(); ++i) {
                    EXPECT_EQ(HashKey(rows.at(i, 3)) % 4, bucket);
                  }
                  forwarded += rows.rows();
                },
                [](const int64_t*, uint32_t) {}),
            10u);
  EXPECT_EQ(forwarded, 10u);
}

}  // namespace
}  // namespace hierdb::mt
