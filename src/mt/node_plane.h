// The node data plane: the execution model the paper runs inside every
// SM-node (Sections 3.1-3.2), shared by both real backends. It holds the
// activation queues (one per operator x thread), the outbox that stages
// pushes into full queues, per-slot scratch, FP's thread apportionment,
// trace span cells and the operator kernels: scan/build scatter, build
// insert and probe. The threads backend (mt/pipeline_executor) runs it as
// one node, the cluster (cluster/cluster_executor) as one per node. The
// kernels take the executor's emission as a callable (a queue push, or a
// local-or-fabric route), so the per-row loops compile to direct calls.

#ifndef HIERDB_MT_NODE_PLANE_H_
#define HIERDB_MT_NODE_PLANE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "mt/column_batch.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "mt/row_table.h"
#include "obs/trace.h"

namespace hierdb::mt {

/// A data activation: a batch of rows bound for one bucket of one operator.
struct Activation {
  uint32_t op = 0;
  uint32_t bucket = 0;
  Batch rows;
};

/// The bounded activation queues of one node, one per (operator x thread);
/// flow control counts activations.
class ActivationQueues {
 public:
  void Init(uint32_t ops, uint32_t threads);
  /// Pushes onto the primary queue (bucket mod threads) unless it holds
  /// `capacity` activations; `a` is moved from only on success.
  bool TryPush(Activation& a, uint32_t capacity);
  bool TryPopFront(uint32_t op, uint32_t t, Activation* out) {
    return Pop(op, t, /*front=*/true, out);
  }
  bool TryPopBack(uint32_t op, uint32_t t, Activation* out) {
    return Pop(op, t, /*front=*/false, out);
  }
  /// Activations queued for `op` over all threads (approximate).
  uint64_t Depth(uint32_t op) const;

 private:
  struct alignas(64) Queue {  // one cache line start per queue
    mutable std::mutex mu;
    std::deque<Activation> items;
  };
  bool Pop(uint32_t op, uint32_t t, bool front, Activation* out);

  uint32_t threads_ = 0;
  std::unique_ptr<Queue[]> queues_;  // [op * threads + t]
};

/// Activations whose destination queue was full. Operator bodies never
/// block: a failed push is staged here and retried at the top level (the
/// iterative form of the paper's procedure-call suspension).
class Outbox {
 public:
  bool empty() const { return items_.empty(); }
  void Push(Activation&& a) { items_.push_back(std::move(a)); }
  const std::vector<Activation>& items() const { return items_; }

  /// One retry pass, oldest first: try_push(Activation&) moves from an
  /// activation only when it returns true; the rest keep their order.
  /// Returns whether anything left the outbox.
  template <typename TryPush>
  bool Retry(TryPush&& try_push) {
    size_t kept = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (try_push(items_[i])) continue;
      if (kept != i) items_[kept] = std::move(items_[i]);
      ++kept;
    }
    const bool progressed = kept != items_.size();
    items_.resize(kept);
    return progressed;
  }

 private:
  std::vector<Activation> items_;
};

/// One activation's scratch: the bucket batches of a scatter in progress,
/// selection vector, hash and key columns, joined-row and agg buffers.
struct Scratch {
  std::vector<Batch> bucket;
  std::vector<uint32_t> hit;  ///< buckets holding rows, in first-use order
  SelVec sel;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> keys;
  std::vector<int64_t> row;
  AggTable::BatchScratch agg;

  /// The batch collecting bucket `b` at `width`, registered as touched.
  Batch& Bucket(uint32_t b, uint32_t width) {
    Batch& batch = bucket[b];
    if (batch.empty()) {
      if (batch.width() != width) batch = Batch(width);
      hit.push_back(b);
    }
    return batch;
  }
  /// Hands bucket `b` to emit(bucket, Batch&), which may move from it,
  /// once it holds `flush_rows` rows.
  template <typename Emit>
  void FlushIfFull(uint32_t b, size_t flush_rows, Emit&& emit) {
    if (bucket[b].rows() < flush_rows) return;
    emit(b, bucket[b]);
    bucket[b].Clear();
    hit.erase(std::find(hit.begin(), hit.end(), b));
  }
  /// Hands every touched bucket to emit.
  template <typename Emit>
  void FlushAll(Emit&& emit) {
    for (uint32_t b : hit) {
      emit(b, bucket[b]);
      bucket[b].Clear();
    }
    hit.clear();
  }
};

/// Scratch per slot, pooled by re-entrancy depth: helping while stuck
/// nests one activation inside another on the same slot.
class ScratchPool {
 public:
  void Init(uint32_t slots, uint32_t buckets);

  /// Holds one depth level of a slot's scratch while alive.
  class Lease {
   public:
    Lease(ScratchPool& pool, uint32_t slot);
    ~Lease() { --pool_.depth_[slot_]; }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Scratch& operator*() const { return *sc_; }
    Scratch* operator->() const { return sc_; }

   private:
    ScratchPool& pool_;
    uint32_t slot_;
    Scratch* sc_;
  };

 private:
  uint32_t buckets_ = 0;
  std::vector<std::vector<std::unique_ptr<Scratch>>> pool_;  // [slot][depth]
  std::vector<size_t> depth_;
};

/// A thread range [lo, hi) allotted to one operator under FP.
struct ThreadRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool Holds(uint32_t t) const { return lo <= t && t < hi; }
  uint64_t Pack() const { return (static_cast<uint64_t>(lo) << 32) | hi; }
  static ThreadRange Unpack(uint64_t p) {
    return {static_cast<uint32_t>(p >> 32), static_cast<uint32_t>(p)};
  }
};

/// FP allocation of `threads` among operators weighted by `costs`: one
/// thread each, the rest in proportion to cost by largest remainder
/// (evenly when the costs sum to zero), as consecutive ranges in input
/// order. With at least as many operators as threads, operator k shares
/// thread k mod threads.
std::vector<ThreadRange> ApportionThreads(const std::vector<double>& costs,
                                          uint32_t threads);

/// Per-(slot, operator) span aggregates, each written only by its slot's
/// holder and emitted as one kSpan per cell at run end.
class SpanCells {
 public:
  /// A null sink leaves tracing off.
  void Init(obs::TraceSink* sink, uint32_t slots, uint32_t ops);
  bool on() const { return sink_ != nullptr; }
  /// Start stamp of an activation (0 when off).
  uint64_t Now() const { return sink_ != nullptr ? sink_->NowNs() : 0; }
  /// Folds one activation into its cell. Pre: on().
  void Add(uint32_t slot, uint32_t op, uint64_t t0, uint64_t rows_in,
           uint64_t rows_out) {
    cells_[static_cast<size_t>(slot) * ops_ + op].Add(t0, sink_->NowNs(),
                                                      rows_in, rows_out);
  }
  /// Records the non-empty cells; label(slot, &ev) names who ran each.
  void Emit(
      const std::function<void(uint32_t, obs::TraceEvent*)>& label) const;

 private:
  obs::TraceSink* sink_ = nullptr;
  uint32_t slots_ = 0;
  uint32_t ops_ = 0;
  std::vector<obs::OpSpanAgg> cells_;  // [slot * ops + op]
};

/// A trigger's rows: the source batch plus a base table's scan predicates
/// and projection (null for intermediates, pruned at their own scan).
struct ScanSpec {
  const Batch* src = nullptr;
  const std::vector<Predicate>* preds = nullptr;
  const std::vector<uint32_t>* proj = nullptr;

  static ScanSpec For(const PipelinePlan& plan, const Source& s,
                      const Batch& rows);
  uint32_t out_width() const {
    return proj != nullptr ? static_cast<uint32_t>(proj->size())
                           : src->width();
  }
};

/// Kernel: rows [begin, end) of a scan pass its predicates, are hashed on
/// `key_col` (emitted coordinates), projected and appended to their
/// bucket (hash mod buckets). on_row(row, width) sees each appended row;
/// a bucket reaching `flush_rows`, and every touched bucket at the end,
/// goes to emit(bucket, Batch&). Returns the rows that passed.
template <typename Emit, typename OnRow>
size_t ScatterMorsel(const ScanSpec& scan, size_t begin, size_t end,
                     uint32_t key_col, uint32_t buckets, size_t flush_rows,
                     Scratch& sc, Emit&& emit, OnRow&& on_row) {
  const Batch& src = *scan.src;
  const uint32_t out_w = scan.out_width();
  const uint32_t key = scan.proj != nullptr ? (*scan.proj)[key_col] : key_col;
  size_t m = end - begin;
  const uint32_t* selp = nullptr;
  if (scan.preds != nullptr) {
    m = FilterBatch(src, begin, m, *scan.preds, &sc.sel);
    selp = sc.sel.data();
  }
  sc.hashes.resize(m);
  HashStrided(src.data().data() + begin * src.width() + key, src.width(),
              selp, m, sc.hashes.data());
  for (size_t i = 0; i < m; ++i) {
    const int64_t* row = src.row(begin + (selp != nullptr ? selp[i] : i));
    const uint32_t b = static_cast<uint32_t>(sc.hashes[i] % buckets);
    Batch& batch = sc.Bucket(b, out_w);
    if (scan.proj != nullptr) {
      batch.AppendRowProjected(row, *scan.proj);
    } else {
      batch.AppendRow(row);
    }
    on_row(batch.row(batch.rows() - 1), out_w);
    sc.FlushIfFull(b, flush_rows, emit);
  }
  sc.FlushAll(emit);
  return m;
}

/// Kernel: inserts a build activation into its bucket's table.
inline void InsertBuild(RowTable& table, std::mutex& mu, const Batch& rows) {
  std::lock_guard<std::mutex> lock(mu);
  table.InsertBatch(rows);
}

/// Kernel: joins every row of `rows` with its matches in `table` on
/// `probe_col` (one gathered key column, one hash pass, a prefetching
/// table walk) and hands each joined row — probe columns, then build
/// columns — to on_joined(row, width). Returns the joined row count.
template <typename OnJoined>
uint64_t ProbeRows(const Batch& rows, uint32_t probe_col,
                   const RowTable& table, Scratch& sc, OnJoined&& on_joined) {
  const size_t n = rows.rows();
  if (n == 0) return 0;
  const uint32_t in_w = rows.width(), out_w = in_w + table.width();
  sc.keys.resize(n);
  sc.hashes.resize(n);
  sc.row.resize(out_w);
  GatherStrided(rows.data().data() + probe_col, in_w, nullptr, n,
                sc.keys.data());
  HashStrided(sc.keys.data(), 1, nullptr, n, sc.hashes.data());
  uint64_t produced = 0;
  int64_t* out = sc.row.data();
  table.ProbeBatch(sc.keys.data(), sc.hashes.data(), n,
                   [&](size_t i, const int64_t* brow) {
                     std::copy(rows.row(i), rows.row(i) + in_w, out);
                     std::copy(brow, brow + table.width(), out + in_w);
                     ++produced;
                     on_joined(static_cast<const int64_t*>(out), out_w);
                   });
  return produced;
}

/// ProbeRows for a probe with a successor: each joined row, after
/// on_joined(row, width) sees it, is scattered by its `next_col` key into
/// the next join's buckets and flushed through emit as in ScatterMorsel.
template <typename Emit, typename OnJoined>
uint64_t ProbeForward(const Batch& rows, uint32_t probe_col,
                      const RowTable& table, uint32_t next_col,
                      uint32_t buckets, size_t flush_rows, Scratch& sc,
                      Emit&& emit, OnJoined&& on_joined) {
  const uint64_t produced = ProbeRows(
      rows, probe_col, table, sc, [&](const int64_t* row, uint32_t w) {
        on_joined(row, w);
        const uint32_t b =
            static_cast<uint32_t>(HashKey(row[next_col]) % buckets);
        sc.Bucket(b, w).AppendRow(row);
        sc.FlushIfFull(b, flush_rows, emit);
      });
  sc.FlushAll(emit);
  return produced;
}

/// Where a chain's output rows end: folded into an aggregation partial
/// (and nothing else), or digested and/or kept.
struct TerminalSink {
  AggTable* agg = nullptr;
  ResultDigest* digest = nullptr;
  Batch* keep = nullptr;

  void operator()(const int64_t* row, uint32_t width) const {
    if (agg != nullptr) return agg->Accumulate(row);
    if (digest != nullptr) digest->Add(row, width);
    if (keep != nullptr) keep->AppendRow(row);
  }
};

/// Offers `row` to every capture bound to (chain, point); no captures
/// cost one empty loop.
inline void OfferCapture(const std::vector<CaptureSink>& captures,
                         uint32_t chain, uint32_t point, const int64_t* row,
                         uint32_t width) {
  for (const CaptureSink& cs : captures) {
    if (cs.chain == chain && cs.point == point && cs.sink != nullptr) {
      cs.sink->Offer(row, width);
    }
  }
}

}  // namespace hierdb::mt

#endif  // HIERDB_MT_NODE_PLANE_H_
